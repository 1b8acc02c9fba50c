// Fig 20 (wafer-on-wafer scale-out, beyond the paper's single wafer): the
// tiny switch-less fabric stacked W = 2 deep with all-pairs vertical bond
// columns vs the single wafer, on the one-vertical-hop routing of
// route/composite.hpp.
//
// (a) uniform-traffic throughput sweep: single wafer vs a 2-stack with
//     full-width bonds vs a 2-stack with quarter-width, slower bonds —
//     cross-wafer traffic saturates on the bond bandwidth, intra-wafer
//     traffic is untouched.
// (b) vertical resilience sweep: fail a growing fraction of the vertical
//     bonds (nested seeded sets) at a fixed offered load and track
//     delivery/drop per source wafer — live columns absorb the detoured
//     crossings until the stack severs.
// (c) online bond failure: a mid-run vertical fault wave, later repaired,
//     with packet rescue on vs off — every torn cross-wafer packet is
//     rescued or counted, never leaked.
//
// Equivalent driver invocations use wafer.count / wafer.latency /
// wafer.width (see the scenario-key reference in the README).
#include "bench_common.hpp"

using namespace sldf;
using namespace sldf::bench;

namespace {

constexpr std::uint64_t kFaultSeed = 7;

struct Series {
  const char* label;
  int wafers;       ///< 0 = classic single-fabric build path.
  bool narrow;      ///< Quarter-width, slower vertical bonds.
};

core::ScenarioSpec series_spec(const BenchEnv& env, const Series& ser) {
  auto s = env.spec(ser.label, "tiny-swless", "uniform");
  if (ser.wafers > 0) s.wafer_count = ser.wafers;
  if (ser.narrow) {
    s.wafer_width_num = 1;
    s.wafer_width_den = 4;
    s.wafer_latency = 4;
  }
  return s;
}

int bench_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const BenchEnv env(cli);
  banner("Fig 20(a-c): wafer-on-wafer stacks vs one wafer");

  const Series series[] = {{"single", 0, false},
                           {"stack-w2", 2, false},
                           {"stack-w2-narrow", 2, true}};

  // --- (a) uniform throughput sweep ---
  {
    CsvWriter csv = env.csv("fig20a_wafer_throughput.csv");
    std::printf("--- fig20a (uniform throughput, 2-stack vs 1 wafer) ---\n");
    for (const auto& ser : series) {
      auto s = series_spec(env, ser);
      s.max_rate = 1.0;
      s.points = env.points(6);
      run_spec(csv, s);
    }
  }

  // --- (b) vertical resilience sweep (nested static bond-fault sets) ---
  {
    CsvWriter csv(env.out_dir + "/fig20b_wafer_resilience.csv",
                  {"series", "bond_fail_rate", "delivered", "dropped",
                   "inflight", "wafer0_delivered", "wafer1_delivered",
                   "drained"});
    std::printf("--- fig20b (vertical bond faults, 2-stack) ---\n");
    for (const double rate : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      auto s = series_spec(env, series[1]);
      s.label = "stack-w2";
      s.rates = {0.05};  // below even one surviving column's bandwidth
      if (rate > 0.0) {
        s.fault.rate = rate;
        s.fault.kind = topo::FaultKind::Vertical;
        s.fault.seed = kFaultSeed;
      }
      const auto run = core::run_scenario(s);
      core::print_series(run);
      for (const auto& pt : run.points) {
        const auto& r = pt.res;
        const auto wd = [&](std::size_t w) {
          return w < r.wafer_delivered.size()
                     ? std::to_string(r.wafer_delivered[w])
                     : std::string("0");
        };
        csv.row(std::vector<std::string>{
            s.label, CsvWriter::format_num(rate),
            std::to_string(r.delivered_total),
            std::to_string(r.dropped_packets),
            std::to_string(r.inflight_packets), wd(0), wd(1),
            r.drained ? "1" : "0"});
      }
    }
  }

  // --- (c) online bond failure: rescue vs drop accounting ---
  {
    CsvWriter csv(env.out_dir + "/fig20c_bond_repair.csv",
                  {"series", "rescue", "delivered", "rescued", "dropped",
                   "drained"});
    std::printf("--- fig20c (online bond fail->repair, 2-stack) ---\n");
    for (const bool rescue : {true, false}) {
      auto s = series_spec(env, series[1]);
      s.label = rescue ? "stack-w2-rescue" : "stack-w2-drop";
      s.rates = {0.05};
      s.fault.seed = kFaultSeed;
      s.fault.rescue = rescue;
      const Cycle fail_at = s.sim.warmup;
      const Cycle repair_at = s.sim.warmup + s.sim.measure / 2;
      s.fault.events = "fail@" + std::to_string(fail_at) +
                       ":vertical=0.8;repair@" + std::to_string(repair_at) +
                       ":vertical=0";
      const auto run = core::run_scenario(s);
      core::print_series(run);
      for (const auto& pt : run.points) {
        const auto& r = pt.res;
        csv.row(std::vector<std::string>{
            s.label, rescue ? "1" : "0",
            std::to_string(r.delivered_total),
            std::to_string(r.rescued_packets),
            std::to_string(r.dropped_packets), r.drained ? "1" : "0"});
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sldf::bench::guarded("fig20_wafer_stack",
                              [&] { return bench_main(argc, argv); });
}
