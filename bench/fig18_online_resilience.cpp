// Fig 18 (online resilience, beyond the paper's static fault sweeps):
// reroute convergence after a *live* fault event, radix-16 switch-less vs
// switch-based Dragonfly, per routing mode.
//
// The run starts on a pristine fabric under steady uniform load; at a known
// cycle a `fail@t:global=<rate>` timeline event kills a batch of global
// cables while packets are in flight. Torn packets are rescued (re-queued at
// their sources) and fault-aware routing detours around the dead cables, so
// accepted throughput dips and then recovers. The bench drives
// Simulator::step() directly and samples accepted flits in fixed windows,
// reporting, per (fabric, routing mode):
//
//   pre    — mean accepted flits/cycle/chip over the settled pre-fault
//            windows (the recovery target),
//   dip    — the worst post-fault window, and dip depth 1 - dip/pre,
//   recover— cycles from the fault event until a window first sustains
//            >= 95% of `pre` again (-1: never within the horizon).
//
// The fault set is the same seeded permutation prefix the static fig16
// sweep fails, so the settled post-recovery fabric is bit-identical to a
// static injection at the same rate.
// Equivalent driver invocation: sldf --fault.events=fail@N:global=R ...
//
//   fig18_online_resilience [--quick] [--out DIR] [--seed N] [--g G]
//
// --quick shrinks the fabric and horizon (CI smoke); the CSV goes to
// DIR/fig18_online_resilience.csv (default DIR: results).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "core/scenario.hpp"
#include "sim/simulator.hpp"

using namespace sldf;

namespace {

constexpr std::uint64_t kFaultSeed = 7;
constexpr double kRecoverFrac = 0.95;  ///< Recovery threshold vs pre-fault.

struct Convergence {
  double pre = 0.0;          ///< Settled pre-fault accepted (per cycle/chip).
  double dip = 0.0;          ///< Worst post-fault window.
  double dip_depth = 0.0;    ///< 1 - dip/pre.
  std::int64_t recover_cycles = -1;  ///< Fault -> first recovered window.
  std::uint64_t dropped = 0;
  std::uint64_t rescued = 0;
};

/// Steps one simulator across the horizon, sampling accepted flits per
/// window. `fault_at` must be window-aligned so the dip is attributed to
/// whole windows.
Convergence measure_convergence(sim::Network& net, const sim::SimConfig& cfg,
                                sim::TrafficSource& traffic, Cycle fault_at,
                                Cycle horizon, Cycle window) {
  sim::Simulator sim(net, cfg, traffic);
  const double chips = static_cast<double>(net.num_chips());
  std::vector<double> rate;  // accepted flits/cycle/chip per window
  std::uint64_t prev = 0;
  for (Cycle t = 0; t < horizon; ++t) {
    sim.step();
    if (sim.now() % window == 0) {
      const std::uint64_t acc = sim.accepted_flits();
      rate.push_back(static_cast<double>(acc - prev) /
                     (static_cast<double>(window) * chips));
      prev = acc;
    }
  }

  Convergence c;
  c.dropped = sim.dropped_packets();
  c.rescued = sim.rescued_packets();
  const std::size_t fault_w = static_cast<std::size_t>(fault_at / window);
  // Settled pre-fault mean: skip the first half of the pre-fault windows
  // (injection ramp-up) and average the rest.
  const std::size_t skip = fault_w / 2;
  double sum = 0.0;
  for (std::size_t w = skip; w < fault_w; ++w) sum += rate[w];
  c.pre = fault_w > skip ? sum / static_cast<double>(fault_w - skip) : 0.0;

  c.dip = c.pre;
  for (std::size_t w = fault_w; w < rate.size(); ++w)
    c.dip = std::min(c.dip, rate[w]);
  c.dip_depth = c.pre > 0.0 ? 1.0 - c.dip / c.pre : 0.0;
  for (std::size_t w = fault_w; w < rate.size(); ++w) {
    if (rate[w] >= kRecoverFrac * c.pre) {
      c.recover_cycles = static_cast<std::int64_t>((w + 1) * window - fault_at);
      break;
    }
  }
  return c;
}

int bench_main(const Cli& cli) {
  const bool quick = cli.has("quick");
  const std::string out_dir = cli.get("out", "results");
  std::filesystem::create_directories(out_dir);
  std::printf("Fig 18: reroute convergence after an online global-cable "
              "fault\n\n");

  const Cycle window = 100;
  const Cycle fault_at = quick ? 800 : 1600;
  const Cycle horizon = quick ? 2400 : 4800;
  const double fail_rate = 0.10;
  // Below the *degraded* fabric's saturation point: accepted throughput can
  // return to the offered rate once rerouting converges, so the recovery
  // metric measures the transient, not a permanent capacity loss.
  // (0.05 also clears Valiant's halved capacity on the degraded fabric.)
  const double offered = 0.05;
  const int g = quick ? 5 : static_cast<int>(cli.get_int("g", 11));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  struct Fabric {
    const char* label;
    const char* topology;
  };
  const Fabric fabrics[] = {{"SW-based", "radix16-swdf"},
                            {"SW-less", "radix16-swless"}};
  const route::RouteMode modes[] = {route::RouteMode::Minimal,
                                    route::RouteMode::Valiant,
                                    route::RouteMode::Adaptive};

  CsvWriter csv(out_dir + "/fig18_online_resilience.csv",
                {"series", "mode", "fail_at", "fail_frac", "pre_accepted",
                 "dip_accepted", "dip_depth", "recover_cycles", "dropped",
                 "rescued"});
  std::printf("%-10s %-9s %9s %9s %9s %10s %8s %8s\n", "fabric", "mode",
              "pre", "dip", "depth", "recover", "dropped", "rescued");
  for (const auto& fab : fabrics) {
    for (const auto mode : modes) {
      core::ScenarioSpec s;
      s.label = fab.label;
      s.topology = fab.topology;
      s.sim.seed = seed;
      s.topo["g"] = std::to_string(g);
      s.topo["fault_tolerant"] = "1";
      s.mode = mode;
      s.fault.seed = kFaultSeed;
      s.fault.events = "fail@" + std::to_string(fault_at) +
                       ":global=" + CsvWriter::format_num(fail_rate);
      // The bench samples every cycle itself: warmup 0 and measure =
      // horizon make accepted_flits() a whole-run running counter.
      s.sim.warmup = 0;
      s.sim.measure = horizon;
      s.sim.drain = 0;
      s.sim.inj_rate_per_chip = offered;

      sim::Network net;
      core::build_network(net, s);
      const auto traffic = core::traffic_factory(s)(net);
      const Convergence c = measure_convergence(net, s.sim, *traffic,
                                                fault_at, horizon, window);

      std::printf("%-10s %-9s %9.4f %9.4f %8.1f%% %10lld %8llu %8llu\n",
                  fab.label, route::to_string(mode), c.pre, c.dip,
                  100.0 * c.dip_depth,
                  static_cast<long long>(c.recover_cycles),
                  static_cast<unsigned long long>(c.dropped),
                  static_cast<unsigned long long>(c.rescued));
      csv.row(std::vector<std::string>{
          fab.label, route::to_string(mode), std::to_string(fault_at),
          CsvWriter::format_num(fail_rate), CsvWriter::format_num(c.pre),
          CsvWriter::format_num(c.dip), CsvWriter::format_num(c.dip_depth),
          std::to_string(c.recover_cycles), std::to_string(c.dropped),
          std::to_string(c.rescued)});
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return bench_main(Cli(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig18_online_resilience: error: %s\n", e.what());
    return 1;
  }
}
