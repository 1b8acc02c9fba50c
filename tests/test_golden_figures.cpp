// Golden-figure regression tier: tiny deterministic versions of the
// fig10/fig11/fig13/fig14 scenarios run through core::run_scenario /
// run_workload_scenario and diff against checked-in golden values with
// tolerance 0. The figure pipelines are thereby pinned by ctest — a routing
// or engine regression that would silently corrupt every fig1x CSV now
// fails here first. (Exact comparison is sound: the engine is bit-
// deterministic for fixed seeds, and the build uses strict ISO FP — no FMA
// contraction — so Debug and Release produce identical doubles.)
//
// To regenerate after an *intentional* behavior change:
//   SLDF_REGEN_GOLDEN=1 ./build/test_golden_figures
// and paste the printed table over kGolden / kGoldenWorkload below.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/scenario.hpp"

using namespace sldf;

namespace {

struct GoldenPoint {
  double offered = 0.0;
  double accepted = 0.0;
  double avg_latency = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t flit_hops = 0;
};

struct GoldenCase {
  const char* name;    ///< Figure the scenario is a miniature of.
  const char* config;  ///< Scenario-file text (parse_scenario_text input).
  std::vector<GoldenPoint> points;
};

// Shared measurement window: small but long enough that every case ejects
// thousands of flits (a regression cannot hide in noise — there is none).
constexpr const char* kWindow =
    "warmup = 200\nmeasure = 400\ndrain = 400\nseed = 1\n";

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
      {"fig10a-crossbar",
       "topology = crossbar\ntopo.terminals = 8\ntraffic = uniform\n"
       "rates = 0.3,0.6\n",
       {{0.29999999999999999, 0.30687500000000001, 6.2336065573770494, 244,
         2859},
        {0.59999999999999998, 0.59593750000000001, 10.039583333333333, 480,
         5916}}},
      {"fig10a-mesh",
       "topology = cgroup-mesh\ntraffic = uniform\nrates = 0.3,0.6\n",
       {{0.29999999999999999, 0.29062500000000002, 6.5304347826086957, 115,
         1877},
        {0.59999999999999998, 0.59437499999999999, 6.8818565400843879, 237,
         3995}}},
      {"fig11-swless",
       "topology = tiny-swless\ntraffic = uniform\nrates = 0.2,0.4\n",
       {{0.20000000000000001, 0.20091666666666666, 34.06820049301561, 1217,
         77471},
        {0.40000000000000002, 0.298875, 135.29150390625, 2048, 176201}}},
      {"fig11-swdf",
       "topology = swdf\ntopo.switches_per_group = 3\n"
       "topo.terminals_per_switch = 2\ntopo.globals_per_switch = 2\n"
       "topo.g = 4\ntraffic = uniform\nrates = 0.2,0.4\n",
       {{0.20000000000000001, 0.19770833333333335, 37.101265822784811, 474,
         12067},
        {0.40000000000000002, 0.39552083333333332, 43.859039836567923, 979,
         25446}}},
      {"fig13-worst-minimal",
       "topology = tiny-swless\ntraffic = worst-case\nmode = minimal\n"
       "rates = 0.3\n",
       {{0.29999999999999999, 0.083541666666666667, 263.66206896551722, 580,
         55112}}},
      {"fig13-worst-valiant",
       "topology = tiny-swless\ntraffic = worst-case\nmode = valiant\n"
       "rates = 0.3\n",
       {{0.29999999999999999, 0.10379166666666667, 305.56489675516224, 678,
         119303}}},
      {"fig19-planes-k2",
       "topology = tiny-swless\nplane.count = 2\nplane.policy = hash\n"
       "traffic = uniform\nrates = 0.2,0.4\n",
       {{0.20000000000000001, 0.20208333333333334, 29.054231717337714, 1217,
         73081},
        {0.40000000000000002, 0.41170833333333334, 37.211577660008153, 2453,
         158501}}},
  };
  return cases;
}

struct GoldenWorkload {
  const char* name;
  const char* config;
  std::uint64_t cycles = 0;
  std::uint64_t messages = 0;
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;
  double gbps_per_chip = 0.0;
};

const std::vector<GoldenWorkload>& golden_workloads() {
  static const std::vector<GoldenWorkload> cases = {
      {"fig14-ring-allreduce",
       "topology = tiny-swless\ntopo.g = 1\nworkload = ring-allreduce\n"
       "workload.scope = wgroup\nworkload.kib = 4\nworkload.chunks = 2\n"
       "pkt_len = 4\nseed = 1\n",
       978, 528, 1584, 5808, 7.9182004089979552},
  };
  return cases;
}

core::ScenarioSpec spec_of(const char* config) {
  const auto series =
      core::parse_scenario_text(std::string(kWindow) + config);
  EXPECT_EQ(series.size(), 1u);
  return series[0];
}

bool regen_mode() { return std::getenv("SLDF_REGEN_GOLDEN") != nullptr; }

}  // namespace

TEST(GoldenFigures, RateSweepsMatchGoldenValuesExactly) {
  for (const auto& c : golden_cases()) {
    const auto series = core::run_scenario(spec_of(c.config));
    if (regen_mode()) {
      std::printf("      {\"%s\", ...,\n       {", c.name);
      for (std::size_t i = 0; i < series.points.size(); ++i) {
        const auto& r = series.points[i].res;
        std::printf("%s{%.17g, %.17g, %.17g, %llu, %llu}",
                    i ? ",\n        " : "", series.points[i].rate, r.accepted,
                    r.avg_latency,
                    static_cast<unsigned long long>(r.delivered_measured),
                    static_cast<unsigned long long>(r.flit_hops));
      }
      std::printf("}},\n");
      continue;
    }
    ASSERT_EQ(series.points.size(), c.points.size()) << c.name;
    for (std::size_t i = 0; i < c.points.size(); ++i) {
      const auto& got = series.points[i].res;
      const auto& want = c.points[i];
      EXPECT_EQ(series.points[i].rate, want.offered) << c.name << " pt " << i;
      EXPECT_EQ(got.accepted, want.accepted) << c.name << " pt " << i;
      EXPECT_EQ(got.avg_latency, want.avg_latency) << c.name << " pt " << i;
      EXPECT_EQ(got.delivered_measured, want.delivered)
          << c.name << " pt " << i;
      EXPECT_EQ(got.flit_hops, want.flit_hops) << c.name << " pt " << i;
    }
  }
}

TEST(GoldenFigures, WorkloadCompletionMatchesGoldenValuesExactly) {
  for (const auto& c : golden_workloads()) {
    const auto run = core::run_workload_scenario(spec_of(c.config));
    const auto& r = run.result;
    if (regen_mode()) {
      std::printf("      {\"%s\", ...,\n       %llu, %llu, %llu, %llu, "
                  "%.17g},\n",
                  c.name, static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.messages),
                  static_cast<unsigned long long>(r.packets),
                  static_cast<unsigned long long>(r.flits), r.gbps_per_chip);
      continue;
    }
    EXPECT_TRUE(r.completed) << c.name;
    EXPECT_EQ(r.cycles, c.cycles) << c.name;
    EXPECT_EQ(r.messages, c.messages) << c.name;
    EXPECT_EQ(r.packets, c.packets) << c.name;
    EXPECT_EQ(r.flits, c.flits) << c.name;
    EXPECT_EQ(r.gbps_per_chip, c.gbps_per_chip) << c.name;
  }
}

TEST(GoldenFigures, GoldenScenariosAreRerunStable) {
  // The exact-compare premise: running the same spec twice is bit-identical.
  const auto& c = golden_cases().front();
  const auto a = core::run_scenario(spec_of(c.config));
  const auto b = core::run_scenario(spec_of(c.config));
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].res.accepted, b.points[i].res.accepted);
    EXPECT_EQ(a.points[i].res.avg_latency, b.points[i].res.avg_latency);
  }
}
