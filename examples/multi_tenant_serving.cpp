// Multi-tenant serving walkthrough: carve one wafer into three disjoint
// jobs — a training AllReduce, a windowed all-to-all (expert-parallel
// shuffle), and a trace-style request/reply inference service — then run
// them as ONE shared simulation and ask what each tenant paid for its
// neighbours. The isolation baselines re-run each job alone on the exact
// same placement, so `interference` = shared TTC / isolated TTC is a pure
// co-location cost: 1.00 means the tenant never noticed the others.
//
// The same scenario runs through the driver as configs/tenants.conf; this
// program builds it via the C++ API, contrasts contiguous vs scattered
// placement for the shuffle tenant, and writes one CSV row per tenant.
//
//   ./multi_tenant_serving [--topology tiny-swless] [--chips 8]
//                          [--out results] [--seed 1]
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "core/scenario.hpp"
#include "trace/tenants.hpp"

using namespace sldf;

namespace {

core::ScenarioSpec mix(const std::string& topology, int chips,
                       std::uint64_t seed, const char* shuffle_placement) {
  core::ScenarioSpec s;
  s.label = std::string("shuffle-") + shuffle_placement;
  s.topology = topology;
  s.sim.seed = seed;
  s.set("tenants", "3");
  const std::string n = std::to_string(chips);
  // Tenant 0: a training job's ring AllReduce over its data-parallel group.
  s.set("tenant0.workload", "ring-allreduce");
  s.set("tenant0.chips", n);
  s.set("tenant0.scope", "system");
  s.set("tenant0.kib", "16");
  // Tenant 1: an expert-parallel all-to-all shuffle, 2 rounds in flight.
  // Its placement is the experiment variable.
  s.set("tenant1.workload", "all-to-all");
  s.set("tenant1.chips", n);
  s.set("tenant1.scope", "system");
  s.set("tenant1.kib", "4");
  s.set("tenant1.window", "2");
  s.set("tenant1.placement", shuffle_placement);
  // Tenant 2: an inference service — seeded random client->server requests
  // with timestamps, each reply gated on its request (a generated
  // sldf-trace; point trace.file at a recorded one to replay production).
  s.set("tenant2.workload", "request-reply");
  s.set("tenant2.chips", n);
  s.set("tenant2.requests", "32");
  return s;
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const std::string topology = cli.get("topology", "tiny-swless");
  const int chips = static_cast<int>(cli.get_int("chips", 8));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string out = cli.get("out", "results");
  std::filesystem::create_directories(out);

  std::printf("Three tenants on one %s wafer, %d chips each\n\n",
              topology.c_str(), chips);

  CsvWriter csv(out + "/multi_tenant_serving.csv",
                core::cell_names(trace::tenant_cells("", {})));
  double inference_interf[2] = {0.0, 0.0};
  int run = 0;
  for (const char* placement : {"contiguous", "scattered"}) {
    const auto r =
        trace::run_tenant_scenario(mix(topology, chips, seed, placement));
    const core::SeriesResult series = trace::to_series(r);
    std::fputs(series.table.c_str(), stdout);
    for (const auto& row : series.rows) csv.row(core::cell_values(row));
    inference_interf[run++] = r.tenants[2].interference;
  }

  std::printf(
      "Takeaway: placement is a noisy-neighbour policy. With every tenant\n"
      "contiguous the inference service runs at %.2fx its isolated speed;\n"
      "scattering just the shuffle tenant across C-groups drags it to\n"
      "%.2fx, because the shuffle's flows now cross everyone's global\n"
      "cables. (configs/fig17.conf sweeps this tradeoff across tenant\n"
      "sizes.)\n",
      inference_interf[0], inference_interf[1]);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "multi_tenant_serving: error: %s\n", e.what());
  return 1;
}
