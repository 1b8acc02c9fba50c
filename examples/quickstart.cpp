// Quickstart: describe an experiment as a ScenarioSpec, run it through the
// registries, and print latency/throughput — the 60-second tour of the
// library.
//
//   ./quickstart [--rate 0.5] [--scheme baseline|reduced|reduced-safe]
#include <cstdio>

#include "common/cli.hpp"
#include "core/builder.hpp"
#include "core/scenario.hpp"
#include "sim/network.hpp"

int main(int argc, char** argv) try {
  using namespace sldf;
  const Cli cli(argc, argv);

  // Radix-16-equivalent configuration from the paper's evaluation:
  // C-groups of 2x2 chiplets (each a 2x2 NoC), 8 C-groups per W-group,
  // 41 W-groups, 1312 chips. Everything is a registry name: swap the
  // topology, traffic, mode, or scheme without touching build code.
  core::ScenarioSpec spec;
  spec.label = "quickstart";
  spec.topology = "radix16-swless";
  spec.traffic = "uniform";
  spec.scheme = route::parse_vc_scheme(cli.get("scheme", "baseline"));
  spec.rates = {0.1, 0.3, cli.get_double("rate", 0.5)};
  spec.sim.warmup = 1000;
  spec.sim.measure = 2000;
  spec.sim.drain = 1000;

  sim::Network net;
  core::build_network(net, spec);
  std::printf("Switch-less Dragonfly (radix-16 equivalent, scheme=%s)\n%s\n\n",
              to_string(spec.scheme),
              core::describe(core::census(net)).c_str());

  std::fputs(core::run_series(spec).table.c_str(), stdout);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "quickstart: error: %s\n", e.what());
  return 1;
}
