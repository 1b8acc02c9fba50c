// Deadlock audit: build a switch-less Dragonfly with a chosen VC scheme and
// routing mode, enumerate every routed path, and check the induced channel
// dependency graph for cycles (Dally-Towles criterion).
//
//   ./deadlock_audit [--scheme baseline|reduced|reduced-safe]
//                    [--mode minimal|valiant|adaptive] [--g 5]
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "core/scenario.hpp"
#include "route/cdg.hpp"
#include "sim/network.hpp"

using namespace sldf;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);

  core::ScenarioSpec spec;
  sim::Network net;
  try {
    spec.topology = "tiny-swless";  // a=1,b=3 audit instance (registry)
    spec.topo["g"] = std::to_string(cli.get_int("g", 5));
    spec.scheme = route::parse_vc_scheme(cli.get("scheme", "reduced"));
    spec.mode = route::parse_route_mode(cli.get("mode", "minimal"));
    core::build_network(net, spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deadlock_audit: %s\n", e.what());
    return 1;
  }
  std::printf("scheme=%s mode=%s VCs=%d | %zu routers, %zu channels, "
              "%zu chips\n",
              to_string(spec.scheme), to_string(spec.mode), net.num_vcs(),
              net.num_routers(), net.num_channels(), net.num_chips());

  const auto rep = route::audit_cdg(net);
  std::printf("%s\n", rep.to_string(net).c_str());
  if (!rep.acyclic) {
    std::printf(
        "\nNote: for scheme=reduced, docs/ARCHITECTURE.md (\"route\") records\n"
        "the audited status of the paper's 3-VC merge of the destination\n"
        "W-group, which shares mesh channels between transit and final legs.\n"
        "Use --scheme reduced-safe for the provably acyclic variant (one\n"
        "extra on-wafer mesh VC, same long-reach VC count).\n");
  }
  return rep.acyclic ? 0 : 2;
}
