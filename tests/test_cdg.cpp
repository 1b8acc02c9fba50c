// Channel-dependency-graph audits (paper §IV deadlock-freedom claims).
// Every routing mode x VC scheme must be acyclic on the audit instance,
// the paper's Reduced scheme included; what that instance does and does
// not cover is written up in docs/ARCHITECTURE.md ("route").
#include <gtest/gtest.h>

#include <tuple>

#include "route/cdg.hpp"
#include "test_fixtures.hpp"
#include "topo/dragonfly.hpp"
#include "topo/swless.hpp"

using namespace sldf;
using namespace sldf::topo;
using route::RouteMode;
using route::VcScheme;

namespace {
SwlessParams audit_params(VcScheme scheme, RouteMode mode) {
  // g = 5 keeps the audit quick but multi-W-group.
  return sldf::testing::tiny_swless_params(scheme, mode, 5);
}
}  // namespace

class CdgAudit
    : public ::testing::TestWithParam<std::tuple<RouteMode, VcScheme>> {};

TEST_P(CdgAudit, Acyclic) {
  const auto [mode, scheme] = GetParam();
  sim::Network net;
  build_swless_dragonfly(net, audit_params(scheme, mode));
  const auto rep = route::audit_cdg(net);
  EXPECT_TRUE(rep.acyclic) << rep.to_string(net);
  EXPECT_GT(rep.paths_walked, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    ModeByScheme, CdgAudit,
    // Adaptive paths are a subset of minimal + Valiant paths; the audit
    // enumerates every intermediate group, so it certifies them all.
    ::testing::Combine(::testing::Values(RouteMode::Minimal,
                                         RouteMode::Valiant,
                                         RouteMode::Adaptive),
                       ::testing::Values(VcScheme::Baseline, VcScheme::Reduced,
                                         VcScheme::ReducedSafe)),
    [](const auto& info) {
      std::string name = std::string(to_string(std::get<0>(info.param))) +
                         "_" + to_string(std::get<1>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Cdg, SwitchBasedDragonflyMinimalAcyclic) {
  SwDragonflyParams p;
  p.switches_per_group = 3;
  p.terminals_per_switch = 2;
  p.globals_per_switch = 2;
  p.mode = RouteMode::Minimal;
  sim::Network net;
  build_sw_dragonfly(net, p);
  const auto rep = route::audit_cdg(net);
  EXPECT_TRUE(rep.acyclic) << rep.to_string(net);
}

TEST(Cdg, SwitchBasedDragonflyValiantAcyclic) {
  SwDragonflyParams p;
  p.switches_per_group = 3;
  p.terminals_per_switch = 2;
  p.globals_per_switch = 2;
  p.mode = RouteMode::Valiant;
  sim::Network net;
  build_sw_dragonfly(net, p);
  const auto rep = route::audit_cdg(net);
  EXPECT_TRUE(rep.acyclic) << rep.to_string(net);
}

TEST(Cdg, NoConverterSmallScaleAcyclic) {
  auto p = audit_params(VcScheme::Baseline, RouteMode::Minimal);
  p.io_converters = false;
  sim::Network net;
  build_swless_dragonfly(net, p);
  const auto rep = route::audit_cdg(net);
  EXPECT_TRUE(rep.acyclic) << rep.to_string(net);
}

TEST(Cdg, SingleVcMeshWouldCycleOnRingDependencies) {
  // Sanity check that the auditor can actually find cycles: a 3-node ring
  // with one VC and "always forward" routing is the textbook deadlock.
  sim::Network net;
  const NodeId a = net.add_router(NodeKind::Core);
  const NodeId b = net.add_router(NodeKind::Core);
  const NodeId c = net.add_router(NodeKind::Core);
  net.add_channel(a, b, LinkType::OnChip, 1);
  net.add_channel(b, c, LinkType::OnChip, 1);
  net.add_channel(c, a, LinkType::OnChip, 1);
  net.make_terminal(a, 0);
  net.make_terminal(b, 1);
  net.make_terminal(c, 2);

  class RingFwd final : public sim::RoutingAlgorithm {
   public:
    void init_packet(const sim::Network&, sim::Packet& pkt, Rng&) override {
      pkt.vc_class = 0;
    }
    sim::RouteDecision route(const sim::Network& net2, NodeId router, PortIx,
                             sim::Packet& pkt) override {
      const auto& r = net2.router(router);
      if (router == pkt.dst) return {r.eject_port, 0};
      return {0, 0};  // the single forward channel
    }
    const char* name() const override { return "ring"; }
  };
  net.set_routing(std::make_unique<RingFwd>());
  net.finalize(1, 8);
  const auto rep = route::audit_cdg(net);
  EXPECT_FALSE(rep.acyclic);
  EXPECT_FALSE(rep.cycle.empty());
}
