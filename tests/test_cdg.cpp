// Channel-dependency-graph audits (paper §IV deadlock-freedom claims).
// Every routing mode x VC scheme must be acyclic on the audit instance,
// the paper's Reduced scheme included, whether it is built as the classic
// single fabric or as a plane set or wafer stack of copies of it; what that
// instance does and does not cover is written up in docs/ARCHITECTURE.md
// ("route").
#include <gtest/gtest.h>

#include <tuple>

#include "route/cdg.hpp"
#include "test_fixtures.hpp"
#include "topo/composite.hpp"
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

/// How the audited fabric is built: the classic single fabric, or a
/// composite of copies of it (the audit must see through the dispatcher).
enum class Build { Classic, Planes1, Planes2, Wafers2 };

const char* to_string(Build b) {
  switch (b) {
    case Build::Classic: return "classic";
    case Build::Planes1: return "planes1";
    case Build::Planes2: return "planes2";
    case Build::Wafers2: return "wafers2";
  }
  return "?";
}

void build(sim::Network& net, Build b, VcScheme scheme, RouteMode mode) {
  const auto p = audit_params(scheme, mode);
  if (b == Build::Classic) {
    build_swless_dragonfly(net, p);
    return;
  }
  CompositeSpec spec;
  spec.axis = b == Build::Wafers2 ? sim::Axis::Wafers : sim::Axis::Planes;
  spec.count = b == Build::Planes1 ? 1 : 2;
  build_composite(net, spec, [&](int, sim::Network& n) {
    return wire_swless_dragonfly(n, p);
  });
}

route::CdgReport audit(Build b, VcScheme scheme, RouteMode mode) {
  sim::Network net;
  build(net, b, scheme, mode);
  auto rep = route::audit_cdg(net);
  EXPECT_TRUE(rep.acyclic) << to_string(b) << ": " << rep.to_string(net);
  return rep;
}
}  // namespace

class CdgAudit : public ::testing::TestWithParam<
                     std::tuple<RouteMode, VcScheme, Build>> {};

TEST_P(CdgAudit, Acyclic) {
  const auto [mode, scheme, b] = GetParam();
  const auto rep = audit(b, scheme, mode);
  EXPECT_GT(rep.paths_walked, 1000u);
  if (b == Build::Classic) return;
  // A composite walks each child exactly like the classic fabric: one
  // plane is the classic audit, two planes are two disjoint copies of it.
  const auto classic = audit(Build::Classic, scheme, mode);
  if (b == Build::Planes1 || b == Build::Planes2) {
    const std::size_t k = b == Build::Planes1 ? 1 : 2;
    EXPECT_EQ(rep.paths_walked, k * classic.paths_walked);
    EXPECT_EQ(rep.resources, k * classic.resources);
    EXPECT_EQ(rep.edges, k * classic.edges);
    EXPECT_EQ(rep.max_path_hops, classic.max_path_hops);
  } else if (mode != RouteMode::Minimal) {
    // Wafer source legs enumerate intermediates in the child's W-groups,
    // so a non-minimal stack holds more resources than a minimal one.
    EXPECT_GT(rep.resources,
              audit(Build::Wafers2, scheme, RouteMode::Minimal).resources);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModeByScheme, CdgAudit,
    // Adaptive paths are a subset of minimal + Valiant paths; the audit
    // enumerates every intermediate group, so it certifies them all.
    ::testing::Combine(::testing::Values(RouteMode::Minimal,
                                         RouteMode::Valiant,
                                         RouteMode::Adaptive),
                       ::testing::Values(VcScheme::Baseline, VcScheme::Reduced,
                                         VcScheme::ReducedSafe),
                       ::testing::Values(Build::Classic, Build::Planes1,
                                         Build::Planes2, Build::Wafers2)),
    [](const auto& info) {
      const Build b = std::get<2>(info.param);
      std::string name = std::string(to_string(std::get<0>(info.param))) +
                         "_" + to_string(std::get<1>(info.param));
      if (b != Build::Classic) name += std::string("_") + to_string(b);
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

TEST(Cdg, WalksThatNeverDeliverAreUnreachableAndFailTheAudit) {
  // Two routers joined both ways, each a terminal. One fake routing bounces
  // every packet between them forever (the walk's hop limit), the other
  // ejects it at its source (a misdelivery): neither delivers any pair.
  enum class Fault { Bounce, EjectAtSource };
  class Broken final : public sim::RoutingAlgorithm {
   public:
    explicit Broken(Fault f) : fault_(f) {}
    void init_packet(const sim::Network&, sim::Packet& pkt, Rng&) override {
      pkt.vc_class = 0;
    }
    sim::RouteDecision route(const sim::Network& net2, NodeId router, PortIx,
                             sim::Packet&) override {
      if (fault_ == Fault::Bounce) return {0, 0};  // the one outgoing channel
      return {net2.router(router).eject_port, 0};
    }
    const char* name() const override { return "broken"; }

   private:
    Fault fault_;
  };
  for (const Fault f : {Fault::Bounce, Fault::EjectAtSource}) {
    SCOPED_TRACE(f == Fault::Bounce ? "bounce" : "eject at source");
    sim::Network net;
    const NodeId a = net.add_router(NodeKind::Core);
    const NodeId b = net.add_router(NodeKind::Core);
    net.add_channel(a, b, LinkType::OnChip, 1);
    net.add_channel(b, a, LinkType::OnChip, 1);
    net.make_terminal(a, 0);
    net.make_terminal(b, 1);
    net.set_routing(std::make_unique<Broken>(f));
    net.finalize(1, 8);
    route::CdgOptions opt;
    opt.max_hops = 64;
    const auto rep = route::audit_cdg(net, opt);
    EXPECT_EQ(rep.paths_walked, 2u);
    EXPECT_EQ(rep.unreachable, 2u) << rep.to_string(net);
    EXPECT_EQ(rep.undeliverable, 0u);
    EXPECT_FALSE(rep.all_reachable());
    EXPECT_FALSE(rep.acyclic);
    // Only the bounce holds channels, and its two depend on each other.
    EXPECT_EQ(rep.cycle.empty(), f == Fault::EjectAtSource);
  }
}
