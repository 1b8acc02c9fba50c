// Tests for the C-group builder and standalone mesh network: structure,
// link types/widths, chip assignment, port banding, and XY routing.
#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "route/cdg.hpp"
#include "sim/simulator.hpp"
#include "topo/cgroup.hpp"
#include "traffic/pattern.hpp"

using namespace sldf;
using namespace sldf::topo;

namespace {
CGroupShape radix16_shape(int locals = 0, int globals = 0) {
  CGroupShape s;
  s.chip_gx = s.chip_gy = 2;
  s.noc_x = s.noc_y = 2;
  s.ports_per_chiplet = 6;
  s.local_ports = locals;
  s.global_ports = globals;
  return s;
}
}  // namespace

TEST(CGroup, ShapeDerivedQuantities) {
  const auto s = radix16_shape();
  EXPECT_EQ(s.mx(), 4);
  EXPECT_EQ(s.my(), 4);
  EXPECT_EQ(s.routers(), 16);
  EXPECT_EQ(s.chips(), 4);
}

TEST(CGroup, BuildsCoresChipsAndMesh) {
  sim::Network net;
  const auto cg = build_cgroup(net, radix16_shape(), 0);
  EXPECT_EQ(cg.cores.size(), 16u);
  EXPECT_EQ(net.num_chips(), 4u);
  // Every core is a terminal of the right chip (2x2 blocks).
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x)
      EXPECT_EQ(net.chip_of(cg.core_at(4, x, y)),
                (y / 2) * 2 + (x / 2));
}

TEST(CGroup, BoundaryLinksAreFractionalShortReach) {
  sim::Network net;
  const auto cg = build_cgroup(net, radix16_shape(), 0);
  // Link from (1,0) to (2,0) crosses the chiplet boundary: short-reach,
  // width 3/4 (n=6 => 1.5 links per edge over 2 router pairs).
  const ChanId boundary =
      cg.mesh_out[0 * 4 + 1][kEast];
  ASSERT_NE(boundary, kInvalidChan);
  const auto& bc = net.chan(boundary);
  EXPECT_EQ(bc.type, LinkType::ShortReach);
  EXPECT_EQ(bc.width_num, 3);
  EXPECT_EQ(bc.width_den, 4);
  // Link from (0,0) to (1,0) is on-chip, full width.
  const auto& ic = net.chan(cg.mesh_out[0][kEast]);
  EXPECT_EQ(ic.type, LinkType::OnChip);
  EXPECT_EQ(ic.width_num, 1);
  EXPECT_EQ(ic.width_den, 1);
}

TEST(CGroup, MeshWidthMultiplierScalesLinks) {
  auto s = radix16_shape();
  s.mesh_width = 2;
  sim::Network net;
  const auto cg = build_cgroup(net, s, 0);
  EXPECT_EQ(net.chan(cg.mesh_out[0][kEast]).width_num, 2);
  const auto& bc = net.chan(cg.mesh_out[1][kEast]);
  EXPECT_EQ(bc.width_num, 3);  // 2 * 3/4 = 3/2
  EXPECT_EQ(bc.width_den, 2);
}

TEST(CGroup, PortBandsGlobalsLowLocalsHigh) {
  sim::Network net;
  const auto s = radix16_shape(7, 5);
  const auto cg = build_cgroup(net, s, 0);
  ASSERT_EQ(cg.locals.size(), 7u);
  ASSERT_EQ(cg.globals.size(), 5u);
  // Every global host label below every local host label.
  std::int32_t max_g = -1, min_l = 1 << 30;
  for (const auto& p : cg.globals)
    max_g = std::max(max_g, net.router(p.host).label);
  for (const auto& p : cg.locals)
    min_l = std::min(min_l, net.router(p.host).label);
  EXPECT_LT(max_g, min_l);
  // IO converters exist with attach channels.
  for (const auto& p : cg.globals) {
    EXPECT_EQ(net.router(p.io).kind, NodeKind::IoConverter);
    EXPECT_EQ(net.chan(p.exit_chan).src, p.host);
    EXPECT_EQ(net.chan(p.exit_chan).dst, p.io);
    EXPECT_EQ(net.chan(p.exit_chan).type, LinkType::ShortReach);
  }
}

TEST(CGroup, TooManyPortsThrows) {
  auto s = radix16_shape(20, 20);  // 40 ports > 2x 12 perimeter routers
  sim::Network net;
  EXPECT_THROW(build_cgroup(net, s, 0), std::invalid_argument);
}

TEST(MeshNetwork, XyDeliversAllPairs) {
  sim::Network net;
  build_mesh_network(net, radix16_shape(), 1, 32);
  // Walk the routing function for every pair.
  Rng rng(1);
  for (NodeId s : net.terminals()) {
    for (NodeId d : net.terminals()) {
      if (s == d) continue;
      sim::Packet pkt;
      pkt.src = s;
      pkt.dst = d;
      net.routing()->init_packet(net, pkt, rng);
      // A path past the 6-hop mesh diameter ends at the hop limit.
      ASSERT_EQ(route::walk(net, pkt, 6, [](auto&&...) {}),
                route::WalkEnd::Delivered)
          << s << "->" << d;
    }
  }
}

TEST(MeshNetwork, UniformSaturatesNearPaperValue) {
  // Paper Fig 10(a): the 4x4-router C-group saturates near 3 flits/cycle/
  // chip under uniform traffic (chiplet-boundary bisection = 3 links).
  sim::Network net;
  build_mesh_network(net, radix16_shape(), 1, 32);
  sim::SimConfig cfg;
  cfg.inj_rate_per_chip = 4.0;  // beyond saturation
  cfg.warmup = 1000;
  cfg.measure = 4000;
  cfg.drain = 0;
  auto tr = traffic::make_pattern("uniform", net);
  const auto r = sim::run_sim(net, cfg, *tr);
  EXPECT_GT(r.accepted, 2.0);
  EXPECT_LT(r.accepted, 3.3);
}

TEST(MeshNetwork, ZeroLoadLatencySane) {
  sim::Network net;
  build_mesh_network(net, radix16_shape(), 1, 32);
  sim::SimConfig cfg;
  cfg.inj_rate_per_chip = 0.1;
  cfg.warmup = 500;
  cfg.measure = 2000;
  auto tr = traffic::make_pattern("uniform", net);
  const auto r = sim::run_sim(net, cfg, *tr);
  EXPECT_GT(r.avg_latency, 5.0);
  EXPECT_LT(r.avg_latency, 14.0);  // paper Fig 10(a) starts near 8
  EXPECT_TRUE(r.drained);
}

TEST(MeshNetwork, CensusMatchesShape) {
  sim::Network net;
  build_mesh_network(net, radix16_shape(), 1, 32);
  const auto c = core::census(net);
  EXPECT_EQ(c.cores, 16u);
  EXPECT_EQ(c.io_converters, 0u);
  EXPECT_EQ(c.chips, 4u);
  // 2 duplex links per inner pair: 24 directed mesh channels... 4x4 mesh has
  // 2*(3*4)*2 = 48 directed channels.
  EXPECT_EQ(c.channels_total, 48u);
}
