// Traffic pattern tests: permutation bijectivity, hotspot confinement,
// worst-case group targeting, AllReduce ring structure.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "test_fixtures.hpp"
#include "topo/swless.hpp"
#include "traffic/allreduce.hpp"
#include "traffic/pattern.hpp"

using namespace sldf;
using namespace sldf::topo;
using namespace sldf::traffic;

namespace {
void build_tiny(sim::Network& net, int g = 0) {
  build_swless_dragonfly(
      net, sldf::testing::tiny_swless_params(route::VcScheme::Baseline,
                                             route::RouteMode::Minimal, g));
}
}  // namespace

TEST(Traffic, UniformNeverSelf) {
  sim::Network net;
  build_tiny(net);
  UniformTraffic t(net);
  Rng rng(1);
  std::set<NodeId> seen;
  const NodeId src = net.terminals().front();
  for (int i = 0; i < 5000; ++i) {
    const NodeId d = t.dest(net, src, rng);
    EXPECT_NE(d, src);
    seen.insert(d);
  }
  EXPECT_GT(seen.size(), net.terminals().size() / 2);
}

TEST(Traffic, PermutationsAreDeterministicOverSubCube) {
  sim::Network net;
  build_tiny(net);  // 84 terminals -> 64-entry permuted sub-cube (6 bits)
  Rng rng(2);
  for (auto kind : {Permutation::BitReverse, Permutation::BitShuffle,
                    Permutation::BitTranspose}) {
    PermutationTraffic t(net, kind);
    std::map<NodeId, NodeId> image;
    for (std::size_t i = 0; i < 64; ++i) {
      const NodeId src = net.terminals()[i];
      const NodeId d1 = t.dest(net, src, rng);
      const NodeId d2 = t.dest(net, src, rng);
      EXPECT_EQ(d1, d2) << "permutation must be deterministic";
      image[src] = d1;
    }
    // Bijective over the sub-cube.
    std::set<NodeId> vals;
    for (auto& [s, d] : image) vals.insert(d);
    EXPECT_EQ(vals.size(), 64u) << t.name();
  }
}

TEST(Traffic, BitReverseKnownValues) {
  sim::Network net;
  build_tiny(net);
  PermutationTraffic t(net, Permutation::BitReverse);
  Rng rng(3);
  // 6-bit sub-cube: index 1 (000001) -> 32 (100000).
  EXPECT_EQ(t.dest(net, net.terminals()[1], rng), net.terminals()[32]);
  EXPECT_EQ(t.dest(net, net.terminals()[0], rng), net.terminals()[0]);
}

TEST(Traffic, BitShuffleRotatesLeft) {
  sim::Network net;
  build_tiny(net);
  PermutationTraffic t(net, Permutation::BitShuffle);
  Rng rng(4);
  // 6 bits: 0b000011 (3) -> 0b000110 (6).
  EXPECT_EQ(t.dest(net, net.terminals()[3], rng), net.terminals()[6]);
  // MSB wraps: 0b100000 (32) -> 0b000001 (1).
  EXPECT_EQ(t.dest(net, net.terminals()[32], rng), net.terminals()[1]);
}

TEST(Traffic, BitTransposeSwapsHalves) {
  sim::Network net;
  build_tiny(net);
  PermutationTraffic t(net, Permutation::BitTranspose);
  Rng rng(5);
  // 6 bits: (hi=000, lo=011) -> (hi=011, lo=000) : 3 -> 24.
  EXPECT_EQ(t.dest(net, net.terminals()[3], rng), net.terminals()[24]);
}

TEST(Traffic, HotspotConfinesToFirstGroups) {
  sim::Network net;
  build_tiny(net);  // 7 W-groups, 12 chips each
  HotspotTraffic t(net, 4);
  EXPECT_EQ(t.active_chips(), 48);
  const auto& T = net.topo<SwlessTopo>();
  Rng rng(6);
  for (NodeId src : net.terminals()) {
    const auto wg = T.loc[static_cast<std::size_t>(src)].wg;
    const NodeId d = t.dest(net, src, rng);
    if (wg >= 4) {
      EXPECT_EQ(d, kInvalidNode);
    } else {
      ASSERT_NE(d, kInvalidNode);
      EXPECT_LT(T.loc[static_cast<std::size_t>(d)].wg, 4);
      EXPECT_NE(d, src);
    }
  }
}

TEST(Traffic, WorstCaseTargetsNextGroup) {
  sim::Network net;
  build_tiny(net);
  WorstCaseTraffic t(net);
  const auto& T = net.topo<SwlessTopo>();
  Rng rng(7);
  for (NodeId src : net.terminals()) {
    const auto wg = T.loc[static_cast<std::size_t>(src)].wg;
    for (int i = 0; i < 8; ++i) {
      const NodeId d = t.dest(net, src, rng);
      EXPECT_EQ(T.loc[static_cast<std::size_t>(d)].wg, (wg + 1) % 7);
    }
  }
}

TEST(Traffic, FactoryMakesAllKinds) {
  sim::Network net;
  build_tiny(net);
  for (const char* k : {"uniform", "bit-reverse", "bit-shuffle",
                        "bit-transpose", "hotspot", "worst-case"}) {
    EXPECT_NE(make_pattern(k, net), nullptr) << k;
  }
  EXPECT_THROW(make_pattern("nope", net), std::invalid_argument);
}

TEST(AllReduce, CGroupRingSuccessorStructure) {
  sim::Network net;
  build_tiny(net);
  RingAllReduceTraffic t(net, RingScope::CGroup, /*bidirectional=*/false);
  const auto& T = net.topo<SwlessTopo>();
  Rng rng(8);
  // Each chip's nodes must target the Hamiltonian-ring successor in the
  // same C-group: for a 2x2 chiplet grid the cycle is 1 -> 3 -> 2 -> 0.
  const int succ_in_grid[4] = {1, 3, 0, 2};
  for (NodeId src : net.terminals()) {
    const ChipId chip = net.chip_of(src);
    const NodeId d = t.dest(net, src, rng);
    const ChipId dchip = net.chip_of(d);
    EXPECT_EQ(T.chip_cgroup[static_cast<std::size_t>(chip)],
              T.chip_cgroup[static_cast<std::size_t>(dchip)]);
    EXPECT_EQ(dchip % 4, succ_in_grid[chip % 4]);
    // Ring neighbours are physically adjacent chiplets (Manhattan dist 1).
    const int ax = chip % 4 % 2, ay = chip % 4 / 2;
    const int bx = dchip % 4 % 2, by = dchip % 4 / 2;
    EXPECT_EQ(std::abs(ax - bx) + std::abs(ay - by), 1);
  }
}

TEST(AllReduce, WGroupRingCoversWholeGroup) {
  sim::Network net;
  build_tiny(net);
  RingAllReduceTraffic t(net, RingScope::WGroup, false);
  Rng rng(9);
  // Following successors from chip 0 must traverse all 12 chips of W-group
  // 0 before returning.
  std::set<ChipId> visited;
  ChipId c = 0;
  for (int i = 0; i < 12; ++i) {
    visited.insert(c);
    const NodeId src = net.chip_nodes(c).front();
    c = net.chip_of(t.dest(net, src, rng));
  }
  EXPECT_EQ(c, 0);
  EXPECT_EQ(visited.size(), 12u);
}

TEST(AllReduce, BidirectionalSplitsBothWays) {
  sim::Network net;
  build_tiny(net);
  RingAllReduceTraffic t(net, RingScope::CGroup, true);
  Rng rng(10);
  const NodeId src = net.chip_nodes(1).front();
  std::set<ChipId> dests;
  for (int i = 0; i < 200; ++i)
    dests.insert(net.chip_of(t.dest(net, src, rng)));
  EXPECT_EQ(dests.size(), 2u);  // both ring neighbours of chip 1: 0 and 3
  EXPECT_TRUE(dests.count(0));
  EXPECT_TRUE(dests.count(3));
}

TEST(AllReduce, NodeSlotsPairAcrossChips) {
  // With multi-node chips, node j targets node j of the neighbour chip.
  SwlessParams p;
  p.a = 2;
  p.b = 2;
  p.chip_gx = 2;
  p.chip_gy = 2;
  p.noc_x = 2;
  p.noc_y = 2;
  p.ports_per_chiplet = 6;
  p.local_ports = 3;
  p.global_ports = 3;
  p.g = 2;
  sim::Network net;
  build_swless_dragonfly(net, p);
  RingAllReduceTraffic t(net, RingScope::CGroup, false);
  Rng rng(11);
  for (ChipId c = 0; c < 4; ++c) {
    const auto& nodes = net.chip_nodes(c);
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      const NodeId d = t.dest(net, nodes[j], rng);
      const auto& dn = net.chip_nodes(net.chip_of(d));
      EXPECT_EQ(d, dn[j]);
    }
  }
}
