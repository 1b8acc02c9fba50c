// Wafer-on-wafer conformance suite: wafer.count = 1 must be bit-identical
// to the classic single-fabric build, the stack structure (wafer-major chip
// partition, portal/bond tables) must be consistent, cross-wafer routes
// must cross exactly one vertical bond, vertical-cable faults must behave
// like every other fault kind (nested seeded sets, online fail -> repair
// with full in-flight accounting, a fully-severed stack reported by the
// audit instead of crashing), wafers x planes must be rejected, the
// scenario keys must round-trip, and the packed-width capacity guards must
// fail finalize with a typed ScenarioError.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>

#include "common/error.hpp"
#include "core/scenario.hpp"
#include "sim/simulator.hpp"
#include "test_fixtures.hpp"
#include "topo/faults.hpp"
#include "topo/swless.hpp"
#include "topo/wafer_stack.hpp"
#include "traffic/pattern.hpp"

using namespace sldf;
using namespace sldf::testing;
using topo::FaultKind;
using topo::FaultSpec;

namespace {

/// A short tiny-swless open-loop spec; `wafers` = 0 keeps the classic
/// (pre-wafer) build path.
core::ScenarioSpec wafer_spec(int wafers) {
  core::ScenarioSpec s;
  s.topology = "tiny-swless";
  s.traffic = "uniform";
  s.rates = {0.3};
  s.sim.warmup = 200;
  s.sim.measure = 500;
  s.sim.drain = 3000;
  s.sim.seed = 11;
  s.wafer_count = wafers;
  return s;
}

sim::SimResult run_one(const core::ScenarioSpec& s) {
  const auto series = core::run_scenario(s);
  EXPECT_EQ(series.points.size(), 1u);
  return series.points.at(0).res;
}

std::set<ChanId> dead_channels(const sim::Network& net) {
  std::set<ChanId> dead;
  for (std::size_t i = 0; i < net.num_channels(); ++i)
    if (!net.chan_live(static_cast<ChanId>(i)))
      dead.insert(static_cast<ChanId>(i));
  return dead;
}

}  // namespace

// ---- stack structure -----------------------------------------------------

TEST(WaferStructure, WaferMajorPartitionAndBondTables) {
  auto s = wafer_spec(3);
  sim::Network net;
  core::build_network(net, s);
  ASSERT_TRUE(net.has_wafers());
  EXPECT_EQ(net.num_wafers(), 3);
  const auto cpw = net.chips_per_wafer();
  EXPECT_EQ(net.num_chips(), 3 * cpw);
  // Chips are wafer-major; every node of a chip lives on the chip's wafer.
  for (ChipId c = 0; c < static_cast<ChipId>(net.num_chips()); ++c) {
    const int w = net.wafer_of_chip(c);
    EXPECT_EQ(w, static_cast<int>(static_cast<std::size_t>(c) / cpw));
    for (const NodeId n : net.chip_nodes(c))
      EXPECT_EQ(net.wafer_of_node(n), w);
  }
  // The aggregate topo carries the portal and bond tables: each column is
  // bonded all-pairs with vertical duplex cables.
  const auto& t = net.topo<topo::WaferStackTopo>();
  EXPECT_EQ(t.count, 3);
  EXPECT_EQ(static_cast<std::size_t>(t.chips_per_wafer), cpw);
  for (std::int32_t col = 0; col < t.chips_per_wafer; ++col) {
    for (int wa = 0; wa < 3; ++wa) {
      EXPECT_EQ(net.chip_of(t.portal(wa, col)),
                static_cast<ChipId>(wa * t.chips_per_wafer + col));
      for (int wb = 0; wb < 3; ++wb) {
        const ChanId c = t.vertical(col, wa, wb);
        if (wa == wb) {
          EXPECT_EQ(c, kInvalidChan);
          continue;
        }
        ASSERT_NE(c, kInvalidChan);
        const auto& ch = net.chan(c);
        EXPECT_EQ(ch.type, LinkType::Vertical);
        EXPECT_EQ(ch.src, t.portal(wa, col));
        EXPECT_EQ(ch.dst, t.portal(wb, col));
      }
    }
  }
  // The stack carries the doubled VC space: source classes [0,V), dest
  // classes [V,2V), the vertical class 2V.
  EXPECT_EQ(net.num_vcs(), 2 * t.child_num_vcs + 1);
}

TEST(WaferStructure, CrossWaferWalksCrossExactlyOneBond) {
  auto s = wafer_spec(2);
  sim::Network net;
  core::build_network(net, s);
  std::vector<NodeId> w0, w1;
  for (const NodeId t : net.terminals())
    (net.wafer_of_node(t) == 0 ? w0 : w1).push_back(t);
  ASSERT_FALSE(w0.empty());
  ASSERT_EQ(w0.size(), w1.size());
  int cross_walks = 0;
  for (std::size_t i = 0; i < w0.size(); i += 7) {
    for (std::size_t j = 0; j < w1.size(); j += 7) {
      const auto w = walk_route(net, w0[i], w1[j], -2);
      EXPECT_TRUE(w.delivered) << w0[i] << "->" << w1[j];
      EXPECT_EQ(w.vertical_hops, 1) << w0[i] << "->" << w1[j];
      ++cross_walks;
      // And the reverse direction.
      const auto r = walk_route(net, w1[j], w0[i], -2);
      EXPECT_TRUE(r.delivered);
      EXPECT_EQ(r.vertical_hops, 1);
    }
  }
  EXPECT_GT(cross_walks, 0);
  // Intra-wafer pairs never touch a bond.
  const auto w = walk_route(net, w0.front(), w0.back(), -2);
  EXPECT_TRUE(w.delivered);
  EXPECT_EQ(w.vertical_hops, 0);
}

// ---- W = 1 identity ------------------------------------------------------

TEST(WaferIdentity, W1BitIdenticalSweepVsPreWaferBuild) {
  auto classic = wafer_spec(0);
  classic.rates = {0.2, 0.5, 0.8};
  auto w1 = classic;
  w1.wafer_count = 1;
  const auto a = core::run_scenario(classic);
  const auto b = core::run_scenario(w1);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    expect_bit_identical(a.points[i].res, b.points[i].res);
    EXPECT_TRUE(audit_conservation(b.points[i].res));
    EXPECT_GT(a.points[i].res.delivered_total, 0u);
  }
}

// ---- stacked runs --------------------------------------------------------

TEST(WaferRun, DeterministicAcrossRepeatsAndShardsWithTrafficOnEveryWafer) {
  const auto s = wafer_spec(2);
  const auto serial = run_one(s);
  const auto repeat = run_one(s);
  auto sharded_spec = s;
  sharded_spec.sim.shards = 2;
  const auto sharded = run_one(sharded_spec);
  expect_bit_identical(serial, repeat);
  expect_bit_identical(serial, sharded);
  EXPECT_TRUE(serial.drained);
  EXPECT_TRUE(audit_conservation(serial));
  ASSERT_EQ(serial.wafer_delivered.size(), 2u);
  EXPECT_GT(serial.wafer_delivered[0], 0u);
  EXPECT_GT(serial.wafer_delivered[1], 0u);
}

// ---- vertical-cable faults -----------------------------------------------

TEST(WaferFaults, VerticalKindFailsOnlyBondsAndNestsAcrossRates) {
  const auto inject = [](double rate) {
    auto s = wafer_spec(3);
    sim::Network net;
    core::build_network(net, s);
    FaultSpec f;
    f.rate = rate;
    f.kind = FaultKind::Vertical;
    f.seed = 42;
    const auto rep = topo::inject_faults(net, f);
    EXPECT_GT(rep.candidate_cables, 0u);
    const auto dead = dead_channels(net);
    for (const ChanId c : dead)
      EXPECT_EQ(net.chan(c).type, LinkType::Vertical);
    return dead;
  };
  const auto low = inject(0.2);
  const auto high = inject(0.5);
  EXPECT_GT(low.size(), 0u);
  EXPECT_GT(high.size(), low.size());
  EXPECT_TRUE(
      std::includes(high.begin(), high.end(), low.begin(), low.end()));
  // Same seed, same rate: the same set both times.
  EXPECT_EQ(inject(0.2), inject(0.2));
}

TEST(WaferFaults, PartialBondLossDetoursThroughAlternateColumns) {
  // Half the bonds dead: every cross-wafer pair must still deliver over a
  // live column, still with exactly one vertical hop.
  auto s = wafer_spec(2);
  s.rates = {0.05};  // below the halved cross-wafer bond bandwidth
  s.fault.rate = 0.5;
  s.fault.kind = FaultKind::Vertical;
  s.fault.seed = 7;
  sim::Network net;
  core::build_network(net, s);
  const auto audit = topo::audit_fault_routing(net);
  EXPECT_TRUE(audit.all_reachable()) << audit.to_string();
  const auto r = run_one(s);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(audit_conservation(r));
}

TEST(WaferFaults, OnlineVerticalFailRepairAccountsEveryTornPacket) {
  // A mid-run vertical fault wave, repaired later: rescue-mode rescues
  // exactly the packets drop-mode drops, both runs drain, and both close
  // the per-wafer ledger.
  auto s = wafer_spec(2);
  s.rates = {0.1};
  s.fault.seed = 5;
  s.fault.events = "fail@250:vertical=0.8;repair@700:vertical=0";
  auto sd = s;
  sd.fault.rescue = false;
  const auto rescued = run_one(s);
  const auto dropped = run_one(sd);
  EXPECT_TRUE(rescued.drained);
  EXPECT_TRUE(dropped.drained);
  EXPECT_EQ(rescued.dropped_packets, 0u);
  EXPECT_EQ(dropped.rescued_packets, 0u);
  EXPECT_EQ(dropped.dropped_packets, rescued.rescued_packets);
  EXPECT_TRUE(audit_conservation(rescued));
  EXPECT_TRUE(audit_conservation(dropped));
  // The online path stays deterministic under the sharded engine.
  auto sh = s;
  sh.sim.shards = 2;
  expect_bit_identical(rescued, run_one(sh));
}

TEST(WaferFaults, SeveredStackIsReportedNotCrashed) {
  // Every vertical bond dead: the stack partitions into W isolated wafers.
  // The audit reports the cross-wafer pairs as unreachable/dead-link walks
  // and the engine runs to its cycle budget with the ledger closed —
  // degraded operation is a result, not a crash.
  auto s = wafer_spec(2);
  s.fault.rate = 1.0;
  s.fault.kind = FaultKind::Vertical;
  s.fault.seed = 3;
  sim::Network net;
  core::build_network(net, s);
  const auto audit = topo::audit_fault_routing(net);
  EXPECT_FALSE(audit.all_reachable());
  EXPECT_GT(audit.unreachable, 0u);
  // Intra-wafer pairs are untouched: most pairs still deliver (a severed
  // cross-wafer walk can count as both unreachable and a dead-link use,
  // so only `unreachable` is compared against the pair count).
  EXPECT_LT(audit.unreachable, audit.pairs);
  EXPECT_EQ(audit.skipped_dead, 0u);  // no endpoint died, only bonds

  auto r = run_one(s);
  EXPECT_FALSE(r.drained);  // cross-wafer packets are pinned forever
  EXPECT_GT(r.inflight_packets, 0u);
  EXPECT_GT(r.delivered_total, 0u);  // intra-wafer traffic still flows
  EXPECT_TRUE(audit_conservation(r));
}

// ---- axis exclusivity ----------------------------------------------------

TEST(WaferExclusivity, PlanesAndWafersRejectedAtBothLayers) {
  auto s = wafer_spec(2);
  s.plane_count = 2;
  sim::Network net;
  EXPECT_THROW(core::build_network(net, s), std::invalid_argument);

  sim::Network n1;
  n1.begin_wafer();
  EXPECT_THROW(n1.begin_plane(), std::logic_error);
  sim::Network n2;
  n2.begin_plane();
  EXPECT_THROW(n2.begin_wafer(), std::logic_error);
}

// ---- scenario keys -------------------------------------------------------

TEST(WaferScenarioKeys, RoundTripThroughKv) {
  core::ScenarioSpec s;
  s.set("wafer.count", "2");
  s.set("wafer.latency", "3");
  s.set("wafer.width", "1/4");
  EXPECT_EQ(s.wafer_count, 2);
  EXPECT_EQ(s.wafer_latency, 3);
  EXPECT_EQ(s.wafer_width_num, 1);
  EXPECT_EQ(s.wafer_width_den, 4);

  const auto kv = s.to_kv();
  EXPECT_EQ(kv.at("wafer.count"), "2");
  EXPECT_EQ(kv.at("wafer.latency"), "3");
  EXPECT_EQ(kv.at("wafer.width"), "1/4");
  const auto back = core::ScenarioSpec::from_kv(kv);
  EXPECT_EQ(back.wafer_count, 2);
  EXPECT_EQ(back.wafer_latency, 3);
  EXPECT_EQ(back.wafer_width_num, 1);
  EXPECT_EQ(back.wafer_width_den, 4);

  // Unset wafer keys must not appear in the kv form at all.
  const auto plain_kv = core::ScenarioSpec{}.to_kv();
  EXPECT_EQ(plain_kv.count("wafer.count"), 0u);
  EXPECT_EQ(plain_kv.count("wafer.latency"), 0u);
  EXPECT_EQ(plain_kv.count("wafer.width"), 0u);
}

TEST(WaferScenarioKeys, RejectsInvalidValues) {
  core::ScenarioSpec s;
  EXPECT_THROW(s.set("wafer.count", "0"), std::invalid_argument);
  EXPECT_THROW(s.set("wafer.count", "many"), std::invalid_argument);
  EXPECT_THROW(s.set("wafer.latency", "0"), std::invalid_argument);
  EXPECT_THROW(s.set("wafer.width", "0/2"), std::invalid_argument);
  EXPECT_THROW(s.set("wafer.width", "1/0"), std::invalid_argument);
  EXPECT_THROW(s.set("wafer.width", "x"), std::invalid_argument);
}

// ---- packed-width capacity guards ----------------------------------------

namespace {

/// Trivial two-node routing for the capacity-guard builds.
class PairRouting final : public sim::RoutingAlgorithm {
 public:
  void init_packet(const sim::Network&, sim::Packet& pkt, Rng&) override {
    pkt.vc_class = 0;
  }
  sim::RouteDecision route(const sim::Network& net, NodeId router, PortIx,
                           sim::Packet& pkt) override {
    if (router == pkt.dst) return {net.router(router).eject_port, 0};
    return {0, 0};
  }
  const char* name() const override { return "pair"; }
};

/// Two terminals joined by a duplex channel, finalized with the given VC
/// geometry.
void finalize_pair(sim::Network& net, int nvcs, int buf) {
  const NodeId a = net.add_router(NodeKind::Core);
  const NodeId b = net.add_router(NodeKind::Core);
  net.add_duplex(a, b, LinkType::OnChip, 1);
  net.make_terminal(a, 0);
  net.make_terminal(b, 1);
  net.set_routing(std::make_unique<PairRouting>());
  net.finalize(nvcs, buf);
}

}  // namespace

TEST(PackedCapacity, FinalizeRejectsOversizedFieldsWithTypedError) {
  // The packed port record narrows vc_buf to 15 bits and num_vcs to 8: a
  // build that would silently truncate counters mid-run must instead fail
  // finalize with a ScenarioError naming the limit.
  {
    sim::Network net;
    try {
      finalize_pair(net, 1, 40000);
      FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what())
                    .find("exceeds the packed credit width (max 32767)"),
                std::string::npos)
          << e.what();
    }
  }
  {
    sim::Network net;
    try {
      finalize_pair(net, 300, 32);
      FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what())
                    .find("exceeds the packed VC width (max 255)"),
                std::string::npos)
          << e.what();
    }
  }
  // The limits themselves are fine.
  sim::Network ok;
  finalize_pair(ok, 255, 32767);
  EXPECT_EQ(ok.num_vcs(), 255);
  EXPECT_EQ(ok.vc_buf(), 32767);
}
