// White-box tests of the simulation engine: hand-built micro-networks
// exercising credit flow control, wormhole ordering, bandwidth tokens,
// latency accounting, and backpressure.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "test_fixtures.hpp"
#include "traffic/pattern.hpp"

using namespace sldf;
using namespace sldf::sim;
using sldf::testing::expect_bit_identical;

namespace {

/// Two terminals joined by a duplex channel; trivial routing.
class PairRouting final : public RoutingAlgorithm {
 public:
  void init_packet(const Network&, Packet& pkt, Rng&) override {
    pkt.vc_class = 0;
  }
  RouteDecision route(const Network& net, NodeId router, PortIx,
                      Packet& pkt) override {
    const auto& r = net.router(router);
    if (router == pkt.dst) return {r.eject_port, 0};
    // The only non-eject output port is port 0 (the channel).
    return {0, 0};
  }
  const char* name() const override { return "pair"; }
};

/// Everyone at node 0 sends to node 1.
class FixedTraffic final : public TrafficSource {
 public:
  explicit FixedTraffic(NodeId dst) : dst_(dst) {}
  NodeId dest(const Network&, NodeId src, Rng&) override {
    return src == dst_ ? kInvalidNode : dst_;
  }
  const char* name() const override { return "fixed"; }

 private:
  NodeId dst_;
};

/// Builds the 2-node pair network with the given channel parameters.
void build_pair(Network& net, int latency, int wnum, int wden, int nvcs = 1,
                int buf = 32) {
  const NodeId a = net.add_router(NodeKind::Core);
  const NodeId b = net.add_router(NodeKind::Core);
  net.add_duplex(a, b, LinkType::OnChip, latency, wnum, wden);
  net.make_terminal(a, 0);
  net.make_terminal(b, 1);
  net.set_routing(std::make_unique<PairRouting>());
  net.finalize(nvcs, buf);
}

}  // namespace

TEST(SimCore, ZeroLoadLatencyIsDeterministic) {
  Network net;
  build_pair(net, /*latency=*/1, 1, 1);
  SimConfig cfg;
  cfg.inj_rate_per_chip = 0.01;
  cfg.pkt_len = 4;
  cfg.warmup = 200;
  cfg.measure = 2000;
  cfg.drain = 200;
  FixedTraffic tr(1);
  const auto r1 = run_sim(net, cfg, tr);
  const auto r2 = run_sim(net, cfg, tr);
  EXPECT_EQ(r1.avg_latency, r2.avg_latency);
  EXPECT_EQ(r1.delivered_measured, r2.delivered_measured);
  // Zero-load: inject 4 flits (4 cycles), 1 link cycle, 1 router cycle,
  // eject tail. Latency must be small and constant.
  EXPECT_GE(r1.avg_latency, 4.0);
  EXPECT_LT(r1.avg_latency, 12.0);
  EXPECT_TRUE(r1.drained);
}

// Channel::latency is 8 bits wide: a longer latency must fail the build
// instead of wrapping (300 cycles would run as 44).
TEST(SimCore, ChannelLatencyFitsItsEightBits) {
  Network net;
  const NodeId a = net.add_router(NodeKind::Core);
  const NodeId b = net.add_router(NodeKind::Core);
  EXPECT_THROW(net.add_channel(a, b, LinkType::OnChip, 0),
               std::invalid_argument);
  EXPECT_THROW(net.add_channel(a, b, LinkType::OnChip, 256),
               std::invalid_argument);
  EXPECT_EQ(net.chan(net.add_channel(a, b, LinkType::OnChip, 255)).latency,
            255);
}

TEST(SimCore, LatencyGrowsWithChannelLatency) {
  double lat[2];
  for (int i = 0; i < 2; ++i) {
    Network net;
    build_pair(net, i == 0 ? 1 : 8, 1, 1);
    SimConfig cfg;
    cfg.inj_rate_per_chip = 0.01;
    cfg.warmup = 100;
    cfg.measure = 1000;
    FixedTraffic tr(1);
    lat[i] = run_sim(net, cfg, tr).avg_latency;
  }
  EXPECT_NEAR(lat[1] - lat[0], 7.0, 0.5);  // +7 cycles of pipeline
}

TEST(SimCore, ThroughputCapsAtChannelWidth) {
  // Offered 1.0 flit/cycle/chip into a full-width channel: all accepted.
  // With a 1/2-width channel, accepted saturates near 0.5.
  for (const auto& [wnum, wden, expect] :
       {std::tuple{1, 1, 1.0}, std::tuple{1, 2, 0.5}, std::tuple{3, 4, 0.75}}) {
    Network net;
    build_pair(net, 1, wnum, wden);
    SimConfig cfg;
    cfg.inj_rate_per_chip = 1.0;
    cfg.warmup = 500;
    cfg.measure = 4000;
    cfg.drain = 0;
    FixedTraffic tr(1);
    const auto r = run_sim(net, cfg, tr);
    // Only chip 0 sends; accepted is normalized over 2 chips.
    EXPECT_NEAR(r.accepted * 2.0, expect, 0.05)
        << "width " << wnum << "/" << wden;
  }
}

TEST(SimCore, FractionalWidthAveragesExactly) {
  Network net;
  build_pair(net, 1, 2, 3);
  SimConfig cfg;
  cfg.inj_rate_per_chip = 1.0;
  cfg.warmup = 600;
  cfg.measure = 6000;
  cfg.drain = 0;
  FixedTraffic tr(1);
  const auto r = run_sim(net, cfg, tr);
  EXPECT_NEAR(r.accepted * 2.0, 2.0 / 3.0, 0.02);
}

TEST(SimCore, BackpressureNeverOverflowsBuffers) {
  // Tiny buffers + saturating load: the credit protocol must hold (the
  // delivery assert fires in debug builds when it does not) and all
  // measured packets eventually drain.
  Network net;
  build_pair(net, 4, 1, 1, /*nvcs=*/2, /*buf=*/6);
  SimConfig cfg;
  cfg.inj_rate_per_chip = 1.0;
  cfg.warmup = 200;
  cfg.measure = 1000;
  cfg.drain = 5000;
  FixedTraffic tr(1);
  const auto r = run_sim(net, cfg, tr);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.delivered_measured, r.generated_measured);
  EXPECT_TRUE(sldf::testing::audit_conservation(r));
}

TEST(SimCore, HopCountsRecordLinkType) {
  Network net;
  const NodeId a = net.add_router(NodeKind::Core);
  const NodeId m = net.add_router(NodeKind::Switch);
  const NodeId b = net.add_router(NodeKind::Core);
  net.add_duplex(a, m, LinkType::ShortReach, 1);
  net.add_duplex(m, b, LinkType::LongReachGlobal, 8);
  net.make_terminal(a, 0);
  net.make_terminal(b, 1);

  // Simple forwarding: switch forwards toward b, terminals eject/send.
  class Fwd final : public RoutingAlgorithm {
   public:
    void init_packet(const Network&, Packet& pkt, Rng&) override {
      pkt.vc_class = 0;
    }
    RouteDecision route(const Network& net, NodeId router, PortIx in_port,
                        Packet& pkt) override {
      const auto& r = net.router(router);
      if (router == pkt.dst) return {r.eject_port, 0};
      if (r.kind == NodeKind::Switch)
        return {in_port == 0 ? static_cast<PortIx>(1) : static_cast<PortIx>(0),
                0};
      return {0, 0};
    }
    const char* name() const override { return "fwd"; }
  };
  net.set_routing(std::make_unique<Fwd>());
  net.finalize(1, 32);

  SimConfig cfg;
  cfg.inj_rate_per_chip = 0.05;
  cfg.warmup = 100;
  cfg.measure = 1000;
  FixedTraffic tr(b);
  const auto r = run_sim(net, cfg, tr);
  ASSERT_GT(r.delivered_measured, 0u);
  EXPECT_DOUBLE_EQ(r.avg_hops[static_cast<int>(LinkType::ShortReach)], 1.0);
  EXPECT_DOUBLE_EQ(r.avg_hops[static_cast<int>(LinkType::LongReachGlobal)],
                   1.0);
  EXPECT_DOUBLE_EQ(r.avg_hops_total, 2.0);
}

TEST(SimCore, SourceQueueCapSuppresses) {
  Network net;
  build_pair(net, 1, 1, 4);  // narrow link, heavy offered load
  SimConfig cfg;
  cfg.inj_rate_per_chip = 2.0;
  cfg.warmup = 100;
  cfg.measure = 2000;
  cfg.drain = 0;
  cfg.max_src_queue = 8;
  FixedTraffic tr(1);
  const auto r = run_sim(net, cfg, tr);
  EXPECT_GT(r.suppressed, 0u);
}

TEST(SimCore, MeasurementWindowOnlyCountsMeasuredPackets) {
  Network net;
  build_pair(net, 1, 1, 1);
  SimConfig cfg;
  cfg.inj_rate_per_chip = 0.2;
  cfg.warmup = 500;
  cfg.measure = 1000;
  cfg.drain = 500;
  FixedTraffic tr(1);
  const auto r = run_sim(net, cfg, tr);
  // Measured generation: rate 0.2 flits/cycle/chip = 0.05 pkt/cycle from
  // the single sender over 1000 cycles => ~50 packets.
  EXPECT_NEAR(static_cast<double>(r.generated_measured), 50.0, 20.0);
  EXPECT_EQ(r.delivered_measured, r.generated_measured);
}

TEST(SimCore, NetworkValidationThrows) {
  Network net;
  build_pair(net, 1, 1, 1);
  SimConfig cfg;
  FixedTraffic tr(1);
  Network empty;
  EXPECT_THROW(Simulator(empty, cfg, tr), std::logic_error);
}

TEST(SimCore, FifoArenaRing) {
  FlitFifoArena a;
  a.init(/*num_fifos=*/3, /*capacity=*/4, /*meta_init=*/0);
  EXPECT_TRUE(a.empty(1));
  for (std::uint32_t i = 0; i < 4; ++i)
    a.push(1, Flit(i, i == 0, i == 3));
  EXPECT_TRUE(a.full(1));
  EXPECT_TRUE(a.empty(0));  // neighbours unaffected
  EXPECT_TRUE(a.empty(2));
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.front(1).pkt(), i);
    EXPECT_EQ(a.front(1).head(), i == 0);
    EXPECT_EQ(a.front(1).tail(), i == 3);
    a.pop(1);
  }
  EXPECT_TRUE(a.empty(1));
  // Wrap-around.
  for (std::uint32_t i = 0; i < 3; ++i) a.push(1, Flit(i, false, false));
  a.pop(1);
  a.push(1, Flit(3, false, false));
  EXPECT_EQ(a.size(1), 3u);
  EXPECT_EQ(a.pop(1).pkt(), 1u);
}

TEST(SimCore, FifoArenaNonPowerOfTwoCapacity) {
  // Logical capacity stays exactly as configured; only the storage stride
  // is rounded up to a power of two.
  FlitFifoArena a;
  a.init(2, 6, /*meta_init=*/0x1234u);
  EXPECT_EQ(a.meta(0), 0x1234u);
  EXPECT_EQ(a.capacity(), 6u);
  EXPECT_EQ(a.stride(), 8u);
  for (std::uint32_t i = 0; i < 6; ++i) a.push(0, Flit(i, false, false));
  EXPECT_TRUE(a.full(0));
  // Many push/pop rounds to exercise wrap at the (rounded) stride while
  // full() still triggers at the logical capacity.
  for (std::uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(a.pop(0).pkt() % 6, i % 6);
    a.push(0, Flit((i + 6) % 6, false, false));
    EXPECT_TRUE(a.full(0));
  }
  // Metadata rides in the same control word but is independent of the ring.
  a.set_meta(0, 0xdeadbeefu);
  EXPECT_EQ(a.meta(0), 0xdeadbeefu);
  EXPECT_TRUE(a.full(0));
  a.reset(/*meta_init=*/0x1234u);
  EXPECT_TRUE(a.empty(0));
  EXPECT_EQ(a.meta(0), 0x1234u);
}

namespace {

SimConfig determinism_cfg() {
  SimConfig cfg;
  cfg.inj_rate_per_chip = 0.6;  // busy enough for real contention
  cfg.warmup = 300;
  cfg.measure = 1500;
  cfg.drain = 800;
  cfg.seed = 42;
  return cfg;
}

}  // namespace

TEST(SimCore, SameSeedBitIdenticalAcrossRepeatedRuns) {
  Network net;
  build_pair(net, 4, 1, 1, /*nvcs=*/2, /*buf=*/6);
  const SimConfig cfg = determinism_cfg();
  FixedTraffic tr(1);
  const auto r1 = run_sim(net, cfg, tr);
  const auto r2 = run_sim(net, cfg, tr);
  ASSERT_GT(r1.delivered_measured, 0u);
  expect_bit_identical(r1, r2);
}

TEST(SimCore, ReusedContextBitIdenticalToFreshContext) {
  Network net;
  build_pair(net, 4, 1, 1, /*nvcs=*/2, /*buf=*/6);
  const SimConfig cfg = determinism_cfg();
  FixedTraffic tr(1);
  SimContext ctx;
  // First run warms the context; the second reuses its arenas. Both must
  // match a one-shot-context run exactly, including after
  // reset_dynamic_state() cleared a dirty network.
  const auto warm = run_sim(ctx, net, cfg, tr);
  const auto reused = run_sim(ctx, net, cfg, tr);
  const auto fresh = run_sim(net, cfg, tr);
  expect_bit_identical(warm, reused);
  expect_bit_identical(warm, fresh);
}

TEST(SimCore, SerialAndParallelSweepsBitIdentical) {
  core::ScenarioSpec spec;
  spec.topology = "tiny-swless";
  spec.rates = {0.1, 0.4, 0.8};
  spec.sim = determinism_cfg();
  spec.stop_latency_factor = 0.0;  // keep every point in both runs
  const auto serial = core::run_scenario(spec, 1);
  const auto parallel = core::run_scenario(spec, 4);
  ASSERT_EQ(serial.points.size(), 3u);
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].rate, parallel.points[i].rate);
    expect_bit_identical(serial.points[i].res, parallel.points[i].res);
  }
}

// ------------------------------------------------- idle-skip fast path ---

TEST(IdleSkip, NextGenOverflowGuardAtExactBoundaries) {
  // advance_next_gen() must saturate to the "terminal dead" sentinel
  // (~0ULL) exactly when `when + 1 + skip` would reach or pass it, and
  // stay one conservative step short of producing the sentinel as a
  // legitimate arrival time. Pin the guard at the boundary values so a
  // refactor that swaps the comparison for the naive `when + 1 + skip`
  // (UB-prone and sentinel-colliding) fails loudly.
  constexpr Cycle kDead = ~0ULL;
  // Smallest overflowing skip: when + 1 + skip == kDead.
  EXPECT_EQ(advance_next_gen(0, kDead - 1), kDead);
  EXPECT_EQ(advance_next_gen(100, kDead - 101), kDead);
  // One below the boundary: largest representable legitimate arrival.
  EXPECT_EQ(advance_next_gen(0, kDead - 2), kDead - 1);
  EXPECT_EQ(advance_next_gen(100, kDead - 102), kDead - 1);
  // Far past the boundary (geometric_skip can return anything).
  EXPECT_EQ(advance_next_gen(0, kDead), kDead);
  EXPECT_EQ(advance_next_gen(kDead - 1, 0), kDead);
  EXPECT_EQ(advance_next_gen(kDead - 2, 0), kDead - 1);
  // Normal small values are untouched.
  EXPECT_EQ(advance_next_gen(10, 5), 16u);
  EXPECT_EQ(advance_next_gen(0, 0), 1u);
}

namespace {

/// Runs `cfg` twice — idle_skip on and off — and checks the SimResults
/// are field-for-field identical (including order-sensitive fp stats).
void expect_skip_transparent(Network& net, SimConfig cfg,
                             TrafficSource& tr) {
  cfg.idle_skip = false;
  const auto scan = run_sim(net, cfg, tr);
  cfg.idle_skip = true;
  const auto skip = run_sim(net, cfg, tr);
  // A vacuously-empty run (NaN latencies) can't certify anything.
  ASSERT_GT(scan.delivered_measured, 0u);
  expect_bit_identical(scan, skip);
}

}  // namespace

TEST(IdleSkip, LowLoadSweepBitIdenticalToCycleByCycle) {
  // Low load is where the elided-cycle fraction is highest; every skipped
  // stretch must be a provable no-op.
  Network net;
  build_pair(net, 4, 1, 1, /*nvcs=*/2, /*buf=*/6);
  FixedTraffic tr(1);
  for (const double rate : {0.001, 0.01, 0.05}) {
    SimConfig cfg = determinism_cfg();
    cfg.inj_rate_per_chip = rate;
    expect_skip_transparent(net, cfg, tr);
  }
}

TEST(IdleSkip, DrainTailBitIdenticalWithLongQuietGaps) {
  // A long drain window after generation stops is almost entirely idle:
  // the drain loop must skip through it yet report the same drained
  // budget, `cycles_run`, and drain success as the stepping engine.
  Network net;
  build_pair(net, 8, 1, 2, /*nvcs=*/2, /*buf=*/4);
  FixedTraffic tr(1);
  SimConfig cfg = determinism_cfg();
  cfg.inj_rate_per_chip = 0.08;
  cfg.measure = 800;
  cfg.drain = 5000;  // far longer than the in-flight tail needs
  expect_skip_transparent(net, cfg, tr);
}

TEST(IdleSkip, FaultTimelineQuietGapBitIdenticalAndCheckpointEqual) {
  // Fault steps are engine events the skip must not jump over: a fail /
  // repair pair separated from the traffic by a long quiet gap has to
  // fire at its exact cycle (repair re-arms generation), and a
  // checkpoint taken inside the gap must serialize the identical bytes
  // whether the engine stepped or skipped to it — derived generation
  // state is rebuilt on restore, never stored.
  core::ScenarioSpec s;
  s.topology = "tiny-swless";
  s.traffic = "uniform";
  s.sim.warmup = 100;
  s.sim.measure = 600;
  s.sim.drain = 2000;
  s.sim.seed = 11;
  s.sim.inj_rate_per_chip = 0.01;
  s.fault.seed = 5;
  s.fault.events = "fail@150:local=0.3;repair@600:local=0";

  const auto run_one = [&](bool idle_skip) {
    Network net;
    core::build_network(net, s);
    const auto pat = traffic::make_pattern("uniform", net, {});
    SimConfig cfg = s.sim;
    cfg.idle_skip = idle_skip;
    Simulator sim(net, cfg, *pat);
    return sim.run();
  };
  const auto scan = run_one(false);
  const auto skip = run_one(true);
  expect_bit_identical(scan, skip);

  // Checkpoint bytes at cycle 400 (inside the fail window, before the
  // repair): stepping engine vs skipping engine.
  const auto checkpoint_at = [&](bool idle_skip, Cycle at) {
    Network net;
    core::build_network(net, s);
    const auto pat = traffic::make_pattern("uniform", net, {});
    SimConfig cfg = s.sim;
    cfg.idle_skip = idle_skip;
    Simulator sim(net, cfg, *pat);
    while (sim.now() < at) {
      if (idle_skip) {
        sim.try_skip_idle(at);
        if (sim.now() >= at) break;
      }
      sim.step();
    }
    EXPECT_EQ(sim.now(), at);
    std::stringstream ck;
    sim.save_checkpoint(ck);
    return ck.str();
  };
  EXPECT_EQ(checkpoint_at(false, 400), checkpoint_at(true, 400));
}
