// Sharded-engine determinism suite: fixed-seed SimResults must be
// bit-identical across shards=1 (the serial engine), shards=N, auto shards
// behind the per-cycle work gate, and repeat runs — open loop in every
// routing mode, on both fabrics, with faults armed, and under the
// closed-loop workload runner — plus the partition invariants of
// Network::shard_bounds, the resolve_shards convention, and the gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>

#include "common/thread_pool.hpp"
#include "core/scenario.hpp"
#include "test_fixtures.hpp"
#include "topo/faults.hpp"
#include "traffic/pattern.hpp"
#include "workload/collectives.hpp"
#include "workload/workload.hpp"

using namespace sldf;
using namespace sldf::testing;
using route::RouteMode;
using route::VcScheme;

namespace {

sim::SimConfig short_cfg(int shards) {
  sim::SimConfig sc;
  sc.inj_rate_per_chip = 0.4;
  sc.warmup = 300;
  sc.measure = 700;
  sc.drain = 400;
  sc.seed = 11;
  sc.shards = shards;
  return sc;
}

/// One fixed-seed uniform-traffic point on `net` with `shards` shards.
sim::SimResult run_point(sim::Network& net, int shards,
                         double rate = 0.4) {
  sim::SimConfig sc = short_cfg(shards);
  sc.inj_rate_per_chip = rate;
  auto traffic = traffic::make_pattern("uniform", net, {});
  return sim::run_sim(net, sc, *traffic);
}

sim::Network tiny_net(RouteMode mode = RouteMode::Minimal,
                      bool fault_tolerant = false) {
  sim::Network net;
  auto p = tiny_swless_params(VcScheme::Baseline, mode);
  p.fault_tolerant = fault_tolerant;
  topo::build_swless_dragonfly(net, p);
  return net;
}

}  // namespace

// ---- partition invariants ------------------------------------------------

TEST(ShardBounds, CoversAndMonotone) {
  auto net = tiny_net();
  for (const int s : {1, 2, 3, 5, 8}) {
    const auto b = net.shard_bounds(s);
    ASSERT_EQ(b.size(), static_cast<std::size_t>(s) + 1);
    EXPECT_EQ(b.front(), 0u);
    EXPECT_EQ(b.back(), static_cast<std::uint32_t>(net.num_routers()));
    for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LE(b[i - 1], b[i]);
  }
}

TEST(ShardBounds, NeverSplitsAChip) {
  auto net = tiny_net();
  for (const int s : {2, 3, 4, 7}) {
    const auto b = net.shard_bounds(s);
    // A chip's nodes all fall into the same shard range.
    for (std::size_t chip = 0; chip < net.num_chips(); ++chip) {
      std::set<std::size_t> shard_ids;
      for (const NodeId n : net.chip_nodes(static_cast<ChipId>(chip))) {
        std::size_t k = 0;
        while (static_cast<std::uint32_t>(n) >= b[k + 1]) ++k;
        shard_ids.insert(k);
      }
      EXPECT_EQ(shard_ids.size(), 1u) << "chip " << chip << " split";
    }
  }
}

TEST(ShardBounds, RoughlyBalancedByPorts) {
  auto net = tiny_net();
  const auto b = net.shard_bounds(3);
  // Chip snapping skews the port split; it must stay within a factor ~2
  // of the ideal third on this (uniform) topology.
  const auto ports_of = [&](std::size_t k) {
    std::uint32_t ports = 0;
    for (std::uint32_t r = b[k]; r < b[k + 1]; ++r)
      ports += net.num_out_ports_of(static_cast<NodeId>(r));
    return ports;
  };
  const std::uint32_t ideal = net.num_out_ports() / 3;
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_GT(ports_of(k), ideal / 2);
    EXPECT_LT(ports_of(k), ideal * 2);
  }
}

TEST(ShardBounds, RequiresFinalizeAndValidCount) {
  sim::Network net;
  EXPECT_THROW(net.shard_bounds(2), std::logic_error);
  auto built = tiny_net();
  EXPECT_THROW(built.shard_bounds(0), std::invalid_argument);
}

// ---- resolve_shards ------------------------------------------------------

namespace {

/// Sets (or, with nullptr, unsets) SLDF_SHARDS for one scope and restores
/// the caller's value after it — CI re-runs this suite under
/// SLDF_SHARDS=2, and later tests must still see that.
class ScopedShardsEnv {
 public:
  explicit ScopedShardsEnv(const char* value) {
    if (const char* old = std::getenv("SLDF_SHARDS")) saved_ = old;
    had_ = std::getenv("SLDF_SHARDS") != nullptr;
    if (value)
      setenv("SLDF_SHARDS", value, 1);
    else
      unsetenv("SLDF_SHARDS");
  }
  ~ScopedShardsEnv() {
    if (had_)
      setenv("SLDF_SHARDS", saved_.c_str(), 1);
    else
      unsetenv("SLDF_SHARDS");
  }
  ScopedShardsEnv(const ScopedShardsEnv&) = delete;
  ScopedShardsEnv& operator=(const ScopedShardsEnv&) = delete;

 private:
  std::string saved_;
  bool had_ = false;
};

}  // namespace

TEST(ResolveShards, ExplicitEnvAndAutoConvention) {
  ScopedShardsEnv env(nullptr);
  EXPECT_EQ(sim::resolve_shards(1), 1);
  EXPECT_EQ(sim::resolve_shards(4), 4);
  // auto: the usable cores (or the caller's core budget).
  EXPECT_EQ(sim::resolve_shards(0), static_cast<int>(usable_cores()));
  EXPECT_EQ(sim::resolve_shards(0, 5), 5);
  EXPECT_EQ(sim::resolve_shards(0, 1), 1);
  setenv("SLDF_SHARDS", "3", 1);
  EXPECT_EQ(sim::resolve_shards(0), 3);     // env beats the cores
  EXPECT_EQ(sim::resolve_shards(0, 1), 3);  // ... and a core budget
  EXPECT_EQ(sim::resolve_shards(2), 2);     // explicit beats env
  setenv("SLDF_SHARDS", "garbage", 1);
  EXPECT_EQ(sim::resolve_shards(0, 6), 6);
  setenv("SLDF_SHARDS", "-2", 1);
  EXPECT_EQ(sim::resolve_shards(0, 6), 6);
}

TEST(ResolveShards, ClampedToChipCount) {
  auto net = tiny_net();
  sim::SimConfig sc = short_cfg(10000);
  auto traffic = traffic::make_pattern("uniform", net, {});
  net.reset_dynamic_state();
  sim::Simulator s(net, sc, *traffic);
  EXPECT_EQ(s.shards(), static_cast<int>(net.num_chips()));
}

TEST(ResolveShards, AutoIsUsableCoresClampedToChips) {
  ScopedShardsEnv env(nullptr);
  auto net = tiny_net();
  auto traffic = traffic::make_pattern("uniform", net, {});
  net.reset_dynamic_state();
  const sim::Simulator s(net, short_cfg(0), *traffic);
  EXPECT_EQ(s.shards(), std::min(static_cast<int>(usable_cores()),
                                 static_cast<int>(net.num_chips())));
}

TEST(ResolveShards, SweepWorkersResolveAutoToOne) {
  ScopedShardsEnv env(nullptr);
  core::SweepConfig cfg;
  cfg.rates = {0.1, 0.2};
  cfg.base.seed = 7;
  const sim::SimConfig serial = core::point_config(cfg, 1, 1);
  EXPECT_EQ(serial.shards, 0);  // a lone worker keeps auto
  EXPECT_EQ(serial.seed, 8u);
  EXPECT_EQ(serial.inj_rate_per_chip, 0.2);
  EXPECT_EQ(core::point_config(cfg, 0, 2).shards, 1);
  cfg.base.shards = 3;  // explicit counts are honoured
  EXPECT_EQ(core::point_config(cfg, 0, 2).shards, 3);
  cfg.base.shards = 0;
  setenv("SLDF_SHARDS", "2", 1);  // so is the env override
  EXPECT_EQ(core::point_config(cfg, 0, 2).shards, 2);
}

// ---- per-cycle work gate -------------------------------------------------

TEST(ShardGate, SmallFabricAutoNeverStartsTheTeam) {
  ScopedShardsEnv env(nullptr);
  auto net = tiny_net();
  ASSERT_LT(net.num_routers(), sim::kShardGateRouters);
  auto traffic = traffic::make_pattern("uniform", net, {});
  net.reset_dynamic_state();
  sim::Simulator s(net, short_cfg(0), *traffic);
  const sim::SimResult r = s.run();
  EXPECT_EQ(r.phases.parallel_cycles, 0u);
  EXPECT_GT(r.phases.serial_cycles, 0u);
  EXPECT_FALSE(s.team_started());
}

namespace {

/// One run of the gate-crossing spec, stepped by hand so the parallel /
/// serial decision of every cycle is visible.
struct GateRun {
  sim::SimResult res;
  std::string mid_checkpoint;
  std::vector<bool> parallel;  ///< Per stepped cycle.
};

/// radix16-swless g=21 (4704 routers) at 0.5: the snapshot climbs past
/// the gate during warmup (~cycle 30) and falls back below it once
/// generation stops at cycle 100 (~cycle 110). Each run builds its own
/// network: checkpoints carry the raw FIFO arena, stale slots included.
GateRun gate_run(int shards) {
  core::ScenarioSpec spec;
  spec.topology = "radix16-swless";
  spec.set("topo.g", "21");
  sim::Network net;
  core::build_network(net, spec);
  auto traffic = traffic::make_pattern("uniform", net, {});
  sim::SimConfig sc;
  sc.inj_rate_per_chip = 0.5;
  sc.warmup = 40;
  sc.measure = 40;
  sc.drain = 20;
  sc.seed = 3;
  sc.shards = shards;
  sim::Simulator s(net, sc, *traffic);
  GateRun out;
  while (s.now() < 130) {
    if (s.now() == 70) {
      std::ostringstream ck;
      s.save_checkpoint(ck);
      out.mid_checkpoint = ck.str();
    }
    const std::uint64_t before = s.phases().parallel_cycles;
    s.step();
    out.parallel.push_back(s.phases().parallel_cycles != before);
  }
  out.res = s.run();  // the drain of whatever is left
  return out;
}

}  // namespace

TEST(ShardGate, CrossingBothWaysBitIdentical) {
  ScopedShardsEnv env(nullptr);
  const GateRun serial = gate_run(1);
  const GateRun sh2 = gate_run(2);
  const GateRun automatic = gate_run(0);
  for (const GateRun* r : {&sh2, &automatic}) {
    expect_bit_identical(serial.res, r->res);
    EXPECT_TRUE(serial.mid_checkpoint == r->mid_checkpoint)
        << "mid-run checkpoint bytes differ";
  }
  EXPECT_TRUE(std::all_of(sh2.parallel.begin() + 1, sh2.parallel.end(),
                          [](bool p) { return p; }))
      << "an explicit shard count runs every cycle in parallel";
  if (usable_cores() < 2) GTEST_SKIP() << "auto resolves to 1 shard here";
  // auto: serial ramp-up, parallel middle, serial ramp-down.
  const auto& p = automatic.parallel;
  const auto first = std::find(p.begin(), p.end(), true);
  ASSERT_NE(first, p.end()) << "the snapshot never reached the gate";
  EXPECT_NE(first, p.begin());
  EXPECT_FALSE(p.back());
  EXPECT_GT(automatic.res.phases.parallel_cycles, 0u);
  EXPECT_GT(automatic.res.phases.serial_cycles, 0u);
}

TEST(ShardGate, PhaseTimersChangeNoCounter) {
  auto net = tiny_net();
  auto traffic = traffic::make_pattern("uniform", net, {});
  for (const int shards : {1, 2}) {
    sim::SimConfig sc = short_cfg(shards);
    const sim::SimResult plain = sim::run_sim(net, sc, *traffic);
    sc.phase_timers = true;
    const sim::SimResult timed = sim::run_sim(net, sc, *traffic);
    expect_bit_identical(plain, timed);
    EXPECT_EQ(plain.phases.walk_s, 0.0);
    EXPECT_GT(timed.phases.walk_s, 0.0);
    EXPECT_EQ(plain.phases.parallel_cycles, timed.phases.parallel_cycles);
  }
}

// ---- open-loop bit-identity ----------------------------------------------

TEST(ShardedEngine, BitIdenticalAllRouteModes) {
  for (const RouteMode mode :
       {RouteMode::Minimal, RouteMode::Valiant, RouteMode::Adaptive}) {
    auto net = tiny_net(mode);
    const auto serial = run_point(net, 1);
    const auto sh2 = run_point(net, 2);
    const auto sh3 = run_point(net, 3);
    expect_bit_identical(serial, sh2);
    expect_bit_identical(serial, sh3);
    EXPECT_GT(serial.delivered_total, 0u);
  }
}

TEST(ShardedEngine, BitIdenticalNearSaturation) {
  auto net = tiny_net();
  expect_bit_identical(run_point(net, 1, 0.9), run_point(net, 4, 0.9));
}

TEST(ShardedEngine, BitIdenticalSwdf) {
  sim::Network net;
  topo::build_sw_dragonfly(net, small_swdf_params());
  expect_bit_identical(run_point(net, 1), run_point(net, 2));
}

TEST(ShardedEngine, RepeatRunsBitIdentical) {
  auto net = tiny_net();
  expect_bit_identical(run_point(net, 3), run_point(net, 3));
}

TEST(ShardedEngine, ContextReuseAcrossShardCounts) {
  // One SimContext driven through serial and sharded runs in both orders:
  // recycled high-water storage must never leak state between engines.
  auto net = tiny_net();
  auto traffic = traffic::make_pattern("uniform", net, {});
  sim::SimContext ctx;
  const auto run_with = [&](int shards) {
    sim::SimConfig sc = short_cfg(shards);
    return sim::run_sim(ctx, net, sc, *traffic);
  };
  const auto s1 = run_with(1);
  const auto s2 = run_with(2);
  const auto s1_again = run_with(1);
  const auto s2_again = run_with(2);
  expect_bit_identical(s1, s2);
  expect_bit_identical(s1, s1_again);
  expect_bit_identical(s1, s2_again);
}

// ---- faults --------------------------------------------------------------

TEST(ShardedEngine, BitIdenticalWithFaultsArmed) {
  const auto faulted = [&](int shards) {
    auto net = tiny_net(RouteMode::Minimal, /*fault_tolerant=*/true);
    topo::FaultSpec fs;
    fs.rate = 0.15;
    fs.kind = topo::FaultKind::Any;
    fs.seed = 5;
    topo::inject_faults(net, fs);
    return run_point(net, shards);
  };
  const auto serial = faulted(1);
  expect_bit_identical(serial, faulted(2));
  expect_bit_identical(serial, faulted(3));
  EXPECT_GT(serial.delivered_total, 0u);
}

// ---- closed-loop workload runner -----------------------------------------

TEST(ShardedEngine, BitIdenticalClosedLoopWorkload) {
  // W-group scope crosses C-group boundaries (external narrowed messages,
  // listener-driven injection at commit time).
  auto net = tiny_net();
  const auto run_with = [&](int shards) {
    workload::WorkloadRunConfig rc;
    rc.sim.shards = shards;
    const auto g =
        workload::ring_allreduce(net, workload::Scope::WGroup, 512, 1, 2);
    return workload::run_workload(net, g, rc);
  };
  const auto a = run_with(1);
  const auto b = run_with(2);
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.flit_hops, b.flit_hops);
  EXPECT_EQ(a.avg_msg_cycles, b.avg_msg_cycles);
  EXPECT_EQ(a.gbps_per_chip, b.gbps_per_chip);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i)
    EXPECT_EQ(a.phases[i].completed, b.phases[i].completed);
}

// ---- scenario-layer plumbing ---------------------------------------------

TEST(ShardedEngine, ScenarioShardsKey) {
  core::ScenarioSpec s;
  s.set("shards", "4");
  EXPECT_EQ(s.sim.shards, 4);
  s.set("shards", "auto");
  EXPECT_EQ(s.sim.shards, 0);
  EXPECT_EQ(s.to_kv().at("shards"), "auto");
  EXPECT_EQ(core::ScenarioSpec::from_kv(s.to_kv()).sim.shards, 0);
  s.set("shards", "2");
  EXPECT_EQ(s.to_kv().at("shards"), "2");
  EXPECT_THROW(s.set("shards", "-1"), std::invalid_argument);
  EXPECT_THROW(s.set("shards", "many"), std::invalid_argument);
}

TEST(ShardedEngine, ScenarioRunBitIdentical) {
  core::ScenarioSpec spec;
  spec.topology = "tiny-swless";
  spec.traffic = "uniform";
  spec.rates = {0.5};
  spec.sim.warmup = 300;
  spec.sim.measure = 700;
  spec.sim.drain = 400;
  spec.sim.shards = 1;
  const auto serial = core::run_scenario(spec);
  spec.sim.shards = 2;
  const auto sharded = core::run_scenario(spec);
  ASSERT_EQ(serial.points.size(), sharded.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i)
    expect_bit_identical(serial.points[i].res, sharded.points[i].res);
}
