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

#include "common/parallel.hpp"
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

// A shard phase takes a locked RMW only on the first and last word of its
// range of each bitmap, so the partition must leave no other word shared:
// a word inside two shards' ranges is the first or last word of both, and
// every other word of a shard's range lies in no other shard's range.
TEST(ShardBounds, OnlyBoundaryWordsAreShared) {
  auto net = tiny_net();
  auto traffic = traffic::make_pattern("uniform", net, {});
  const std::vector<NodeId>& terms = net.terminals();
  // Index in bitmap `m` of the first bit of router `r` (r may be the
  // router count): active routers, pending input VCs, pending output
  // ports, pending injection (terminals ascend by node).
  const auto index_at = [&](int m, std::uint32_t r) -> std::uint32_t {
    const auto node = static_cast<NodeId>(r);
    switch (m) {
      case 0: return r;
      case 1: return net.in_vc_index(node, 0, 0);
      case 2: return net.out_port_index(node, 0);
      default:
        return static_cast<std::uint32_t>(
            std::lower_bound(terms.begin(), terms.end(), node) -
            terms.begin());
    }
  };
  constexpr sim::ShardWords sim::ShardScratch::* kWords[] = {
      &sim::ShardScratch::active_words, &sim::ShardScratch::ivc_words,
      &sim::ShardScratch::port_words, &sim::ShardScratch::inj_words};
  std::size_t shared = 0;
  for (const int s : {2, 3, 5}) {
    sim::SimContext ctx;
    sim::Simulator engine(net, short_cfg(s), *traffic, ctx);
    engine.step();
    ASSERT_TRUE(engine.team_started());
    ASSERT_EQ(engine.shards(), s);
    const auto b = net.shard_bounds(s);
    for (int m = 0; m < 4; ++m) {
      SCOPED_TRACE(::testing::Message() << s << " shards, bitmap " << m);
      const auto words = [&](std::size_t k) {
        return ctx.shard_scratch[k].*kWords[m];
      };
      // The words shard k's range [begin, end) covers, as [lo, hi].
      const auto span = [&](std::size_t k) {
        const std::uint32_t begin = index_at(m, b[k]);
        const std::uint32_t end = index_at(m, b[k + 1]);
        return begin < end ? std::pair{begin >> 6, (end - 1) >> 6}
                           : std::pair{1u, 0u};
      };
      for (std::size_t k = 0; k < static_cast<std::size_t>(s); ++k) {
        const auto [lo, hi] = span(k);
        if (lo <= hi) {
          EXPECT_EQ(words(k).first, lo) << "shard " << k;
          EXPECT_EQ(words(k).last, hi) << "shard " << k;
        }
        for (std::uint32_t w = lo; w <= hi; ++w)
          for (std::size_t j = 0; j < static_cast<std::size_t>(s); ++j) {
            const auto [jlo, jhi] = span(j);
            if (j == k || w < jlo || w > jhi) continue;
            ++shared;
            EXPECT_TRUE(words(k).shared(w) && words(j).shared(w))
                << "word " << w << " of shards " << k << " and " << j;
          }
      }
    }
  }
  // Bounds that never split a word would leave nothing to check.
  EXPECT_GT(shared, 0u);
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
  const sim::SimConfig serial =
      core::worker_config(core::point_config(cfg, 1), 1);
  EXPECT_EQ(serial.shards, 0);  // a lone worker keeps auto
  EXPECT_EQ(serial.seed, 8u);
  EXPECT_EQ(serial.inj_rate_per_chip, 0.2);
  EXPECT_EQ(core::worker_config(core::point_config(cfg, 0), 2).shards, 1);
  cfg.base.shards = 3;  // explicit counts are honoured
  EXPECT_EQ(core::worker_config(core::point_config(cfg, 0), 2).shards, 3);
  cfg.base.shards = 0;
  setenv("SLDF_SHARDS", "2", 1);  // so is the env override
  EXPECT_EQ(core::worker_config(core::point_config(cfg, 0), 2).shards, 2);
}

// One rule for every simulation of `sldf --threads`'s pool (sweep points,
// workload and tenant runs): a lone worker keeps its config; with two
// workers `auto` resolves to one shard, while an explicit count or
// SLDF_SHARDS wins.
TEST(ResolveShards, WorkerConfigSharesTheCores) {
  ScopedShardsEnv env(nullptr);
  sim::SimConfig sc;
  sc.seed = 9;
  sc.shards = 0;  // auto
  EXPECT_EQ(core::worker_config(sc, 1).shards, 0);
  EXPECT_EQ(core::worker_config(sc, 2).shards, 1);
  EXPECT_EQ(core::worker_config(sc, 2).seed, 9u);
  sc.shards = 3;
  EXPECT_EQ(core::worker_config(sc, 1).shards, 3);
  EXPECT_EQ(core::worker_config(sc, 2).shards, 3);
  sc.shards = 0;
  setenv("SLDF_SHARDS", "2", 1);
  EXPECT_EQ(core::worker_config(sc, 1).shards, 0);  // resolved at init
  EXPECT_EQ(core::worker_config(sc, 2).shards, 2);
}

// ---- per-cycle work gate -------------------------------------------------

namespace {

/// Asserts that no cycle on `net` can reach the work gate: a cycle walks at
/// most every router, and moves at most what every channel can send at
/// once (a token bucket holds at most width_num + width_den tokens and a
/// grant spends width_den) plus one ejected flit per terminal.
void assert_structurally_below_gate(const sim::Network& net) {
  ASSERT_LT(net.num_routers(), sim::kShardGateRouters);
  std::uint64_t most_moved = net.terminals().size();
  for (std::size_t c = 0; c < net.num_channels(); ++c) {
    const sim::Channel& ch = net.chan(static_cast<ChanId>(c));
    most_moved += (ch.width_num + ch.width_den) / ch.width_den;
  }
  ASSERT_LT(most_moved, sim::kShardGateFlits);
}

}  // namespace

TEST(ShardGate, SmallFabricAutoNeverStartsTheTeam) {
  ScopedShardsEnv env(nullptr);
  auto net = tiny_net();
  ASSERT_NO_FATAL_FAILURE(assert_structurally_below_gate(net));
  auto traffic = traffic::make_pattern("uniform", net, {});
  net.reset_dynamic_state();
  sim::Simulator s(net, short_cfg(0), *traffic);
  const sim::SimResult r = s.run();
  EXPECT_EQ(r.phases.parallel_cycles, 0u);
  EXPECT_GT(r.phases.serial_cycles, 0u);
  EXPECT_FALSE(s.team_started());
}

// The three W-group fabrics of the benchmark's closed-loop AllReduce
// (configs/fig14.conf at topo.g = 1): two shards made them slower, and no
// cycle on them can reach the gate.
TEST(ShardGate, WGroupFabricsStayBelowTheGate) {
  struct Fabric {
    const char* topology;
    const char* mesh_width;  ///< topo.mesh_width, or nullptr.
  };
  for (const Fabric& f : {Fabric{"radix16-swdf", nullptr},
                          Fabric{"radix16-swless", nullptr},
                          Fabric{"radix16-swless", "2"}}) {
    SCOPED_TRACE(std::string(f.topology) +
                 (f.mesh_width ? " mesh_width=2" : ""));
    core::ScenarioSpec spec;
    spec.topology = f.topology;
    spec.set("topo.g", "1");
    if (f.mesh_width != nullptr) spec.set("topo.mesh_width", f.mesh_width);
    sim::Network net;
    core::build_network(net, spec);
    ASSERT_NO_FATAL_FAILURE(assert_structurally_below_gate(net));
  }
}

namespace {

/// One run of a gate spec, stepped by hand so the parallel / serial
/// decision of every cycle is visible.
struct GateRun {
  sim::SimResult res;
  std::string mid_checkpoint;
  std::vector<bool> parallel;  ///< Per stepped cycle.
};

/// A short uniform-traffic point stepped to `step_to` (saving a checkpoint
/// at `checkpoint_at`), then run to its end.
struct GateSpec {
  const char* topology;
  const char* g;  ///< topo.g, or nullptr for the preset's.
  double rate;
  Cycle warmup, measure, drain;
  Cycle checkpoint_at, step_to;
  const char* fault_events = nullptr;  ///< fault.events, or none.
};

/// Each run builds its own network: checkpoints carry the raw FIFO arena,
/// stale slots included.
GateRun gate_run(const GateSpec& g, int shards) {
  core::ScenarioSpec spec;
  spec.topology = g.topology;
  if (g.g != nullptr) spec.set("topo.g", g.g);
  if (g.fault_events != nullptr) {
    spec.set("fault.seed", "7");
    spec.set("fault.events", g.fault_events);
  }
  sim::Network net;
  core::build_network(net, spec);
  auto traffic = traffic::make_pattern("uniform", net, {});
  sim::SimConfig sc;
  sc.inj_rate_per_chip = g.rate;
  sc.warmup = g.warmup;
  sc.measure = g.measure;
  sc.drain = g.drain;
  sc.seed = 3;
  sc.shards = shards;
  sim::Simulator s(net, sc, *traffic);
  GateRun out;
  while (s.now() < g.step_to) {
    if (s.now() == g.checkpoint_at) {
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

/// `auto` and explicit 2-shard runs of `g` against the serial engine:
/// identical results and mid-run checkpoint bytes, and an explicit count
/// runs every cycle after the first in parallel. Returns the auto run.
GateRun expect_gate_runs_identical(const GateSpec& g) {
  const GateRun serial = gate_run(g, 1);
  const GateRun sh2 = gate_run(g, 2);
  const GateRun automatic = gate_run(g, 0);
  for (const GateRun* r : {&sh2, &automatic}) {
    expect_bit_identical(serial.res, r->res);
    EXPECT_TRUE(serial.mid_checkpoint == r->mid_checkpoint)
        << "mid-run checkpoint bytes differ";
  }
  EXPECT_TRUE(std::all_of(sh2.parallel.begin() + 1, sh2.parallel.end(),
                          [](bool p) { return p; }))
      << "an explicit shard count runs every cycle in parallel";
  return automatic;
}

}  // namespace

TEST(ShardGate, CrossingBothWaysBitIdentical) {
  ScopedShardsEnv env(nullptr);
  // radix16-swless g=21 (4704 routers) at 0.5: the work per cycle climbs
  // past the gate during warmup and falls back below both of its
  // thresholds while the network drains after generation stops at cycle
  // 100 (the routers walked fall below kShardGateRouters near cycle 220).
  const GateRun automatic = expect_gate_runs_identical(
      {"radix16-swless", "21", 0.5, 40, 40, 20, 70, 240});
  if (usable_cores() < 2) GTEST_SKIP() << "auto resolves to 1 shard here";
  // auto: serial ramp-up, parallel middle, serial ramp-down.
  const auto& p = automatic.parallel;
  const auto first = std::find(p.begin(), p.end(), true);
  ASSERT_NE(first, p.end()) << "the flits moved never reached the gate";
  EXPECT_NE(first, p.begin());
  EXPECT_FALSE(p.back());
  EXPECT_GT(automatic.res.phases.parallel_cycles, 0u);
  EXPECT_GT(automatic.res.phases.serial_cycles, 0u);
}

TEST(ShardGate, SwitchBasedSaturationRunsOnTheTeam) {
  ScopedShardsEnv env(nullptr);
  // radix16-swdf (1312 chips) at 0.9 walks fewer routers a cycle than the
  // switch-less fabric of the same chip count but moves several flits per
  // router: the flit gate puts its saturated cycles on the team.
  const GateRun automatic = expect_gate_runs_identical(
      {"radix16-swdf", nullptr, 0.9, 100, 60, 40, 120, 160});
  if (usable_cores() < 2) GTEST_SKIP() << "auto resolves to 1 shard here";
  const auto& p = automatic.parallel;
  EXPECT_FALSE(p.front());
  EXPECT_TRUE(p.back()) << "the saturated fabric left the team";
  EXPECT_GT(automatic.res.phases.parallel_cycles,
            automatic.res.phases.serial_cycles);
}

TEST(ShardGate, FaultTimelineSaturationRunsOnTheTeam) {
  ScopedShardsEnv env(nullptr);
  // radix16-swless g=11 (2464 routers) at 0.9, the benchmark's online-fault
  // fabric: it moves fewer flits a cycle than the flit gate asks, but walks
  // more routers than the router gate asks, so its saturated cycles run on
  // the team, across a fail and a repair step.
  const GateRun automatic = expect_gate_runs_identical(
      {"radix16-swless", "11", 0.9, 100, 60, 40, 120, 160,
       "fail@110:global=0.1;repair@140:global=0.05"});
  EXPECT_GT(automatic.res.rescued_packets + automatic.res.dropped_packets,
            0u)
      << "the fail step reached no packet";
  if (usable_cores() < 2) GTEST_SKIP() << "auto resolves to 1 shard here";
  const auto& p = automatic.parallel;
  EXPECT_FALSE(p.front());
  EXPECT_TRUE(p.back()) << "the saturated fabric left the team";
  EXPECT_GT(automatic.res.phases.parallel_cycles,
            automatic.res.phases.serial_cycles);
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

// ---- deep-prefetch gate --------------------------------------------------

TEST(PrefetchGate, WorkingSetAgainstTheLlc) {
  // Input-VC counts of the benchmark workloads' fabrics, against the
  // 105 MiB L3 of the reference host in docs/PERFORMANCE.md and against
  // the unknown-LLC fallback.
  constexpr std::size_t kLlc = std::size_t{105} << 20;
  struct Case {
    const char* fabric;
    std::size_t fifos;
    bool deep;  ///< Expected with the 105 MiB LLC and with the fallback.
  };
  for (const Case& c : {Case{"low-r32 (radix32-swless)", 1930240, true},
                        Case{"faults-online (radix16-swless g=11)", 76230,
                             false},
                        Case{"sat-r16 (radix16-swless)", 131200, false},
                        Case{"sat-r16 (radix16-swdf)", 62976, false},
                        Case{"allreduce-w16 (radix16-swless g=1)", 3040,
                             false}}) {
    SCOPED_TRACE(c.fabric);
    EXPECT_EQ(sim::deep_prefetch_pays(c.fifos, kLlc), c.deep);
    EXPECT_EQ(sim::deep_prefetch_pays(c.fifos, 0), c.deep);
  }
  // The rule itself: the working set must exceed the cache.
  const std::size_t edge = kLlc / sim::kWalkBytesPerFifo;
  EXPECT_FALSE(sim::deep_prefetch_pays(edge, kLlc));
  EXPECT_TRUE(sim::deep_prefetch_pays(edge + 1, kLlc));
  const std::size_t fallback_edge =
      sim::kFallbackLlcBytes / sim::kWalkBytesPerFifo;
  EXPECT_FALSE(sim::deep_prefetch_pays(fallback_edge, 0));
  EXPECT_TRUE(sim::deep_prefetch_pays(fallback_edge + 1, 0));
}

namespace {

/// One fixed-seed point on `net` with the walk's prefetch forced on or
/// off through the Simulator's test seam.
sim::SimResult run_prefetch(sim::Network& net, int shards, bool deep) {
  auto traffic = traffic::make_pattern("uniform", net, {});
  net.reset_dynamic_state();
  sim::Simulator s(net, short_cfg(shards), *traffic);
  EXPECT_FALSE(s.phases().deep_prefetch) << "a tiny fabric fits in any LLC";
  s.force_deep_prefetch(deep);
  const sim::SimResult r = s.run();
  EXPECT_EQ(r.phases.deep_prefetch, deep);
  return r;
}

}  // namespace

TEST(PrefetchGate, PrefetchChangesNoCounter) {
  // The gate keeps the prefetch off every tier-1 fabric, so force it on:
  // prefetches steer caches only, on the serial engine and on 2 and 3
  // shards (where the lookahead reads a neighbour's active and pending
  // words).
  for (const RouteMode mode : {RouteMode::Minimal, RouteMode::Adaptive}) {
    auto net = tiny_net(mode);
    const sim::SimResult off = run_prefetch(net, 1, false);
    EXPECT_GT(off.flit_hops, 0u);
    expect_bit_identical(off, run_prefetch(net, 1, true));
    expect_bit_identical(off, run_prefetch(net, 2, true));
    expect_bit_identical(off, run_prefetch(net, 3, true));
    expect_bit_identical(off, run_prefetch(net, 2, false));
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
  // 3 and 5 shards split the router range mid-word, so neighbour shards
  // share active, pending-VC and pending-port bitmap words.
  auto net = tiny_net();
  for (const int shards : {3, 5})
    for (const std::uint32_t b : net.shard_bounds(shards))
      if (b != 0 && b != net.num_routers())
        EXPECT_NE(b % 64, 0u) << shards << " shards, bound " << b;
  const auto serial = faulted(1);
  for (const int shards : {2, 3, 5})
    expect_bit_identical(serial, faulted(shards));
  EXPECT_GT(serial.delivered_total, 0u);
}

// ---- the order contract --------------------------------------------------

namespace {

/// Watches every tail delivery, for the order and latency oracles below.
class TailLog : public sim::PacketListener {
 public:
  void on_packet_delivered(const sim::Packet& p, Cycle now) override {
    // Within one cycle, tails must arrive in ascending ejecting-router id
    // (the packet's destination node is the router that ejected it).
    const auto rid = static_cast<std::uint32_t>(p.dst);
    if (now == last_cycle_ && rid < last_router_) ++out_of_order;
    last_cycle_ = now;
    last_router_ = rid;
    ++tails;
    if (p.measured) {
      lat_sum += now - p.t_gen;
      ++measured;
    }
  }
  std::uint64_t tails = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t lat_sum = 0;
  std::uint64_t measured = 0;

 private:
  Cycle last_cycle_ = ~Cycle{0};
  std::uint32_t last_router_ = 0;
};

/// One fixed-seed point on `net` with a TailLog attached.
sim::SimResult run_logged(sim::Network& net, int shards, TailLog& log) {
  auto traffic = traffic::make_pattern("uniform", net, {});
  net.reset_dynamic_state();
  sim::Simulator s(net, short_cfg(shards), *traffic);
  s.set_listener(&log);
  return s.run();
}

}  // namespace

TEST(ShardedEngine, TailsArriveInAscendingRouterOrder) {
  for (const RouteMode mode : {RouteMode::Minimal, RouteMode::Adaptive}) {
    auto net = tiny_net(mode);
    for (const int shards : {1, 2, 3}) {
      TailLog log;
      const sim::SimResult r = run_logged(net, shards, log);
      EXPECT_EQ(log.tails, r.delivered_total);
      EXPECT_EQ(log.out_of_order, 0u) << shards << " shards";
    }
  }
}

TEST(ShardedEngine, AvgLatencyIsTheExactMeasuredMean) {
  auto net = tiny_net();
  for (const int shards : {1, 3}) {
    TailLog log;
    const sim::SimResult r = run_logged(net, shards, log);
    ASSERT_GT(log.measured, 0u);
    EXPECT_EQ(log.measured, r.delivered_measured);
    // Bit for bit: the engine's mean is the correctly rounded sum / count.
    EXPECT_EQ(r.avg_latency, static_cast<double>(log.lat_sum) /
                                 static_cast<double>(log.measured))
        << shards << " shards";
  }
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
