// Multi-plane conformance suite: plane.count = 1 must be bit-identical to
// the classic single-fabric build (the PlaneSet layer is pure plumbing
// until K >= 2), every plane-selection policy must be deterministic across
// repeat runs and engine shard counts, a plane-0 fault wave must never
// touch plane-1 traffic, the scenario keys must round-trip, and
// heterogeneous rails hand-wired through build_plane_set must satisfy the
// same conservation ledger as the presets.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "core/scenario.hpp"
#include "route/plane_select.hpp"
#include "test_fixtures.hpp"
#include "topo/plane_set.hpp"
#include "traffic/pattern.hpp"

using namespace sldf;
using namespace sldf::testing;

namespace {

/// A short tiny-swless open-loop spec; `planes` = 0 keeps the classic
/// (pre-plane) build path.
core::ScenarioSpec plane_spec(int planes,
                              route::PlanePolicy policy =
                                  route::PlanePolicy::Hash) {
  core::ScenarioSpec s;
  s.topology = "tiny-swless";
  s.traffic = "uniform";
  s.rates = {0.5};
  s.sim.warmup = 300;
  s.sim.measure = 700;
  s.sim.drain = 2000;
  s.sim.seed = 11;
  s.sim.shards = 1;
  s.plane_count = planes;
  s.plane_policy = policy;
  return s;
}

sim::SimResult run_one(const core::ScenarioSpec& s) {
  const auto series = core::run_scenario(s);
  EXPECT_EQ(series.points.size(), 1u);
  return series.points.at(0).res;
}

}  // namespace

// ---- K = 1 identity ------------------------------------------------------

TEST(PlaneIdentity, K1BitIdenticalSweepVsPrePlaneBuild) {
  // The fig11a-style tiny sweep: the single-rail PlaneSet build must
  // reproduce the classic build bit for bit at every offered load.
  auto classic = plane_spec(0);
  classic.rates = {0.2, 0.5, 0.8};
  auto k1 = classic;
  k1.plane_count = 1;
  const auto a = core::run_scenario(classic);
  const auto b = core::run_scenario(k1);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    expect_bit_identical(a.points[i].res, b.points[i].res);
    EXPECT_TRUE(audit_conservation(a.points[i].res));
    EXPECT_TRUE(audit_conservation(b.points[i].res));
    EXPECT_GT(a.points[i].res.delivered_total, 0u);
  }
}

TEST(PlaneIdentity, K1BitIdenticalClosedLoopWorkload) {
  auto s = plane_spec(0);
  s.rates.clear();
  s.workload = "ring-allreduce";
  s.workload_opts["scope"] = "wgroup";
  s.workload_opts["kib"] = "4";
  const auto classic = core::run_workload_scenario(s);
  s.plane_count = 1;
  const auto k1 = core::run_workload_scenario(s);
  EXPECT_TRUE(classic.result.completed);
  EXPECT_TRUE(k1.result.completed);
  EXPECT_EQ(classic.result.cycles, k1.result.cycles);
  EXPECT_EQ(classic.result.packets, k1.result.packets);
  EXPECT_EQ(classic.result.packets_delivered, k1.result.packets_delivered);
  EXPECT_EQ(classic.result.flit_hops, k1.result.flit_hops);
  EXPECT_EQ(classic.result.avg_msg_cycles, k1.result.avg_msg_cycles);
}

// ---- policy determinism --------------------------------------------------

TEST(PlanePolicies, DeterministicAcrossRepeatsAndShards) {
  for (const route::PlanePolicy pol :
       {route::PlanePolicy::Hash, route::PlanePolicy::RoundRobin,
        route::PlanePolicy::Adaptive, route::PlanePolicy::Collective}) {
    const auto s = plane_spec(2, pol);
    const auto serial = run_one(s);
    const auto repeat = run_one(s);
    auto sharded_spec = s;
    sharded_spec.sim.shards = 2;
    const auto sharded = run_one(sharded_spec);
    expect_bit_identical(serial, repeat);
    expect_bit_identical(serial, sharded);
    EXPECT_TRUE(audit_conservation(serial));
    ASSERT_EQ(serial.plane_delivered.size(), 2u);
    // Every policy spreads uniform traffic over both rails (collective
    // falls back to hash when packets carry no rail hint).
    EXPECT_GT(serial.plane_delivered[0], 0u)
        << route::to_string(pol);
    EXPECT_GT(serial.plane_delivered[1], 0u)
        << route::to_string(pol);
  }
}

TEST(PlanePolicies, ShardsEnvMatchesExplicit) {
  // SLDF_SHARDS=2 with shards=auto must equal the explicit shards=2 run
  // (and therefore the serial run).
  const auto s = plane_spec(2, route::PlanePolicy::Adaptive);
  const auto serial = run_one(s);
  auto env_spec = s;
  env_spec.sim.shards = 0;  // auto: defer to the environment
  setenv("SLDF_SHARDS", "2", 1);
  const auto via_env = run_one(env_spec);
  unsetenv("SLDF_SHARDS");
  expect_bit_identical(serial, via_env);
}

// ---- per-plane fault isolation -------------------------------------------

TEST(PlaneFaults, PlaneZeroFailureNeverTouchesPlaneOne) {
  auto s = plane_spec(2);
  s.topo["fault_tolerant"] = "1";
  s.fault.seed = 7;
  s.fault.rescue = false;
  s.fault.plane = 0;
  s.fault.events = "fail@300:global=0.4";
  const auto r = run_one(s);
  ASSERT_EQ(r.plane_dropped.size(), 2u);
  // The fault wave kills only rail-0 cables: every lost packet is a rail-0
  // packet, and rail 1 keeps delivering as if nothing happened.
  EXPECT_GT(r.plane_dropped[0], 0u);
  EXPECT_EQ(r.plane_dropped[1], 0u);
  EXPECT_GT(r.plane_delivered[1], 0u);
  EXPECT_EQ(r.dropped_packets, r.plane_dropped[0]);
  EXPECT_TRUE(audit_conservation(r));
}

// ---- scenario keys -------------------------------------------------------

TEST(PlaneScenarioKeys, RoundTripThroughKv) {
  core::ScenarioSpec s;
  s.set("plane.count", "2");
  s.set("plane.policy", "adaptive");
  s.set("plane.mix", "radix16-swless, radix16-swdf");
  s.set("fault.plane", "0");
  EXPECT_EQ(s.plane_count, 2);
  EXPECT_EQ(s.plane_policy, route::PlanePolicy::Adaptive);
  ASSERT_EQ(s.plane_mix.size(), 2u);
  EXPECT_EQ(s.plane_mix[0], "radix16-swless");
  EXPECT_EQ(s.plane_mix[1], "radix16-swdf");
  EXPECT_EQ(s.fault.plane, 0);

  const auto kv = s.to_kv();
  EXPECT_EQ(kv.at("plane.count"), "2");
  EXPECT_EQ(kv.at("plane.policy"), "adaptive");
  EXPECT_EQ(kv.at("plane.mix"), "radix16-swless,radix16-swdf");
  EXPECT_EQ(kv.at("fault.plane"), "0");
  const auto back = core::ScenarioSpec::from_kv(kv);
  EXPECT_EQ(back.plane_count, 2);
  EXPECT_EQ(back.plane_policy, route::PlanePolicy::Adaptive);
  EXPECT_EQ(back.plane_mix, s.plane_mix);
  EXPECT_EQ(back.fault.plane, 0);

  // Unset plane keys must not appear in the kv form at all.
  core::ScenarioSpec plain;
  const auto plain_kv = plain.to_kv();
  EXPECT_EQ(plain_kv.count("plane.count"), 0u);
  EXPECT_EQ(plain_kv.count("plane.policy"), 0u);
  EXPECT_EQ(plain_kv.count("plane.mix"), 0u);
  EXPECT_EQ(plain_kv.count("fault.plane"), 0u);
}

TEST(PlaneScenarioKeys, RejectsInvalidValues) {
  core::ScenarioSpec s;
  EXPECT_THROW(s.set("plane.count", "0"), std::invalid_argument);
  EXPECT_THROW(s.set("plane.count", "many"), std::invalid_argument);
  EXPECT_THROW(s.set("plane.policy", "bogus"), std::invalid_argument);
  EXPECT_THROW(s.set("plane.mix", ",,"), std::invalid_argument);
  EXPECT_THROW(s.set("fault.plane", "-2"), std::invalid_argument);
}

TEST(PlaneScenarioKeys, BuildValidatesMixAgainstCount) {
  // plane.mix length must equal plane.count ...
  auto s = plane_spec(2);
  s.plane_mix = {"tiny-swless"};
  sim::Network net;
  EXPECT_THROW(core::build_network(net, s), std::invalid_argument);
  // ... and every rail must span the same logical chips (tiny-swless is 60
  // chips at g = 5; radix16-swless is far larger).
  auto mism = plane_spec(2);
  mism.plane_mix = {"tiny-swless", "radix16-swless"};
  sim::Network net2;
  EXPECT_THROW(core::build_network(net2, mism), std::invalid_argument);
}

// ---- heterogeneous rails, hand-wired -------------------------------------

TEST(PlaneMix, HandWiredSwlessPlusSwdfRails) {
  // A switch-less rail and a switch-based rail over the same 60 logical
  // chips (tiny-swless at g = 5 vs a 3x4 Dragonfly with 5 groups) — the
  // shared-TopoConfig CLI path cannot express family-specific parameters,
  // but build_plane_set takes any wirer.
  sim::Network net;
  topo::build_plane_set(
      net, 2, static_cast<int>(route::PlanePolicy::RoundRobin),
      [](int plane, sim::Network& n) {
        if (plane == 0)
          return topo::wire_swless_dragonfly(
              n, tiny_swless_params(route::VcScheme::Baseline,
                                    route::RouteMode::Minimal, /*g=*/5));
        auto q = small_swdf_params(/*groups=*/5);
        q.terminals_per_switch = 4;  // 3 * 4 = 12 chips/group, 60 total
        return topo::wire_sw_dragonfly(n, q);
      });
  EXPECT_EQ(net.num_planes(), 2);
  EXPECT_EQ(net.num_chips(), 60u);
  EXPECT_EQ(static_cast<int>(net.plane_policy()),
            static_cast<int>(route::PlanePolicy::RoundRobin));
  // Twins: same chip, other plane.
  for (const NodeId t : net.logical_terminals()) {
    EXPECT_EQ(net.plane_of_node(t), 0);
    const NodeId twin = net.plane_twin(t, 1);
    EXPECT_EQ(net.plane_of_node(twin), 1);
    EXPECT_EQ(net.chip_of(twin), net.chip_of(t));
  }
  // The mixed pair carries traffic on both rails and closes the ledger.
  sim::SimConfig sc;
  sc.inj_rate_per_chip = 0.3;
  sc.warmup = 200;
  sc.measure = 500;
  sc.drain = 1500;
  sc.seed = 11;
  const auto traffic = traffic::make_pattern("uniform", net, {});
  const auto r = sim::run_sim(net, sc, *traffic);
  ASSERT_EQ(r.plane_delivered.size(), 2u);
  EXPECT_GT(r.plane_delivered[0], 0u);
  EXPECT_GT(r.plane_delivered[1], 0u);
  EXPECT_TRUE(audit_conservation(r));
}
