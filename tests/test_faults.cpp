// Fault-injection property tests: deterministic seeded fault sets (nested
// across rates), port-table rewriting, fault-aware routing detours around
// dead local/global cables on both fabrics, CDG acyclicity and all-pairs
// reachability after injection, chip faults, rate-0 bit-identity with the
// un-faulted engine, and repeat-run / threads=1-vs-auto determinism.
#include <gtest/gtest.h>

#include <set>

#include "core/scenario.hpp"
#include "route/cdg.hpp"
#include "test_fixtures.hpp"
#include "topo/faults.hpp"

using namespace sldf;
using namespace sldf::testing;
using route::RouteMode;
using route::VcScheme;
using topo::FaultKind;
using topo::FaultSpec;

namespace {

/// Dead channel ids of a network with an armed fault mask.
std::set<ChanId> dead_channels(const sim::Network& net) {
  std::set<ChanId> dead;
  for (std::size_t i = 0; i < net.num_channels(); ++i)
    if (!net.chan_live(static_cast<ChanId>(i)))
      dead.insert(static_cast<ChanId>(i));
  return dead;
}

/// Builds tiny-swless with the fault-detour VC budget reserved.
void build_ft_swless(VcScheme scheme, RouteMode mode, int g,
                     sim::Network& net) {
  auto p = tiny_swless_params(scheme, mode, g);
  p.fault_tolerant = true;
  topo::build_swless_dragonfly(net, p);
}

/// Kills both directions of the local cable cg `ca` <-> `cb` in W-group wg.
void kill_local_cable(sim::Network& net, int wg, int ca, int cb) {
  const auto& T = net.topo<topo::SwlessTopo>();
  const auto& ep = T.cgroup(wg, ca).locals[static_cast<std::size_t>(
      topo::SwlessTopo::local_index(ca, cb))];
  net.enable_fault_mask();
  net.disable_channel(ep.line_out);
  net.disable_channel(ep.line_in);
}

/// Kills both directions of the global cable W-group `wa` <-> `wb`.
void kill_global_cable(sim::Network& net, int wa, int wb) {
  const auto& T = net.topo<topo::SwlessTopo>();
  const int H = T.p.global_ports;
  const int link = topo::SwlessTopo::global_link(wa, wb);
  const auto& ep =
      T.cgroup(wa, link / H).globals[static_cast<std::size_t>(link % H)];
  net.enable_fault_mask();
  net.disable_channel(ep.line_out);
  net.disable_channel(ep.line_in);
}

core::ScenarioSpec tiny_fault_spec() {
  core::ScenarioSpec s;
  s.topology = "tiny-swless";
  s.traffic = "uniform";
  s.rates = {0.15};
  s.sim.warmup = 100;
  s.sim.measure = 300;
  s.sim.drain = 400;
  return s;
}

}  // namespace

// ------------------------------------------------------------- fault spec ---

TEST(FaultSpec, KindParsesAndRoundTrips) {
  for (const auto k : {FaultKind::Any, FaultKind::Intra, FaultKind::Local,
                       FaultKind::Global})
    EXPECT_EQ(topo::parse_fault_kind(topo::to_string(k)), k);
  EXPECT_THROW(topo::parse_fault_kind("cosmic"), std::invalid_argument);
}

TEST(FaultSpec, ActiveGate) {
  FaultSpec s;
  EXPECT_FALSE(s.active());
  s.seed = 99;  // a seed alone injects nothing
  EXPECT_FALSE(s.active());
  s.rate = 0.1;
  EXPECT_TRUE(s.active());
  s.rate = 0.0;
  s.chips = {3};
  EXPECT_TRUE(s.active());
}

TEST(FaultInject, RejectsInactiveAndBadSpecs) {
  sim::Network net;
  build_ft_swless(VcScheme::Baseline, RouteMode::Minimal, 0, net);
  EXPECT_THROW(topo::inject_faults(net, FaultSpec{}), std::invalid_argument);
  FaultSpec bad;
  bad.rate = 1.5;
  EXPECT_THROW(topo::inject_faults(net, bad), std::invalid_argument);
  FaultSpec chip;
  chip.chips = {9999};
  EXPECT_THROW(topo::inject_faults(net, chip), std::invalid_argument);
}

// -------------------------------------------------------------- injection ---

TEST(FaultInject, SameSeedSameSet_DifferentSeedDifferentSet) {
  const auto inject = [](double rate, std::uint64_t seed) {
    sim::Network net;
    build_ft_swless(VcScheme::Baseline, RouteMode::Minimal, 0, net);
    FaultSpec s;
    s.rate = rate;
    s.kind = FaultKind::Global;
    s.seed = seed;
    topo::inject_faults(net, s);
    return dead_channels(net);
  };
  EXPECT_EQ(inject(0.2, 7), inject(0.2, 7));
  EXPECT_NE(inject(0.2, 7), inject(0.2, 8));
}

TEST(FaultInject, HigherRateIsSupersetOfLowerRate) {
  // Same seed: the failure set is a prefix of one permutation, so sweeps
  // degrade monotonically instead of jumping between unrelated sets.
  const auto inject = [](double rate) {
    sim::Network net;
    build_ft_swless(VcScheme::Baseline, RouteMode::Minimal, 0, net);
    FaultSpec s;
    s.rate = rate;
    s.kind = FaultKind::Any;
    s.seed = 42;
    topo::inject_faults(net, s);
    return dead_channels(net);
  };
  const auto low = inject(0.1);
  const auto high = inject(0.25);
  EXPECT_GT(low.size(), 0u);
  EXPECT_GT(high.size(), low.size());
  EXPECT_TRUE(std::includes(high.begin(), high.end(), low.begin(),
                            low.end()));
}

TEST(FaultInject, RewritesPortTablesSoDeadLinksCannotSend) {
  sim::Network net;
  build_ft_swless(VcScheme::Baseline, RouteMode::Minimal, 3, net);
  kill_global_cable(net, 0, 1);
  const auto dead = dead_channels(net);
  ASSERT_EQ(dead.size(), 2u);
  for (const ChanId c : dead) {
    const auto& ch = net.chan(c);
    const std::uint32_t* rec =
        net.port_rec(net.out_port_index(ch.src, ch.src_port));
    EXPECT_EQ((rec[sim::Network::kLinkMeta] >> 16) & 0xff, 0u)
        << "token width not zeroed";
    EXPECT_EQ(rec[0] >> 16, 0u);  // token bucket (word 0 high half)
  }
  // The rewrite survives dynamic-state resets (sweeps reuse the network).
  net.reset_dynamic_state();
  for (const ChanId c : dead) {
    const auto& ch = net.chan(c);
    const std::uint32_t* rec =
        net.port_rec(net.out_port_index(ch.src, ch.src_port));
    EXPECT_EQ(rec[0] >> 16, 0u);
  }
}

TEST(FaultInject, StaticFaultsAreTheCapturedCycleZeroBaseline) {
  // The static set is applied as the model's cycle-0 level and captured as
  // the baseline; resets restore exactly it, and no online transition is
  // counted (the fault epoch is checkpointed).
  sim::Network net;
  build_ft_swless(VcScheme::Baseline, RouteMode::Minimal, 3, net);
  FaultSpec s;
  s.rate = 0.2;
  s.kind = FaultKind::Local;
  s.chips = {1};
  const auto rep = topo::inject_faults(net, s);
  EXPECT_TRUE(net.has_fault_baseline());
  EXPECT_EQ(net.fault_schedule(), nullptr);  // no timeline, no steps
  EXPECT_EQ(net.fault_epoch(), 0u);
  const auto dead = dead_channels(net);
  EXPECT_EQ(dead.size(), rep.dead_channels);
  net.reset_dynamic_state();
  EXPECT_EQ(dead_channels(net), dead);
  EXPECT_EQ(net.num_dead_nodes(), rep.dead_nodes);
  EXPECT_EQ(net.fault_epoch(), 0u);
}

TEST(FaultInject, ChipFaultKillsNodesAndLinks) {
  // g = 3: chip 0 hosts the wg0<->wg1 gateway, so its death must be routed
  // around through wg2 (with g = 2 the fabric would genuinely partition).
  sim::Network net;
  build_ft_swless(VcScheme::Baseline, RouteMode::Minimal, 3, net);
  FaultSpec s;
  s.chips = {0};
  const auto rep = topo::inject_faults(net, s);
  EXPECT_EQ(rep.failed_chips, 1u);
  EXPECT_EQ(rep.failed_cables, 0u);
  EXPECT_GT(rep.dead_channels, 0u);
  for (const NodeId n : net.chip_nodes(0)) {
    EXPECT_FALSE(net.node_live(n));
    for (std::size_t i = 0; i < net.num_channels(); ++i) {
      const auto& ch = net.chan(static_cast<ChanId>(i));
      if (ch.src == n || ch.dst == n)
        EXPECT_FALSE(net.chan_live(static_cast<ChanId>(i)));
    }
  }
  const auto audit = route::audit_cdg(net);
  EXPECT_GT(audit.skipped_dead, 0u);
  EXPECT_EQ(audit.unreachable, 0u) << audit.to_string(net);
}

// ------------------------------------------------- fault-aware routing ------

class FaultSchemeParam
    : public ::testing::TestWithParam<std::tuple<VcScheme, RouteMode>> {};

TEST_P(FaultSchemeParam, DetoursAroundOneDeadLocalCable) {
  const auto [scheme, mode] = GetParam();
  sim::Network net;
  build_ft_swless(scheme, mode, 3, net);
  kill_local_cable(net, 0, 0, 1);
  for (const NodeId s : net.terminals()) {
    for (const NodeId d : net.terminals()) {
      if (s == d) continue;
      const auto w = walk_route(net, s, d, -2);
      EXPECT_TRUE(w.delivered) << s << "->" << d;
      EXPECT_FALSE(w.used_dead_link) << s << "->" << d;
      EXPECT_LT(w.max_vc, net.num_vcs());
    }
  }
  const auto cdg = route::audit_cdg(net);
  EXPECT_TRUE(cdg.all_reachable()) << cdg.to_string(net);
  EXPECT_TRUE(cdg.acyclic) << cdg.to_string(net);
  EXPECT_EQ(cdg.undeliverable, 0u);
}

TEST_P(FaultSchemeParam, DetoursAroundOneDeadGlobalCable) {
  const auto [scheme, mode] = GetParam();
  sim::Network net;
  build_ft_swless(scheme, mode, 4, net);
  kill_global_cable(net, 0, 1);
  const auto& T = net.topo<topo::SwlessTopo>();
  for (const NodeId s : net.terminals()) {
    for (const NodeId d : net.terminals()) {
      if (s == d) continue;
      const auto w = walk_route(net, s, d, -2);
      EXPECT_TRUE(w.delivered) << s << "->" << d;
      EXPECT_FALSE(w.used_dead_link) << s << "->" << d;
      const auto gs = T.loc[static_cast<std::size_t>(s)].wg;
      const auto gd = T.loc[static_cast<std::size_t>(d)].wg;
      if ((gs == 0 && gd == 1) || (gs == 1 && gd == 0))
        EXPECT_EQ(w.global_hops, 2)
            << "dead direct gateway must cost exactly one bounce";
    }
  }
  const auto cdg = route::audit_cdg(net);
  EXPECT_TRUE(cdg.all_reachable()) << cdg.to_string(net);
  EXPECT_TRUE(cdg.acyclic) << cdg.to_string(net);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FaultSchemeParam,
    ::testing::Combine(::testing::Values(VcScheme::Baseline,
                                         VcScheme::ReducedSafe),
                       ::testing::Values(RouteMode::Minimal,
                                         RouteMode::Valiant,
                                         RouteMode::Adaptive)));

TEST(FaultRouting, SwdfDetoursAroundDeadGlobalAndLocalCables) {
  for (const auto mode : {RouteMode::Minimal, RouteMode::Valiant}) {
    sim::Network net;
    auto p = small_swdf_params(4, mode);
    p.fault_tolerant = true;
    topo::build_sw_dragonfly(net, p);
    const auto& T = net.topo<topo::SwDfTopo>();
    net.enable_fault_mask();
    // Kill the global cable between groups 0 and 1 and the local cable
    // between switches 0 and 1 of group 2.
    const int H = T.p.globals_per_switch;
    const int link = topo::SwDfTopo::global_link(0, 1);
    const ChanId g01 = T.global_chan[static_cast<std::size_t>(
        (0 * T.p.switches_per_group + link / H) * H + link % H)];
    net.disable_channel(g01);
    net.disable_channel(g01 % 2 == 0 ? g01 + 1 : g01 - 1);
    const ChanId l01 = T.local_chan[static_cast<std::size_t>(
        (2 * T.p.switches_per_group + 0) * (T.p.switches_per_group - 1) +
        topo::SwDfTopo::local_index(0, 1))];
    net.disable_channel(l01);
    net.disable_channel(l01 % 2 == 0 ? l01 + 1 : l01 - 1);

    for (const NodeId s : net.terminals()) {
      for (const NodeId d : net.terminals()) {
        if (s == d) continue;
        const auto w = walk_route(net, s, d, -2);
        EXPECT_TRUE(w.delivered) << s << "->" << d;
        EXPECT_FALSE(w.used_dead_link) << s << "->" << d;
        EXPECT_LT(w.max_vc, net.num_vcs());
      }
    }
    const auto cdg = route::audit_cdg(net);
    EXPECT_TRUE(cdg.all_reachable()) << cdg.to_string(net);
    EXPECT_TRUE(cdg.acyclic) << cdg.to_string(net);
  }
}

TEST(FaultRouting, RandomInjectionStaysAcyclicAndAuditsDeterministically) {
  for (const auto kind : {FaultKind::Local, FaultKind::Global}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      sim::Network net;
      build_ft_swless(VcScheme::Baseline, RouteMode::Minimal, 0, net);
      FaultSpec s;
      s.rate = 0.15;
      s.kind = kind;
      s.seed = seed;
      topo::inject_faults(net, s);
      // Degraded operation is a result, never a crash: the audit may find
      // unreachable pairs (a partitioned W-group), but it must be
      // deterministic and the dependency graph must stay acyclic.
      const auto cdg = route::audit_cdg(net);
      const auto again = route::audit_cdg(net);
      EXPECT_EQ(cdg.unreachable, again.unreachable);
      EXPECT_EQ(cdg.paths_walked, again.paths_walked);
      EXPECT_TRUE(cdg.acyclic)
          << "kind=" << topo::to_string(kind) << " seed=" << seed << ": "
          << cdg.to_string(net);
    }
  }
}

// ------------------------------------------------------- engine end to end ---

TEST(FaultScenario, RateZeroIsBitIdenticalToUnfaultedEngine) {
  auto base = tiny_fault_spec();
  auto zero = base;
  zero.fault.rate = 0.0;
  zero.fault.seed = 99;  // a seed alone must not change anything
  const auto a = core::run_scenario(base);
  const auto b = core::run_scenario(zero);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].res.accepted, b.points[i].res.accepted);
    EXPECT_EQ(a.points[i].res.avg_latency, b.points[i].res.avg_latency);
    EXPECT_EQ(a.points[i].res.delivered_total, b.points[i].res.delivered_total);
    EXPECT_EQ(a.points[i].res.flit_hops, b.points[i].res.flit_hops);
  }
}

TEST(FaultScenario, RepeatRunsAndThreadCountsAreBitIdentical) {
  auto spec = tiny_fault_spec();
  spec.rates = {0.1, 0.2};
  spec.fault.rate = 0.2;
  spec.fault.kind = FaultKind::Global;
  spec.fault.seed = 5;
  const auto serial1 = core::run_scenario(spec);
  const auto serial2 = core::run_scenario(spec);
  const auto parallel = core::run_scenario(spec, 0);  // auto
  const auto two = core::run_scenario(spec, 2);  // 1 shard per simulation
  ASSERT_EQ(serial1.points.size(), serial2.points.size());
  ASSERT_EQ(serial1.points.size(), parallel.points.size());
  ASSERT_EQ(serial1.points.size(), two.points.size());
  for (std::size_t i = 0; i < serial1.points.size(); ++i) {
    for (const auto* other : {&serial2, &parallel, &two}) {
      EXPECT_EQ(serial1.points[i].res.accepted,
                other->points[i].res.accepted);
      EXPECT_EQ(serial1.points[i].res.avg_latency,
                other->points[i].res.avg_latency);
      EXPECT_EQ(serial1.points[i].res.flit_hops,
                other->points[i].res.flit_hops);
    }
  }
}

TEST(FaultScenario, DegradedFabricStillDrainsAtLowLoad) {
  auto spec = tiny_fault_spec();
  spec.rates = {0.1};
  spec.fault.rate = 0.1;
  spec.fault.kind = FaultKind::Global;
  spec.fault.seed = 7;
  const auto series = core::run_scenario(spec);
  ASSERT_EQ(series.points.size(), 1u);
  EXPECT_TRUE(series.points[0].res.drained);
  EXPECT_GT(series.points[0].res.accepted, 0.0);
}

TEST(FaultScenario, ChipFaultSuppressesDeadTraffic) {
  auto spec = tiny_fault_spec();
  spec.rates = {0.1};
  spec.fault.chips = {0, 5};
  const auto series = core::run_scenario(spec);
  ASSERT_EQ(series.points.size(), 1u);
  EXPECT_TRUE(series.points[0].res.drained);
  EXPECT_GT(series.points[0].res.accepted, 0.0);
}

// ----------------------------------------------------------- scenario keys ---

TEST(FaultScenario, KeysParseSerializeAndValidate) {
  core::ScenarioSpec s;
  s.set("fault.rate", "0.25");
  s.set("fault.kind", "local");
  s.set("fault.seed", "17");
  s.set("fault.chips", "3, 7,11");
  EXPECT_DOUBLE_EQ(s.fault.rate, 0.25);
  EXPECT_EQ(s.fault.kind, FaultKind::Local);
  EXPECT_EQ(s.fault.seed, 17u);
  EXPECT_EQ(s.fault.chips, (std::vector<ChipId>{3, 7, 11}));
  EXPECT_TRUE(s.fault.active());

  const auto back = core::ScenarioSpec::from_kv(s.to_kv());
  EXPECT_EQ(back.to_kv(), s.to_kv());
  EXPECT_EQ(back.fault.kind, FaultKind::Local);
  EXPECT_EQ(back.fault.chips, s.fault.chips);

  // Fault-free specs round-trip without fault keys.
  EXPECT_EQ(core::ScenarioSpec{}.to_kv().count("fault.rate"), 0u);

  EXPECT_THROW(s.set("fault.rate", "1.5"), std::invalid_argument);
  EXPECT_THROW(s.set("fault.rate", "lots"), std::invalid_argument);
  EXPECT_THROW(s.set("fault.kind", "cosmic"), std::invalid_argument);
  EXPECT_THROW(s.set("fault.chips", "-1"), std::invalid_argument);
  EXPECT_THROW(s.set("fault.oops", "1"), std::invalid_argument);
}

TEST(FaultScenario, FaultObliviousTopologiesReject) {
  for (const char* name : {"cgroup-mesh", "crossbar"}) {
    core::ScenarioSpec s;
    s.topology = name;
    s.fault.rate = 0.1;
    sim::Network net;
    EXPECT_THROW(core::build_network(net, s), std::invalid_argument) << name;
  }
}

TEST(FaultScenario, FaultTolerantTopoKeyBuildsBudgetWithoutFaults) {
  // The resilience-baseline knob: same VC budget as the faulted points,
  // no mask, no injection.
  core::ScenarioSpec s;
  s.topology = "tiny-swless";
  s.topo["fault_tolerant"] = "1";
  sim::Network net;
  core::build_network(net, s);
  EXPECT_EQ(net.num_vcs(), route::swless_fault_num_vcs(
                               VcScheme::Baseline, RouteMode::Minimal));
  EXPECT_FALSE(net.has_fault_mask());
}

TEST(FaultScenario, ArmedButEmptyMaskIsBitIdenticalToSameBuild) {
  // A fault rate small enough to round to zero failures arms the mask but
  // kills nothing; routing must then make exactly the decisions of an
  // unfaulted fault-tolerant build (same rng stream, same results).
  auto plain = tiny_fault_spec();
  plain.mode = route::RouteMode::Valiant;
  plain.topo["g"] = "5";
  plain.topo["fault_tolerant"] = "1";
  auto armed = plain;
  armed.fault.rate = 0.04;  // 10 global cables at g=5: rounds to 0 failed
  armed.fault.kind = FaultKind::Global;
  {
    sim::Network net;
    core::build_network(net, armed);
    ASSERT_TRUE(net.has_fault_mask());
    ASSERT_FALSE(net.has_faults());
  }
  const auto a = core::run_scenario(plain);
  const auto b = core::run_scenario(armed);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].res.accepted, b.points[i].res.accepted);
    EXPECT_EQ(a.points[i].res.avg_latency, b.points[i].res.avg_latency);
    EXPECT_EQ(a.points[i].res.flit_hops, b.points[i].res.flit_hops);
  }
}

TEST(FaultScenario, FaultTolerantBuildReservesDetourVcBudget) {
  core::ScenarioSpec s;
  s.topology = "tiny-swless";
  s.fault.rate = 0.1;
  s.fault.kind = FaultKind::Global;
  sim::Network net;
  core::build_network(net, s);
  EXPECT_EQ(net.num_vcs(), route::swless_fault_num_vcs(
                               VcScheme::Baseline, RouteMode::Minimal));
  EXPECT_TRUE(net.has_fault_mask());
  EXPECT_GT(net.num_dead_channels(), 0u);
}
