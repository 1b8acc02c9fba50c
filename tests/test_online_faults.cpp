// Online fault-timeline suite: the fault.events / fault.schedule parsers
// (typed FaultError with origin:line), resolution against the seeded
// permutation (verb validation, static-prefix equivalence), engine
// application (fail -> repair -> fail bit-identity across repeat runs and
// shard counts, rescue-vs-drop accounting, closed-loop failure surfacing),
// checkpoint/resume mid-timeline, the transient-vs-permanent audit, and
// the placement allocator's fault-epoch guard.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/scenario.hpp"
#include "sim/simulator.hpp"
#include "test_fixtures.hpp"
#include "topo/faults.hpp"
#include "trace/placement.hpp"
#include "traffic/pattern.hpp"

using namespace sldf;
using sldf::testing::expect_bit_identical;
using topo::FaultError;
using topo::FaultKind;

namespace {

/// Base open-loop spec on the tiny switch-less instance.
core::ScenarioSpec tiny_spec() {
  core::ScenarioSpec s;
  s.topology = "tiny-swless";
  s.traffic = "uniform";
  s.rates = {0.2};
  s.sim.warmup = 100;
  s.sim.measure = 300;
  s.sim.drain = 600;
  s.sim.seed = 11;
  return s;
}

std::set<ChanId> dead_channels(const sim::Network& net) {
  std::set<ChanId> dead;
  for (std::size_t i = 0; i < net.num_channels(); ++i)
    if (!net.chan_live(static_cast<ChanId>(i)))
      dead.insert(static_cast<ChanId>(i));
  return dead;
}

}  // namespace

// ---------------------------------------------------------------- parsing ---

TEST(TimelineParse, EventsGrammar) {
  const auto tl = topo::parse_fault_events(
      "fail@2000:global=0.05; repair@5000:global=0 ;fail@5000:chip3");
  ASSERT_EQ(tl.events.size(), 3u);
  EXPECT_TRUE(tl.events[0].fail);
  EXPECT_EQ(tl.events[0].at, 2000u);
  EXPECT_FALSE(tl.events[0].is_chip);
  EXPECT_EQ(tl.events[0].kind, FaultKind::Global);
  EXPECT_DOUBLE_EQ(tl.events[0].rate, 0.05);
  EXPECT_FALSE(tl.events[1].fail);
  EXPECT_DOUBLE_EQ(tl.events[1].rate, 0.0);
  EXPECT_TRUE(tl.events[2].is_chip);
  EXPECT_EQ(tl.events[2].chip, 3);
}

TEST(TimelineParse, EventsRejectsMalformed) {
  EXPECT_THROW(topo::parse_fault_events("fail2000:global=0.1"), FaultError);
  EXPECT_THROW(topo::parse_fault_events("die@3:global=0.1"), FaultError);
  EXPECT_THROW(topo::parse_fault_events("fail@3:global=1.5"), FaultError);
  EXPECT_THROW(topo::parse_fault_events("fail@3:bogus=0.1"), FaultError);
  EXPECT_THROW(topo::parse_fault_events("fail@3"), FaultError);
  EXPECT_THROW(topo::parse_fault_events("fail@x:chip2"), FaultError);
  EXPECT_THROW(topo::parse_fault_events("fail@3:chip-2"), FaultError);
  // Non-decreasing cycle order is part of the grammar.
  EXPECT_THROW(
      topo::parse_fault_events("fail@9:global=0.1;fail@5:local=0.1"),
      FaultError);
}

TEST(TimelineParse, ScheduleFormatAndOriginLine) {
  std::istringstream ok(
      "sldf-faults 1\n"
      "# comment\n"
      "fail 100 global 0.1\n"
      "\n"
      "repair 200 global 0   # trailing comment\n"
      "fail 200 chip 4\n");
  const auto tl = topo::parse_fault_schedule(ok, "ok.sched");
  ASSERT_EQ(tl.events.size(), 3u);
  EXPECT_EQ(tl.events[0].at, 100u);
  EXPECT_TRUE(tl.events[2].is_chip);

  std::istringstream bad(
      "sldf-faults 1\n"
      "fail 100 global 0.1\n"
      "fail 200 global nope\n");
  try {
    topo::parse_fault_schedule(bad, "bad.sched");
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_NE(std::string(e.what()).find("bad.sched:3"), std::string::npos)
        << e.what();
  }
}

TEST(TimelineParse, ScheduleHeaderAndFileErrors) {
  std::istringstream no_header("fail 100 global 0.1\n");
  EXPECT_THROW(topo::parse_fault_schedule(no_header, "x"), FaultError);
  std::istringstream empty("");
  EXPECT_THROW(topo::parse_fault_schedule(empty, "x"), FaultError);
  EXPECT_THROW(topo::load_fault_schedule("/nonexistent/faults.sched"),
               FaultError);
}

// ------------------------------------------------------------- resolution ---

TEST(TimelineResolve, VerbsMustMatchLevels) {
  // A repair that raises a level, a fail that lowers one, and a repair of
  // a live chip are all verb errors caught at build time.
  for (const char* events :
       {"repair@10:global=0.1", "fail@10:global=0.2;fail@20:global=0.1",
        "repair@10:chip0", "fail@10:chip2;fail@20:chip2"}) {
    auto s = tiny_spec();
    s.fault.events = events;
    sim::Network net;
    EXPECT_THROW(core::build_network(net, s), FaultError) << events;
  }
}

TEST(TimelineResolve, StepMatchesStaticInjectionPrefix) {
  // The cables a timeline fails at rate r are exactly the set a static
  // injection at rate r kills (same seed, shared permutation prefix).
  auto stat = tiny_spec();
  stat.fault.rate = 0.2;
  stat.fault.kind = FaultKind::Local;
  stat.fault.seed = 5;
  sim::Network net_static;
  core::build_network(net_static, stat);

  auto tl = tiny_spec();
  tl.fault.seed = 5;
  tl.fault.events = "fail@10:local=0.2";
  sim::Network net_tl;
  core::build_network(net_tl, tl);
  const sim::FaultSchedule* sched = net_tl.fault_schedule();
  ASSERT_NE(sched, nullptr);
  ASSERT_EQ(sched->steps.size(), 1u);
  EXPECT_EQ(sched->steps[0].at, 10u);
  const std::set<ChanId> from_step(sched->steps[0].fail_chans.begin(),
                                   sched->steps[0].fail_chans.end());
  EXPECT_EQ(from_step, dead_channels(net_static));
  EXPECT_TRUE(dead_channels(net_tl).empty());  // nothing dead at cycle 0
}

// ---------------------------------------------------------- scenario keys ---

TEST(TimelineScenario, KeysParseSerializeAndValidate) {
  core::ScenarioSpec s;
  s.set("fault.events", "fail@100:local=0.2;repair@300:local=0");
  s.set("fault.rescue", "0");
  EXPECT_TRUE(s.fault.has_timeline());
  EXPECT_FALSE(s.fault.rescue);
  const auto kv = s.to_kv();
  const auto round = core::ScenarioSpec::from_kv(kv);
  EXPECT_EQ(round.fault.events, s.fault.events);
  EXPECT_EQ(round.fault.rescue, s.fault.rescue);
  // Inline grammar is validated at set() time with the typed error.
  EXPECT_THROW(s.set("fault.events", "fail@oops"), FaultError);
  // A timeline alone forces the fault-tolerant build.
  core::ScenarioSpec t;
  t.set("fault.events", "fail@5:local=0.1");
  EXPECT_TRUE(t.topo_config().fault_tolerant);
}

TEST(TimelineScenario, EventsAndScheduleAreExclusive) {
  auto s = tiny_spec();
  s.fault.events = "fail@10:local=0.1";
  s.fault.schedule = "whatever.sched";
  sim::Network net;
  EXPECT_THROW(core::build_network(net, s), FaultError);
}

TEST(TimelineScenario, EmptyTimelineIsBitIdenticalToUnfaulted) {
  // rate = 0 plus a timeline that parses to zero events arms the mask and
  // attaches an empty schedule — and must change nothing.
  auto plain = tiny_spec();
  plain.topo["fault_tolerant"] = "1";  // same VC budget on both builds
  auto timeline = plain;
  timeline.fault.events = " ; ";  // parses to an empty event list
  timeline.fault.seed = 99;       // a seed alone must not change anything
  const auto a = core::run_scenario(plain);
  const auto b = core::run_scenario(timeline);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i)
    expect_bit_identical(a.points[i].res, b.points[i].res);
}

TEST(TimelineScenario, FutureEventsNeverFireAndChangeNothing) {
  auto plain = tiny_spec();
  plain.topo["fault_tolerant"] = "1";
  auto timeline = plain;
  timeline.fault.events = "fail@1000000:global=0.5";
  const auto a = core::run_scenario(plain);
  const auto b = core::run_scenario(timeline);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i)
    expect_bit_identical(a.points[i].res, b.points[i].res);
}

// ------------------------------------------------------------- the engine ---

TEST(TimelineRun, FailRepairFailBitIdenticalAcrossRunsAndShards) {
  auto s = tiny_spec();
  s.fault.seed = 5;
  // The final repair revives every cable so packets parked on dead exits
  // (no live detour existed) move again and the run drains completely.
  s.fault.events =
      "fail@150:local=0.2;repair@300:local=0.1;fail@450:local=0.25;"
      "repair@600:local=0";
  sim::Network net;
  core::build_network(net, s);
  const auto pattern = traffic::make_pattern("uniform", net, {});
  sim::SimConfig cfg = s.sim;
  // Well below the degraded fabric's saturation point, so the drain window
  // can actually land every measured packet once the last repair fires.
  cfg.inj_rate_per_chip = 0.1;
  cfg.shards = 1;
  const auto a = sim::run_sim(net, cfg, *pattern);
  const auto b = sim::run_sim(net, cfg, *pattern);  // repeat, same net
  cfg.shards = 2;
  const auto c = sim::run_sim(net, cfg, *pattern);  // sharded engine
  expect_bit_identical(a, b);
  expect_bit_identical(a, c);
  EXPECT_TRUE(a.drained);
  EXPECT_GT(a.delivered_total, 0u);
  EXPECT_TRUE(sldf::testing::audit_conservation(a));
}

TEST(TimelineRun, RescueAndDropAccountTheSameTornPackets) {
  // One fail event, identical engine trajectory up to it: the set of torn
  // packets is the same, so rescue-mode rescues exactly what drop-mode
  // drops. The late repair revives the cables so both runs drain: dropped
  // packets are terminal, rescued ones re-deliver once the fabric heals.
  auto s = tiny_spec();
  s.fault.seed = 5;
  s.fault.events = "fail@200:local=0.5;repair@650:local=0";
  auto sd = s;
  sd.fault.rescue = false;
  sim::SimConfig cfg = s.sim;
  cfg.inj_rate_per_chip = 0.1;  // below degraded saturation: both runs drain

  sim::Network net_r;
  core::build_network(net_r, s);
  const auto pat_r = traffic::make_pattern("uniform", net_r, {});
  const auto rescued = sim::run_sim(net_r, cfg, *pat_r);

  sim::Network net_d;
  core::build_network(net_d, sd);
  const auto pat_d = traffic::make_pattern("uniform", net_d, {});
  const auto dropped = sim::run_sim(net_d, cfg, *pat_d);

  EXPECT_GT(rescued.rescued_packets, 0u);
  EXPECT_EQ(rescued.dropped_packets, 0u);  // every endpoint stays alive
  EXPECT_EQ(dropped.rescued_packets, 0u);
  EXPECT_EQ(dropped.dropped_packets, rescued.rescued_packets);
  EXPECT_TRUE(rescued.drained);
  EXPECT_TRUE(dropped.drained);
  // The ledger closes in both accounting modes: rescue re-credits the
  // already-ejected prefix as regenerated work, drop writes it off as lost.
  EXPECT_TRUE(sldf::testing::audit_conservation(rescued));
  EXPECT_TRUE(sldf::testing::audit_conservation(dropped));
}

TEST(TimelineRun, ClosedLoopChipDeathSurfacesFailures) {
  // A chip dying mid-AllReduce must fail/orphan its messages and let the
  // run terminate with the loss reported, never hang waiting on them.
  auto s = tiny_spec();
  s.workload = "ring-allreduce";
  s.workload_opts["scope"] = "cgroup";
  s.workload_opts["kib"] = "8";
  s.workload_opts["max_cycles"] = "200000";
  s.fault.events = "fail@80:chip1";
  const auto run = core::run_workload_scenario(s);
  const auto& r = run.result;
  EXPECT_FALSE(r.completed);
  EXPECT_GT(r.failed_messages + r.orphaned_messages, 0u);
  // Only C-group 0's ring touches chip 1; the other rings complete, so
  // most messages still finish.
  EXPECT_GT(r.messages, r.failed_messages + r.orphaned_messages);
  EXPECT_LT(r.cycles, 200000u);
}

TEST(TimelineRun, ClosedLoopFailRepairFailBitIdenticalAcrossShards) {
  auto s = tiny_spec();
  s.workload = "ring-allreduce";
  s.workload_opts["scope"] = "cgroup";
  s.workload_opts["kib"] = "8";
  s.fault.seed = 5;
  s.fault.events =
      "fail@100:local=0.3;repair@250:local=0.1;fail@400:local=0.35";
  const auto a = core::run_workload_scenario(s);
  const auto b = core::run_workload_scenario(s);
  auto sh = s;
  sh.sim.shards = 2;
  const auto c = core::run_workload_scenario(sh);
  for (const auto* other : {&b.result, &c.result}) {
    EXPECT_EQ(a.result.completed, other->completed);
    EXPECT_EQ(a.result.cycles, other->cycles);
    EXPECT_EQ(a.result.packets, other->packets);
    EXPECT_EQ(a.result.packets_delivered, other->packets_delivered);
    EXPECT_EQ(a.result.flit_hops, other->flit_hops);
    EXPECT_EQ(a.result.failed_messages, other->failed_messages);
    EXPECT_EQ(a.result.orphaned_messages, other->orphaned_messages);
    EXPECT_EQ(a.result.dropped_packets, other->dropped_packets);
    EXPECT_EQ(a.result.rescued_packets, other->rescued_packets);
    EXPECT_EQ(a.result.avg_msg_cycles, other->avg_msg_cycles);
  }
}

// ----------------------------------------------------- checkpoint / resume ---

TEST(Checkpoint, MidTimelineResumeMatchesUninterruptedRun) {
  auto s = tiny_spec();
  s.fault.seed = 5;
  s.fault.events = "fail@150:local=0.3;repair@400:local=0";
  sim::SimConfig cfg = s.sim;
  cfg.inj_rate_per_chip = 0.2;

  const auto build = [&](sim::Network& net) { core::build_network(net, s); };

  // Golden: one uninterrupted run.
  sim::Network net_a;
  build(net_a);
  const auto pat_a = traffic::make_pattern("uniform", net_a, {});
  sim::Simulator a(net_a, cfg, *pat_a);
  const sim::SimResult golden = a.run();

  // Checkpoint at cycle 200 — after the fail, before the repair.
  sim::Network net_b;
  build(net_b);
  const auto pat_b = traffic::make_pattern("uniform", net_b, {});
  sim::Simulator b(net_b, cfg, *pat_b);
  while (b.now() < 200) b.step();
  std::stringstream ck;
  b.save_checkpoint(ck);

  // Resume in a fresh engine over a fresh build and finish the run.
  sim::Network net_c;
  build(net_c);
  const auto pat_c = traffic::make_pattern("uniform", net_c, {});
  sim::Simulator c(net_c, cfg, *pat_c);
  c.restore_checkpoint(ck);
  EXPECT_EQ(c.now(), 200u);
  const sim::SimResult resumed = c.run();
  expect_bit_identical(golden, resumed);
}

// Truncation and corrupt structure are covered in test_checkpoint.cpp.
TEST(Checkpoint, RejectsConfigMismatch) {
  auto s = tiny_spec();
  sim::Network net;
  core::build_network(net, s);
  const auto pat = traffic::make_pattern("uniform", net, {});
  sim::SimConfig cfg = s.sim;
  sim::Simulator a(net, cfg, *pat);
  while (a.now() < 50) a.step();
  std::stringstream ck;
  a.save_checkpoint(ck);

  // Different seed = different config fingerprint.
  sim::Network net2;
  core::build_network(net2, s);
  const auto pat2 = traffic::make_pattern("uniform", net2, {});
  sim::SimConfig other = cfg;
  other.seed = cfg.seed + 1;
  sim::Simulator b(net2, other, *pat2);
  EXPECT_THROW(b.restore_checkpoint(ck), std::runtime_error);
}

// -------------------------------------------------------------- audit_at ---

TEST(AuditAt, SeparatesTransientFromPermanentPartitions) {
  auto s = tiny_spec();
  s.fault.events = "fail@100:global=1;repair@200:global=0";
  sim::Network net;
  core::build_network(net, s);
  const auto dead_before = dead_channels(net);

  const auto before = topo::audit_at(net, 50);
  EXPECT_TRUE(before.snapshot.all_reachable());
  EXPECT_FALSE(before.transiently_partitioned());

  const auto during = topo::audit_at(net, 150);
  EXPECT_GT(during.snapshot.unreachable, 0u);  // every global cable dead
  EXPECT_TRUE(during.transiently_partitioned());
  EXPECT_FALSE(during.permanently_partitioned());
  EXPECT_FALSE(during.to_string().empty());

  // The audit rewinds the mask: the network is unchanged.
  EXPECT_EQ(dead_channels(net), dead_before);

  // Without the repair the partition is permanent.
  auto p = tiny_spec();
  p.fault.events = "fail@100:global=1";
  sim::Network net2;
  core::build_network(net2, p);
  const auto perm = topo::audit_at(net2, 150);
  EXPECT_TRUE(perm.permanently_partitioned());
  EXPECT_FALSE(perm.transiently_partitioned());
}

TEST(AuditAt, RequiresAnAttachedSchedule) {
  auto s = tiny_spec();
  sim::Network net;
  core::build_network(net, s);
  EXPECT_THROW(topo::audit_at(net, 10), FaultError);
}

// ----------------------------------------------------- placement vs repair ---

TEST(PlacementEpoch, AllocatorRejectsStaleFreeListAfterFaultTransition) {
  auto s = tiny_spec();
  s.fault.events = "fail@100:local=0.2;repair@300:local=0";
  sim::Network net;
  core::build_network(net, s);

  trace::PlacementAllocator alloc(net);
  EXPECT_EQ(alloc.allocate(2, trace::PlacementPolicy::Contiguous, "t0").size(),
            2u);

  // Run the timeline: fault steps bump the network's fault epoch.
  const auto pattern = traffic::make_pattern("uniform", net, {});
  sim::SimConfig cfg = s.sim;
  cfg.inj_rate_per_chip = 0.1;
  (void)sim::run_sim(net, cfg, *pattern);

  EXPECT_THROW(alloc.allocate(1, trace::PlacementPolicy::Contiguous, "t1"),
               ScenarioError);
  EXPECT_THROW(alloc.reserve({5}, "t1"), ScenarioError);
  // A fresh allocator against the current mask works again.
  trace::PlacementAllocator fresh(net);
  EXPECT_EQ(
      fresh.allocate(2, trace::PlacementPolicy::Contiguous, "t0").size(), 2u);
}
