// Online fault-timeline suite: the one fault grammar behind fault.events
// and fault.schedule files (typed FaultError with origin:line, mutation
// fuzz), resolution against the seeded
// permutation (verb validation, static-prefix equivalence), engine
// application (fail -> repair -> fail bit-identity across repeat runs and
// shard counts, rescue-vs-drop accounting, closed-loop failure surfacing),
// checkpoint/resume mid-timeline, the transient-vs-permanent audit, and
// the placement allocator's fault-epoch guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
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
      "sldf-faults 2\n"
      "# comment\n"
      "fail@100:global=0.1\n"
      "\n"
      "repair@200:global=0   # trailing comment\n"
      "fail@200:chip4\n");
  const auto tl = topo::parse_fault_schedule(ok, "ok.sched");
  ASSERT_EQ(tl.events.size(), 3u);
  EXPECT_EQ(tl.events[0].at, 100u);
  EXPECT_TRUE(tl.events[2].is_chip);

  std::istringstream bad(
      "sldf-faults 2\n"
      "fail@100:global=0.1\n"
      "fail@200:global=nope\n");
  try {
    topo::parse_fault_schedule(bad, "bad.sched");
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_NE(std::string(e.what()).find("bad.sched:3"), std::string::npos)
        << e.what();
  }
}

TEST(TimelineParse, ScheduleUnknownKindListsEveryKind) {
  // The schedule accepts every FaultKind, vertical included, so its
  // unknown-kind error must list the same kinds parse_fault_kind does.
  std::istringstream ok("sldf-faults 2\nfail@100:vertical=0.1\n");
  EXPECT_EQ(topo::parse_fault_schedule(ok, "ok.sched").events[0].kind,
            topo::FaultKind::Vertical);
  std::istringstream bad("sldf-faults 2\nfail@100:bogus=0.1\n");
  try {
    topo::parse_fault_schedule(bad, "bad.sched");
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_STREQ(e.what(),
                 "bad.sched:2: unknown fault kind 'bogus' (expected "
                 "any|intra|local|global|vertical)");
  }
}

TEST(TimelineParse, ScheduleHeaderAndFileErrors) {
  std::istringstream no_header("fail@100:global=0.1\n");
  EXPECT_THROW(topo::parse_fault_schedule(no_header, "x"), FaultError);
  std::istringstream empty("");
  EXPECT_THROW(topo::parse_fault_schedule(empty, "x"), FaultError);
  EXPECT_THROW(topo::load_fault_schedule("/nonexistent/faults.sched"),
               FaultError);
}

TEST(TimelineParse, ScheduleV1HeaderShowsTheNewForm) {
  std::istringstream v1("sldf-faults 1\nfail 100 global 0.1\n");
  try {
    topo::parse_fault_schedule(v1, "old.sched");
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("old.sched:1:"), std::string::npos) << what;
    EXPECT_NE(what.find("sldf-faults 2"), std::string::npos) << what;
    EXPECT_NE(what.find("fail@100:global=0.1"), std::string::npos) << what;
  }
}

TEST(TimelineParse, OneGrammarForInlineEventsAndFiles) {
  // A schedule body is the fault.events grammar: `;` and newlines both
  // separate events, `#` comments run to the end of the line, and errors
  // carry origin:line in both sources.
  const std::string body =
      "fail@100:global=0.1; fail@100:chip2  # two on one line\n"
      "repair@200:global=0\n";
  std::istringstream file("sldf-faults 2\n" + body);
  const auto from_file = topo::parse_fault_schedule(file, "f.sched");
  const auto inline_tl = topo::parse_fault_events(body);
  ASSERT_EQ(from_file.events.size(), 3u);
  ASSERT_EQ(inline_tl.events.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(topo::to_string(from_file.events[i]),
              topo::to_string(inline_tl.events[i]));
  EXPECT_EQ(topo::to_string(inline_tl.events[1]), "fail@100:chip2");
  EXPECT_EQ(topo::to_string(inline_tl.events[2]), "repair@200:global=0");
  try {
    topo::parse_fault_events("fail@1:local=0.1\nfail@0:local=0.2");
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_NE(std::string(e.what()).find("fault.events:2:"),
              std::string::npos)
        << e.what();
  }
  try {
    topo::parse_fault_events("fail@3:bogus=0.1");
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_STREQ(e.what(),
                 "fault.events:1: unknown fault kind 'bogus' (expected "
                 "any|intra|local|global|vertical)");
  }
}

namespace {

/// Every `fault.events` value the shipped configs use, as values and in
/// their `# smoke:` override flags.
std::vector<std::string> config_timelines() {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  for (const auto& entry :
       fs::recursive_directory_iterator(fs::path(SLDF_SOURCE_DIR) / "configs")) {
    if (entry.path().extension() != ".conf") continue;
    std::ifstream in(entry.path());
    for (std::string line; std::getline(in, line);) {
      const auto flag = line.find("--fault.events=");
      if (flag != std::string::npos) {
        const auto v = flag + std::string("--fault.events=").size();
        out.push_back(line.substr(v, line.find(' ', v) - v));
      } else if (line.rfind("fault.events", 0) == 0) {
        const auto eq = line.find('=');
        if (eq != std::string::npos) out.push_back(line.substr(eq + 1));
      }
    }
  }
  return out;
}

}  // namespace

TEST(TimelineParse, MutantsParseOrThrowFaultError) {
  // Fixed-seed mutation fuzz of the one fault grammar: every mutant of a
  // valid timeline, inline or behind a v2 header, must parse or throw
  // FaultError — never another exception, never a crash (CI runs this
  // under ASan+UBSan).
  std::vector<std::string> seeds = config_timelines();
  ASSERT_GE(seeds.size(), 3u) << "no fault.events values found in configs/";
  for (const char* tl :
       {"fail@2000:global=0.05; repair@5000:global=0 ;fail@5000:chip3",
        "fail@100:local=0.2;repair@300:local=0", "fail@10:local=0.2",
        "fail@150:local=0.2;repair@300:local=0.1;fail@450:local=0.25;"
        "repair@600:local=0",
        "fail@200:local=0.5;repair@650:local=0", "fail@80:chip1",
        "fail@100:local=0.3;repair@250:local=0.1;fail@400:local=0.35",
        "fail@100:global=1;repair@200:global=0",
        "fail@100:vertical=0.1 # bonds\nrepair@200:vertical=0\n"})
    seeds.emplace_back(tl);

  const std::uint64_t seed = sldf::testing::fuzz_seed(0x5eedfa17);
  SCOPED_TRACE("SLDF_FUZZ_SEED=" + std::to_string(seed));
  Rng rng(seed);
  const std::string alphabet = "fail@repair:chip=;#\n 0123456789.-eE+x";
  std::size_t parsed = 0, rejected = 0;
  const auto feed = [&](const std::string& text, auto&& parse) {
    try {
      parse(text);
      ++parsed;
    } catch (const FaultError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant '" << text << "' threw a non-FaultError: "
                    << e.what();
    }
  };
  for (int i = 0; i < 5000; ++i) {
    const std::string m = sldf::testing::mutate(
        seeds[rng.below(seeds.size())], rng, alphabet);
    feed(m, [](const std::string& t) { (void)topo::parse_fault_events(t); });
    feed(m, [](const std::string& t) {
      std::istringstream in("sldf-faults 2\n" + t);
      (void)topo::parse_fault_schedule(in, "fuzz.sched");
    });
  }
  // Both outcomes occur, so the mutants exercise the grammar's edges.
  EXPECT_GT(parsed, 500u);
  EXPECT_GT(rejected, 500u);
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

TEST(TimelineResolve, StaticChipsAreTheCycleZeroLevel) {
  // fault.chips is the model's cycle-0 state: the timeline may repair and
  // re-fail a statically dead chip, but not fail it again while dead.
  auto s = tiny_spec();
  s.fault.chips = {2};
  s.fault.events = "repair@50:chip2;fail@100:chip2";
  sim::Network net;
  core::build_network(net, s);
  std::vector<NodeId> chip = net.chip_nodes(2);
  std::sort(chip.begin(), chip.end());
  for (const NodeId n : chip) EXPECT_FALSE(net.node_live(n));
  const sim::FaultSchedule* sched = net.fault_schedule();
  ASSERT_NE(sched, nullptr);
  ASSERT_EQ(sched->steps.size(), 2u);
  EXPECT_EQ(sched->steps[0].repair_nodes, chip);
  EXPECT_EQ(sched->steps[1].fail_nodes, chip);
  EXPECT_EQ(sched->steps[0].repair_chans, sched->steps[1].fail_chans);
  EXPECT_EQ(net.fault_epoch(), 0u);

  s.fault.events = "fail@50:chip2";
  sim::Network again;
  EXPECT_THROW(core::build_network(again, s), FaultError);
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
  const auto r = core::run_workload_scenario(s);
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
  for (const auto* other : {&b, &c}) {
    EXPECT_EQ(a.completed, other->completed);
    EXPECT_EQ(a.cycles, other->cycles);
    EXPECT_EQ(a.packets, other->packets);
    EXPECT_EQ(a.packets_delivered, other->packets_delivered);
    EXPECT_EQ(a.flit_hops, other->flit_hops);
    EXPECT_EQ(a.failed_messages, other->failed_messages);
    EXPECT_EQ(a.orphaned_messages, other->orphaned_messages);
    EXPECT_EQ(a.dropped_packets, other->dropped_packets);
    EXPECT_EQ(a.rescued_packets, other->rescued_packets);
    EXPECT_EQ(a.avg_msg_cycles, other->avg_msg_cycles);
  }
}

// ------------------------------------------------------ engine-state audit ---

namespace {

/// Checks, from first principles, the engine state a fault step must leave
/// consistent for the pipeline (it tears VCs down and hands credits back so
/// that flow control survives a later repair):
///   - per channel VC: upstream credits + downstream FIFO flits + flits in
///     flight + credits in flight == vc_buf;
///   - a port's SA requesters are exactly the Active input VCs granted it;
///   - an output VC is busy exactly when one Active input VC holds it;
///   - a Routed input VC is pending or parked on its output VC's chain,
///     a chain holds nothing else, and only a busy output VC has one;
///   - ract[r] >> 1 is the number of flits buffered at router r.
/// Returns the first violation ("" when the state is consistent).
std::string audit_engine_state(const sim::Network& net,
                               const sim::SimContext& ctx) {
  const auto nvc = static_cast<std::uint32_t>(net.num_vcs());
  const sim::FlitFifoArena& fifos = net.fifos();
  std::ostringstream err;
  std::vector<std::uint32_t> wheel_flits(fifos.num_fifos(), 0);
  std::vector<std::uint32_t> wheel_credits(
      static_cast<std::size_t>(net.num_out_ports()) * nvc, 0);
  for (const auto& slot : ctx.wheel) {
    for (const sim::WheelEvent& ev : slot) {
      if (ev.flit.carries_packet()) {
        ++wheel_flits[ev.vc_flat];
        continue;
      }
      const std::uint32_t pflat = ev.vc_flat >> sim::Network::kPortLaneBits;
      const std::uint32_t lane = ev.vc_flat & sim::Network::kLaneMask;
      ++wheel_credits[pflat * nvc + (lane - sim::Network::kOvcLane0)];
    }
  }
  for (std::size_t c = 0; c < net.num_channels(); ++c) {
    const sim::Channel& ch = net.chan(static_cast<ChanId>(c));
    const std::uint32_t pflat = net.out_port_index(ch.src, ch.src_port);
    const std::uint16_t* ov = sim::Network::ovc16(net.port_rec(pflat));
    for (std::uint32_t v = 0; v < nvc; ++v) {
      const std::uint32_t ix = ch.dst_vc_base + v;
      const std::uint32_t sum = (ov[v] >> 1) + fifos.size(ix) +
                                wheel_flits[ix] +
                                wheel_credits[pflat * nvc + v];
      if (sum != static_cast<std::uint32_t>(net.vc_buf()))
        err << "channel " << c << " vc " << v << ": credits " << (ov[v] >> 1)
            << " + buffered " << fifos.size(ix) << " + flits in flight "
            << wheel_flits[ix] << " + credits in flight "
            << wheel_credits[pflat * nvc + v] << " != vc_buf " << net.vc_buf();
      if (!err.str().empty()) return err.str();
    }
  }
  // Which output VC's waiter chain each input VC is parked on.
  std::vector<std::uint32_t> parked_on(fifos.num_fifos(), sim::kNoWaiter);
  for (std::uint32_t ovc = 0; ovc < ctx.ovc_waiters.size(); ++ovc) {
    const bool busy =
        (sim::Network::ovc16(net.port_rec(ovc / nvc))[ovc % nvc] & 1) != 0;
    if (ctx.ovc_waiters[ovc] != sim::kNoWaiter && !busy)
      return "input VCs wait on free output VC " + std::to_string(ovc);
    for (std::uint32_t w = ctx.ovc_waiters[ovc]; w != sim::kNoWaiter;
         w = ctx.ivc_wait_next[w]) {
      if (parked_on[w] != sim::kNoWaiter)
        return "input VC " + std::to_string(w) + " is parked twice";
      parked_on[w] = ovc;
    }
  }
  std::vector<std::uint32_t> active_of_port(net.num_out_ports(), 0);
  std::vector<std::uint32_t> holders(wheel_credits.size(), 0);
  const auto pending = [&](std::uint32_t ix) {
    return ((ctx.ivc_pending[ix >> 6] >> (ix & 63)) & 1) != 0;
  };
  for (std::size_t r = 0; r < net.num_routers(); ++r) {
    const auto rid = static_cast<NodeId>(r);
    std::uint32_t buffered = 0;
    for (std::uint32_t p = 0; p < net.num_in_ports_of(rid); ++p) {
      for (std::uint32_t v = 0; v < nvc; ++v) {
        const std::uint32_t ix =
            net.in_vc_index(rid, static_cast<PortIx>(p), static_cast<VcIx>(v));
        buffered += fifos.size(ix);
        const std::uint32_t meta = fifos.meta(ix);
        const sim::IvcState st = sim::Network::ivc_state_of(meta);
        if (st != sim::IvcState::Routed && parked_on[ix] != sim::kNoWaiter)
          return "input VC " + std::to_string(ix) +
                 " is parked on a waiter chain but not Routed";
        if (st == sim::IvcState::Idle) continue;
        const std::uint32_t pflat = net.out_port_index(
            rid, static_cast<PortIx>(sim::Network::ivc_port_of(meta)));
        const std::uint32_t ovc = pflat * nvc + sim::Network::ivc_vc_of(meta);
        if (st == sim::IvcState::Active) {
          ++active_of_port[pflat];
          ++holders[ovc];
          const std::uint32_t* rec = net.port_rec(pflat);
          const std::uint16_t* reqs = sim::Network::ovc16(rec) + nvc;
          const auto enc = static_cast<std::uint16_t>((p << 8) | v);
          if (std::find(reqs, reqs + (rec[0] & 0xff), enc) ==
              reqs + (rec[0] & 0xff))
            err << "Active input VC " << ix << " missing from port " << pflat
                << "'s requesters";
        } else if (parked_on[ix] != sim::kNoWaiter
                       ? parked_on[ix] != ovc
                       : !pending(ix)) {  // Routed
          err << "Routed input VC " << ix << " is neither pending nor "
              << "parked on its output VC " << ovc;
        }
        if (!err.str().empty()) return err.str();
      }
    }
    if ((ctx.ract[r] >> 1) != buffered)
      return "router " + std::to_string(r) + ": ract counts " +
             std::to_string(ctx.ract[r] >> 1) + " buffered flits, FIFOs hold " +
             std::to_string(buffered);
  }
  for (std::uint32_t pflat = 0; pflat < net.num_out_ports(); ++pflat) {
    const std::uint32_t* rec = net.port_rec(pflat);
    if ((rec[0] & 0xff) != active_of_port[pflat])
      return "port " + std::to_string(pflat) + ": " +
             std::to_string(rec[0] & 0xff) + " SA requesters, " +
             std::to_string(active_of_port[pflat]) + " Active input VCs";
    for (std::uint32_t v = 0; v < nvc; ++v) {
      const bool busy = (sim::Network::ovc16(rec)[v] & 1) != 0;
      if (holders[pflat * nvc + v] != (busy ? 1u : 0u))
        return "output VC " + std::to_string(pflat * nvc + v) + ": busy " +
               std::to_string(busy) + ", held by " +
               std::to_string(holders[pflat * nvc + v]) + " Active input VCs";
    }
  }
  return "";
}

}  // namespace

TEST(EngineAudit, FailRepairFailKeepsFlowControlConsistent) {
  auto s = tiny_spec();
  // Fault seed 3 at saturation tears down Active and Routed (VA-blocked)
  // VCs both on dying ports and owned by destroyed packets: cable and chip
  // deaths, repairs, and a second wave of failures over the repaired state.
  s.fault.seed = 3;
  s.fault.events =
      "fail@150:local=0.3;fail@150:global=0.3;repair@300:local=0.1;"
      "fail@450:local=0.25;fail@450:chip1;repair@600:local=0;"
      "repair@600:global=0";
  for (const int shards : {1, 2}) {
    sim::Network net;
    core::build_network(net, s);
    const auto pattern = traffic::make_pattern("uniform", net, {});
    sim::SimConfig cfg = s.sim;
    cfg.inj_rate_per_chip = 0.9;
    cfg.shards = shards;
    sim::SimContext ctx;
    sim::Simulator sim(net, cfg, *pattern, ctx);
    while (sim.now() < 800) {
      sim.step();
      const std::string bad = audit_engine_state(net, ctx);
      ASSERT_EQ(bad, "") << "shards=" << shards << ", after cycle "
                         << sim.now() - 1;
    }
    EXPECT_GT(sim.dropped_packets() + sim.rescued_packets(), 0u)
        << "the timeline tore no packet apart";
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
