// Workload-engine tests: generator graph structure, closed-loop execution
// determinism (repeat runs and threads=1 vs threads=auto bit-identical for
// fixed seeds), tiny-topology golden completion times per generator, and
// failure modes (dependency cycles, malformed graphs).
#include <gtest/gtest.h>

#include <tuple>

#include "core/docgen.hpp"
#include "core/scenario.hpp"
#include "topo/hier.hpp"
#include "traffic/pattern.hpp"
#include "workload/collectives.hpp"
#include "workload/registry.hpp"
#include "workload/workload.hpp"

using namespace sldf;
using namespace sldf::workload;

namespace {

/// tiny-swless: a=1, b=3, g=5 -> 15 C-groups of 4 chips, 60 chips total;
/// every chip has one terminal node (1x1 NoC).
sim::Network tiny_net() {
  core::ScenarioSpec spec;
  spec.topology = "tiny-swless";
  sim::Network net;
  core::build_network(net, spec);
  return net;
}

// ---- generator graph structure ------------------------------------------

TEST(WorkloadGraphs, ChipGroupsPartitionByScope) {
  auto net = tiny_net();
  const auto cg = chip_groups(net, Scope::CGroup);
  const auto wg = chip_groups(net, Scope::WGroup);
  const auto sys = chip_groups(net, Scope::System);
  EXPECT_EQ(cg.size(), 15u);
  for (const auto& g : cg) EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(wg.size(), 5u);
  for (const auto& g : wg) EXPECT_EQ(g.size(), 12u);
  ASSERT_EQ(sys.size(), 1u);
  EXPECT_EQ(sys[0].size(), 60u);
}

TEST(WorkloadGraphs, RingAllreduceShape) {
  auto net = tiny_net();
  // Rings of N=4: 2*(N-1) = 6 steps, one message per chip per step.
  const auto g = ring_allreduce(net, Scope::CGroup, 512, 1, 1);
  EXPECT_EQ(g.messages.size(), 15u * 4u * 6u);
  EXPECT_EQ(g.num_phases, 6);
  // Segment = ceil(512/4) = 128 flits on every message; step-0 messages
  // are roots, later steps depend on exactly the predecessor's previous
  // send.
  for (std::size_t m = 0; m < g.messages.size(); ++m) {
    const auto& spec = g.messages[m];
    EXPECT_EQ(spec.flits, 128u);
    EXPECT_EQ(spec.deps.size(), spec.phase == 0 ? 0u : 1u);
    if (!spec.deps.empty()) {
      const auto& dep = g.messages[spec.deps[0]];
      EXPECT_EQ(dep.phase, spec.phase - 1);
      EXPECT_EQ(dep.dst, spec.src);  // pred's send arrived at this chip
    }
  }
}

TEST(WorkloadGraphs, RingChunksSplitSegments) {
  auto net = tiny_net();
  const auto g = ring_allreduce(net, Scope::CGroup, 512, 2, 1);
  EXPECT_EQ(g.messages.size(), 2u * 15u * 4u * 6u);
  for (const auto& m : g.messages) EXPECT_EQ(m.flits, 64u);
}

TEST(WorkloadGraphs, HalvingDoublingShape) {
  auto net = tiny_net();
  // N=4 is a power of two: no pre/post fold, 2*log2(4) = 4 exchange steps
  // of 4 messages per ring; phase layout reserves pre/post slots.
  const auto g = halving_doubling_allreduce(net, Scope::CGroup, 512, 1);
  EXPECT_EQ(g.messages.size(), 15u * 4u * 4u);
  EXPECT_EQ(g.num_phases, 2 * 2 + 2);
  // Halving step 0 sends half the vector, step 1 a quarter; doubling
  // mirrors back up.
  std::uint64_t flits_by_phase[6] = {};
  for (const auto& m : g.messages) {
    if (flits_by_phase[m.phase] == 0) flits_by_phase[m.phase] = m.flits;
    EXPECT_EQ(flits_by_phase[m.phase], m.flits);
  }
  EXPECT_EQ(flits_by_phase[1], 256u);
  EXPECT_EQ(flits_by_phase[2], 128u);
  EXPECT_EQ(flits_by_phase[3], 128u);
  EXPECT_EQ(flits_by_phase[4], 256u);
}

TEST(WorkloadGraphs, HalvingDoublingFoldsNonPowerOfTwo) {
  auto net = tiny_net();
  // W-group rings have N=12: pow=8, 4 extras fold in (pre) and out (post).
  const auto g = halving_doubling_allreduce(net, Scope::WGroup, 512, 1);
  EXPECT_EQ(g.messages.size(), 5u * (4u + 8u * 3u + 8u * 3u + 4u));
  std::size_t pre = 0, post = 0;
  for (const auto& m : g.messages) {
    if (m.phase == 0) ++pre;
    if (m.phase == g.num_phases - 1) ++post;
  }
  EXPECT_EQ(pre, 5u * 4u);
  EXPECT_EQ(post, 5u * 4u);
}

TEST(WorkloadGraphs, TreeAllreduceShape) {
  auto net = tiny_net();
  // Binomial tree over N=4: 3 reduce + 3 broadcast full-vector messages.
  const auto g = tree_allreduce(net, Scope::CGroup, 512, 1);
  EXPECT_EQ(g.messages.size(), 15u * 6u);
  EXPECT_EQ(g.num_phases, 4);
  for (const auto& m : g.messages) EXPECT_EQ(m.flits, 512u);
}

TEST(WorkloadGraphs, AllToAllShape) {
  auto net = tiny_net();
  // N=4: 3 shifted rounds, every chip sends one message per round; the
  // sender window chains round r to round r-1.
  const auto g = all_to_all(net, Scope::CGroup, 64, 1, 1);
  EXPECT_EQ(g.messages.size(), 15u * 4u * 3u);
  EXPECT_EQ(g.num_phases, 3);
  for (const auto& m : g.messages) {
    EXPECT_NE(m.src, m.dst);
    EXPECT_EQ(m.deps.size(), m.phase == 0 ? 0u : 1u);
  }
}

TEST(WorkloadGraphs, Stencil3dShape) {
  auto net = tiny_net();
  // 4 chips -> 1x2x2 periodic grid: 2 deduplicated face neighbours per
  // cell, so 8 messages per C-group per iteration.
  const auto g = stencil3d(net, Scope::CGroup, 64, 2, true);
  EXPECT_EQ(g.messages.size(), 2u * 15u * 8u);
  EXPECT_EQ(g.num_phases, 2);
  for (const auto& m : g.messages)
    EXPECT_EQ(m.deps.size(), m.phase == 0 ? 0u : 2u);
}

TEST(WorkloadGraphs, ExternalMessagesAreNarrowed) {
  auto net = tiny_net();
  const auto& hier = net.topo<topo::HierTopo>();
  const auto g = ring_allreduce(net, Scope::WGroup, 512, 1, 1);
  for (const auto& m : g.messages) {
    const bool external =
        hier.chip_cgroup[static_cast<std::size_t>(m.src)] !=
        hier.chip_cgroup[static_cast<std::size_t>(m.dst)];
    EXPECT_EQ(m.stripe, external ? 1 : 0);
  }
}

// ---- closed-loop execution ----------------------------------------------

TEST(WorkloadRun, GoldenCompletionTimes) {
  auto net = tiny_net();
  WorkloadRunConfig rc;
  const auto cycles = [&](WorkloadGraph g) {
    return run_workload(net, g, rc).cycles;
  };
  // Golden values for the tiny-swless instance (fixed engine + schedule;
  // an intentional change to either updates these in one place).
  EXPECT_EQ(cycles(ring_allreduce(net, Scope::CGroup, 512, 1, 1)), 773u);
  EXPECT_EQ(cycles(ring_allreduce(net, Scope::CGroup, 512, 2, 2)), 1536u);
  EXPECT_EQ(cycles(halving_doubling_allreduce(net, Scope::CGroup, 512, 1)),
            773u);
  EXPECT_EQ(cycles(tree_allreduce(net, Scope::CGroup, 512, 1)), 2053u);
  EXPECT_EQ(cycles(all_to_all(net, Scope::CGroup, 64, 1, 1)), 195u);
  EXPECT_EQ(cycles(stencil3d(net, Scope::CGroup, 64, 2, true)), 259u);
  EXPECT_EQ(cycles(ring_allreduce(net, Scope::WGroup, 512, 1, 1)), 1903u);
  EXPECT_EQ(cycles(halving_doubling_allreduce(net, Scope::WGroup, 512, 1)),
            4584u);
}

TEST(WorkloadRun, RepeatRunsBitIdentical) {
  auto net = tiny_net();
  WorkloadRunConfig rc;
  const auto g = ring_allreduce(net, Scope::CGroup, 512, 2, 1);
  const auto a = run_workload(net, g, rc);
  const auto b = run_workload(net, g, rc);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.flit_hops, b.flit_hops);
  EXPECT_EQ(a.avg_msg_cycles, b.avg_msg_cycles);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i)
    EXPECT_EQ(a.phases[i].completed, b.phases[i].completed);
}

TEST(WorkloadRun, IdleSkipBitIdenticalOnClosedLoopDrainTail) {
  // Closed-loop drain tails are where idle elision bites hardest: between
  // a phase's last ejection and the next timed release the fabric is
  // empty, and the runner lets the engine jump those stretches
  // (Simulator::try_skip_idle bounded by the next release). The skipping
  // run must match the stepping run on every ledger field, including the
  // per-phase completion times.
  auto net = tiny_net();
  for (const auto& g :
       {tree_allreduce(net, Scope::CGroup, 512, 1),
        ring_allreduce(net, Scope::WGroup, 512, 2, 1)}) {
    WorkloadRunConfig rc;
    rc.sim.idle_skip = false;
    const auto scan = run_workload(net, g, rc);
    rc.sim.idle_skip = true;
    const auto skip = run_workload(net, g, rc);
    EXPECT_EQ(scan.cycles, skip.cycles);
    EXPECT_EQ(scan.packets, skip.packets);
    EXPECT_EQ(scan.flit_hops, skip.flit_hops);
    EXPECT_EQ(scan.avg_msg_cycles, skip.avg_msg_cycles);
    ASSERT_EQ(scan.phases.size(), skip.phases.size());
    for (std::size_t i = 0; i < scan.phases.size(); ++i)
      EXPECT_EQ(scan.phases[i].completed, skip.phases[i].completed);
  }
}

TEST(WorkloadRun, ThreadCountDoesNotAffectResults) {
  // A workload series is one closed-loop simulation, one task of the
  // batch's pool; 1 worker, 2 workers (a rate sweep beside it) and
  // auto must agree.
  core::ScenarioSpec spec;
  spec.topology = "tiny-swless";
  spec.workload = "ring-allreduce";
  spec.workload_opts["scope"] = "cgroup";
  spec.workload_opts["kib"] = "8";
  core::ScenarioSpec sweep;
  sweep.topology = "tiny-swless";
  sweep.rates = {0.1, 0.2};
  sweep.sim.warmup = 50;
  sweep.sim.measure = 100;
  sweep.sim.drain = 100;
  const auto a = core::run_batch({spec}, 1);
  for (const unsigned threads : {0u, 2u}) {
    const auto b = core::run_batch({sweep, spec}, threads);
    ASSERT_EQ(a[0].error, "");
    ASSERT_EQ(b[1].error, "");
    EXPECT_EQ(a[0].result.totals.cycles, b[1].result.totals.cycles);
    EXPECT_EQ(a[0].result.totals.flit_hops, b[1].result.totals.flit_hops);
    EXPECT_EQ(a[0].result.rows, b[1].result.rows);  // gbps_per_chip included
  }
}

TEST(WorkloadRun, ReportsPhasesAndBandwidth) {
  auto net = tiny_net();
  WorkloadRunConfig rc;
  rc.flit_bytes = 16.0;
  const auto r = run_workload(net, ring_allreduce(net, Scope::CGroup, 512,
                                                  1, 1),
                              rc);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.chips, 60);
  EXPECT_EQ(r.messages, 360u);
  EXPECT_EQ(r.flits, 360u * 128u);
  ASSERT_EQ(r.phases.size(), 6u);
  for (std::size_t i = 1; i < r.phases.size(); ++i)
    EXPECT_GT(r.phases[i].completed, r.phases[i - 1].completed);
  EXPECT_EQ(r.phases.back().completed, r.cycles);
  const double expect_gbps = static_cast<double>(r.flits) * rc.flit_bytes /
                             (static_cast<double>(r.cycles) * r.chips);
  EXPECT_DOUBLE_EQ(r.gbps_per_chip, expect_gbps);
}

TEST(WorkloadRun, DependencyCycleThrows) {
  auto net = tiny_net();
  WorkloadGraph g;
  g.name = "cycle";
  const MsgId a = g.add(0, 1, 4, 0);
  const MsgId b = g.add(1, 2, 4, 0);
  g.messages[a].deps.push_back(b);
  g.messages[b].deps.push_back(a);
  WorkloadRunConfig rc;
  EXPECT_THROW(run_workload(net, g, rc), std::runtime_error);
}

TEST(WorkloadRun, ValidatesGraphs) {
  auto net = tiny_net();
  WorkloadRunConfig rc;
  {
    WorkloadGraph g;  // empty
    g.name = "empty";
    EXPECT_THROW(run_workload(net, g, rc), std::invalid_argument);
  }
  {
    WorkloadGraph g;
    g.name = "self";
    g.add(3, 3, 4, 0);
    EXPECT_THROW(run_workload(net, g, rc), std::invalid_argument);
  }
  {
    WorkloadGraph g;
    g.name = "badchip";
    g.add(0, static_cast<ChipId>(net.num_chips()), 4, 0);
    EXPECT_THROW(run_workload(net, g, rc), std::invalid_argument);
  }
  {
    WorkloadGraph g;
    g.name = "baddep";
    const MsgId a = g.add(0, 1, 4, 0);
    g.messages[a].deps.push_back(42);
    EXPECT_THROW(run_workload(net, g, rc), std::invalid_argument);
  }
}

TEST(WorkloadRun, MaxCyclesAborts) {
  auto net = tiny_net();
  WorkloadRunConfig rc;
  rc.max_cycles = 10;  // far too short for a 512-flit vector
  const auto r = run_workload(net, ring_allreduce(net, Scope::CGroup, 512,
                                                  1, 1),
                              rc);
  EXPECT_FALSE(r.completed);
  EXPECT_LE(r.cycles, 10u);
}

// ---- registry + scenario integration ------------------------------------

TEST(WorkloadRegistry, BuiltinsRegistered) {
  auto& reg = WorkloadRegistry::instance();
  for (const char* name :
       {"ring-allreduce", "halving-doubling-allreduce", "tree-allreduce",
        "all-to-all", "stencil-3d"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_FALSE(reg.doc(name).summary.empty());
    EXPECT_FALSE(reg.doc(name).options.empty());
  }
}

TEST(WorkloadRegistry, KibTranslatesThroughFlitBytes) {
  auto net = tiny_net();
  WorkloadEnv env;
  env.flit_bytes = 32.0;
  const auto g = make_workload("ring-allreduce", net,
                               {{"kib", "8"}, {"scope", "cgroup"}}, env);
  // 8 KiB / 32 B = 256 flits per vector, segments of 64.
  EXPECT_EQ(g.messages.front().flits, 64u);
}

TEST(WorkloadRegistry, UnknownOptionThrows) {
  auto net = tiny_net();
  WorkloadEnv env;
  EXPECT_THROW(
      make_workload("ring-allreduce", net, {{"bogus", "1"}}, env),
      std::invalid_argument);
  EXPECT_THROW(make_workload("nope", net, {}, env), std::invalid_argument);
}

// A payload whose flit count does not fit 64 bits is rejected naming its
// option: converting such a double to std::uint64_t is undefined.
TEST(WorkloadRegistry, PayloadsPastSixtyFourBitsOfFlitsAreRejected) {
  const auto net = tiny_net();
  const WorkloadEnv env;
  using Case = std::pair<const char*, const char*>;
  for (const auto& [name, key] :
       std::vector<Case>{{"all-to-all", "kib"},
                         {"ring-allreduce", "kib"},
                         {"request-reply", "req_kib"},
                         {"request-reply", "rep_kib"}}) {
    SCOPED_TRACE(std::string(name) + "." + key);
    try {
      (void)make_workload(name, net, {{key, "1e30"}}, env);
      ADD_FAILURE() << "1e30 KiB accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("workload '") + name +
                                           "': option '" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // 2^40 KiB is 2^46 flits of 16 bytes: it fits.
  EXPECT_NO_THROW(
      (void)make_workload("all-to-all", net, {{"kib", "1099511627776"}}, env));
}

// The request-reply seed is 64 bits wide like trace.seed: a seed that
// differs from 1 only above bit 31 must change the arrivals, not wrap to 1.
TEST(WorkloadRegistry, RequestReplySeedsTakeTheFullUnsignedRange) {
  const auto net = tiny_net();
  const auto arrivals = [&net](const char* key, const char* seed) {
    core::ScenarioSpec spec;
    spec.topology = "tiny-swless";
    spec.workload = "request-reply";
    spec.set(key, seed);
    std::vector<std::tuple<ChipId, ChipId, Cycle>> out;
    for (const auto& m : core::make_workload_graph(spec, net).messages)
      out.emplace_back(m.src, m.dst, m.issue);
    return out;
  };
  for (const char* key : {"trace.seed", "workload.seed"})
    EXPECT_NE(arrivals(key, "4294967297"), arrivals(key, "1")) << key;
  EXPECT_THROW(arrivals("workload.seed", "-1"), std::invalid_argument);
}

// Runner keys are range-checked like every option: sizes and clocks are
// positive, the horizon is a positive cycle count.
TEST(WorkloadScenario, RunnerKeysRejectOutOfRangeValues) {
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{{"flit_bytes", "0"},
                                                        {"freq_ghz", "nan"},
                                                        {"max_cycles", "0"},
                                                        {"max_cycles", "-5"},
                                                        {"kib", "0"}}) {
    core::ScenarioSpec spec;
    spec.topology = "tiny-swless";
    spec.workload = "all-to-all";
    spec.workload_opts[key] = value;
    try {
      (void)core::make_workload_graph(spec, tiny_net());
      ADD_FAILURE() << key << "=" << value << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("option '" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(WorkloadScenario, KeysRoundTrip) {
  core::ScenarioSpec spec;
  spec.set("workload", "ring-allreduce");
  spec.set("workload.kib", "64");
  spec.set("workload.scope", "wgroup");
  const auto kv = spec.to_kv();
  EXPECT_EQ(kv.at("workload"), "ring-allreduce");
  EXPECT_EQ(kv.at("workload.kib"), "64");
  const auto back = core::ScenarioSpec::from_kv(kv);
  EXPECT_EQ(back.workload, "ring-allreduce");
  EXPECT_EQ(back.workload_opts.at("scope"), "wgroup");
}

TEST(WorkloadScenario, RateSweepRunnerRejectsWorkloadSpecs) {
  core::ScenarioSpec spec;
  spec.workload = "ring-allreduce";
  EXPECT_THROW(core::run_scenario(spec), std::invalid_argument);
  core::ScenarioSpec sweep;
  EXPECT_THROW(core::run_workload_scenario(sweep), std::invalid_argument);
}

TEST(WorkloadScenario, RunnerKeysConsumedBeforeGenerator) {
  core::ScenarioSpec spec;
  spec.topology = "tiny-swless";
  spec.workload = "ring-allreduce";
  spec.workload_opts["scope"] = "cgroup";
  spec.workload_opts["kib"] = "8";
  spec.workload_opts["flit_bytes"] = "32";
  spec.workload_opts["freq_ghz"] = "2";
  spec.workload_opts["max_cycles"] = "1000000";
  const auto run = core::run_workload_scenario(spec);
  EXPECT_TRUE(run.completed);
  // 8 KiB at 32 B/flit: 256-flit vectors, and GB/s doubles with the clock.
  EXPECT_EQ(run.flits,
            60u * 6u * 64u);  // 60 chips, 6 steps, 64-flit segments
}

TEST(Docgen, ReferenceCoversRegistries) {
  const std::string doc = core::render_scenario_reference();
  EXPECT_NE(doc.find("### Scenario key reference"), std::string::npos);
  EXPECT_NE(doc.find("`workload.<opt>`"), std::string::npos);
  for (const auto& name : core::TopologyRegistry::instance().names())
    EXPECT_NE(doc.find("**`" + name + "`**"), std::string::npos) << name;
  for (const auto& name : traffic::TrafficRegistry::instance().names())
    EXPECT_NE(doc.find("**`" + name + "`**"), std::string::npos) << name;
  for (const auto& name : WorkloadRegistry::instance().names())
    EXPECT_NE(doc.find("**`" + name + "`**"), std::string::npos) << name;
}

}  // namespace
