// Tests for the declarative scenario layer: spec parse/serialize
// round-trips, CLI and config-file parsing, registry lookups of every
// built-in topology preset and traffic kind, and the error paths for
// unknown names/keys/values.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "core/docgen.hpp"
#include "core/scenario.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "test_fixtures.hpp"
#include "traffic/pattern.hpp"

using namespace sldf;
using core::ScenarioSpec;

namespace {

ScenarioSpec full_spec() {
  ScenarioSpec s;
  s.label = "round-trip";
  s.topology = "radix16-swless";
  s.topo["g"] = "3";
  s.topo["mesh_width"] = "2";
  s.mode = route::RouteMode::Valiant;
  s.scheme = route::VcScheme::ReducedSafe;
  s.traffic = "ring-allreduce";
  s.traffic_opts["scope"] = "wgroup";
  s.traffic_opts["bidir"] = "1";
  s.rates = {0.125, 0.25, 0.5};
  s.stop_latency_factor = 6.5;
  s.sim.warmup = 123;
  s.sim.measure = 456;
  s.sim.drain = 78;
  s.sim.pkt_len = 2;
  s.sim.seed = 99;
  s.sim.max_src_queue = 17;
  return s;
}

}  // namespace

// ------------------------------------------------------------ spec set/kv ---

TEST(ScenarioSpec, RoundTripsThroughKv) {
  const ScenarioSpec s = full_spec();
  const auto kv = s.to_kv();
  const ScenarioSpec back = ScenarioSpec::from_kv(kv);
  EXPECT_EQ(back.to_kv(), kv);
  EXPECT_EQ(back.label, "round-trip");
  EXPECT_EQ(back.mode, route::RouteMode::Valiant);
  EXPECT_EQ(back.scheme, route::VcScheme::ReducedSafe);
  EXPECT_EQ(back.rates, s.rates);
  EXPECT_EQ(back.topo.at("mesh_width"), "2");
  EXPECT_EQ(back.traffic_opts.at("bidir"), "1");
  EXPECT_EQ(back.sim.seed, 99u);
}

TEST(ScenarioSpec, ToConfigReparsesIdentically) {
  const ScenarioSpec s = full_spec();
  const auto series = core::parse_scenario_text(s.to_config());
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].to_kv(), s.to_kv());
}

TEST(ScenarioSpec, LinspaceWhenNoExplicitRates) {
  ScenarioSpec s;
  s.max_rate = 1.0;
  s.points = 4;
  const auto rates = s.effective_rates();
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_DOUBLE_EQ(rates.front(), 0.25);
  EXPECT_DOUBLE_EQ(rates.back(), 1.0);
}

// How many simulations run at once is `sldf --threads`, not part of a
// spec: the results do not depend on it.
TEST(ScenarioSpec, ThreadsIsNoScenarioKey) {
  ScenarioSpec s;
  EXPECT_THROW(s.set("threads", "4"), std::invalid_argument);
  EXPECT_EQ(s.to_kv().count("threads"), 0u);
  EXPECT_GE(core::resolve_threads(0), 1u);
  EXPECT_EQ(core::resolve_threads(3), 3u);
}

TEST(ScenarioSpec, UnknownKeyThrows) {
  ScenarioSpec s;
  EXPECT_THROW(s.set("topolgy", "radix16-swless"), std::invalid_argument);
}

TEST(ScenarioSpec, MalformedValuesThrow) {
  ScenarioSpec s;
  EXPECT_THROW(s.set("points", "six"), std::invalid_argument);
  EXPECT_THROW(s.set("max_rate", "1.0x"), std::invalid_argument);
  EXPECT_THROW(s.set("mode", "psychic"), std::invalid_argument);
  EXPECT_THROW(s.set("scheme", "none"), std::invalid_argument);
  EXPECT_THROW(s.set("rates", "0.1,oops"), std::invalid_argument);
}

// --------------------------------------------------------------- key table ---

namespace {

/// A non-default sample setting for one key-table row: the concrete key
/// (the row's own name unless it is a family), its value, and the keys
/// that engage the row's axis so to_kv() writes it.
struct KeySample {
  std::string name;
  std::string value;
  std::vector<std::pair<std::string, std::string>> needs;
};

/// One sample per row, keyed by row name. Adding a key row without a
/// sample here fails KeyTable.EveryRowRoundTripsASample.
const std::map<std::string, KeySample>& key_samples() {
  static const std::map<std::string, KeySample> samples = [] {
    std::map<std::string, KeySample> m;
    const auto add = [&m](const std::string& row, KeySample s) {
      if (s.name.empty()) s.name = row;
      m.emplace(row, std::move(s));
    };
    add("label", {"", "sampled", {}});
    add("topology", {"", "tiny-swless", {}});
    add("topo.<param>", {"topo.g", "3", {}});
    add("mode", {"", "valiant", {}});
    add("scheme", {"", "reduced", {}});
    add("traffic", {"", "worst-case", {}});
    add("traffic.<opt>", {"traffic.scope", "wgroup", {}});
    add("workload", {"", "ring-allreduce", {}});
    add("workload.<opt>", {"workload.kib", "64", {}});
    add("rates", {"", "0.125, 0.5", {}});
    add("max_rate", {"", "0.75", {}});
    add("points", {"", "3", {}});
    add("stop_factor", {"", "6.5", {}});
    add("shards", {"", "2", {}});
    add("warmup", {"", "123", {}});
    add("measure", {"", "456", {}});
    add("drain", {"", "78", {}});
    add("pkt_len", {"", "65535", {}});
    add("seed", {"", "18446744073709551615", {}});
    add("max_src_queue", {"", "17", {}});
    add("fault.rate", {"", "0.25", {}});
    add("fault.kind", {"", "local", {}});
    add("fault.seed", {"", "17", {}});
    add("fault.chips", {"", "3, 7,11", {}});
    add("fault.events", {"", "fail@100:local=0.2;repair@300:local=0", {}});
    add("fault.schedule", {"", "faults.txt", {}});
    add("fault.rescue", {"", "0", {}});
    add("fault.plane", {"", "1", {}});
    add("plane.count", {"", "2", {}});
    add("plane.mix", {"", "tiny-swless,swless", {{"plane.count", "2"}}});
    add("plane.policy", {"", "rr", {{"plane.count", "2"}}});
    add("wafer.count", {"", "2", {}});
    add("wafer.latency", {"", "5", {{"wafer.count", "2"}}});
    add("wafer.width", {"", "1/4", {{"wafer.count", "2"}}});
    add("tenants", {"", "2", {}});
    add("tenants.isolation", {"", "0", {}});
    add("tenant<i>.workload", {"tenant1.workload", "all-to-all", {}});
    add("tenant<i>.placement", {"tenant0.placement", "scattered", {}});
    add("tenant<i>.chips", {"tenant0.chips", "4,5", {}});
    add("tenant<i>.<opt>", {"tenant2.kib", "16", {}});
    add("trace.file", {"", "configs/tenant-inference.trace", {}});
    add("trace.seed", {"", "18446744073709551615", {}});
    return m;
  }();
  return samples;
}

}  // namespace

TEST(KeyTable, EveryRowRoundTripsASample) {
  for (const core::ScenarioKey& row : core::scenario_key_table()) {
    SCOPED_TRACE(row.key);
    const auto it = key_samples().find(row.key);
    ASSERT_NE(it, key_samples().end()) << "no sample value for this row";
    const KeySample& sample = it->second;
    EXPECT_EQ(core::find_scenario_key(sample.name), &row);
    ScenarioSpec base;
    for (const auto& [k, v] : sample.needs) base.set(k, v);
    ScenarioSpec s = base;
    s.set(sample.name, sample.value);
    const auto kv = s.to_kv();
    EXPECT_EQ(kv.count(sample.name), 1u) << "sample not emitted";
    EXPECT_NE(kv, base.to_kv()) << "sample is the default";
    EXPECT_EQ(ScenarioSpec::from_kv(kv).to_kv(), kv);
    const auto reparsed = core::parse_scenario_text(s.to_config());
    ASSERT_EQ(reparsed.size(), 1u);
    EXPECT_EQ(reparsed[0].to_kv(), kv);
    // Exactly the keys build_network() consumes move the serve-mode cache
    // key, pinned here independently of the rows' own network bits.
    static const std::set<std::string> kShapesNetwork = {
        "topology",      "topo.<param>",   "mode",         "scheme",
        "fault.rate",    "fault.kind",     "fault.seed",   "fault.chips",
        "fault.events",  "fault.schedule", "fault.rescue", "fault.plane",
        "plane.count",   "plane.mix",      "plane.policy", "wafer.count",
        "wafer.latency", "wafer.width"};
    EXPECT_EQ(row.network, kShapesNetwork.count(row.key) == 1);
    EXPECT_EQ(core::network_cache_key(s) != core::network_cache_key(base),
              row.network);
  }
}

TEST(KeyTable, EveryRowHasADocRowAndFixedKeysAreUnique) {
  const std::string doc = core::render_scenario_reference();
  std::set<std::string> names;
  for (const core::ScenarioKey& row : core::scenario_key_table()) {
    EXPECT_TRUE(names.insert(row.key).second) << "duplicate row " << row.key;
    EXPECT_FALSE(row.help.empty()) << row.key;
    EXPECT_FALSE(row.def.empty()) << row.key;
    EXPECT_NE(doc.find("| `" + row.key + "` | " + row.help + " | `" +
                       row.def + "` |"),
              std::string::npos)
        << row.key;
    if (row.key.find('<') == std::string::npos) {
      EXPECT_EQ(core::find_scenario_key(row.key), &row) << row.key;
    }
  }
}

TEST(KeyTable, FamilyPatternsMatchOnlyWellFormedKeys) {
  EXPECT_EQ(core::find_scenario_key("tenant12.window")->key,
            "tenant<i>.<opt>");
  EXPECT_EQ(core::find_scenario_key("tenant3.chips")->key, "tenant<i>.chips");
  EXPECT_EQ(core::find_scenario_key("tenants")->key, "tenants");
  for (const char* bad : {"topo.", "tenant", "tenant0", "tenant0.", "tenantx.a",
                          "fault.bogus", "wafer.", "warmup.x", "labelx"})
    EXPECT_EQ(core::find_scenario_key(bad), nullptr) << bad;
  ScenarioSpec s;
  EXPECT_THROW(s.set("tenant64.workload", "all-to-all"),
               std::invalid_argument);
}

TEST(KeyTable, NetworkCacheKeyIgnoresPerRunKeys) {
  ScenarioSpec a;
  a.topo["g"] = "2";
  a.set("fault.rate", "0.1");
  ScenarioSpec b = a;
  b.set("seed", "7");
  b.set("rates", "0.1,0.2");
  b.set("traffic", "bit-reverse");
  b.set("label", "other");
  EXPECT_EQ(core::network_cache_key(a), core::network_cache_key(b));
  EXPECT_EQ(core::network_cache_key(a),
            "fault.rate=0.1;mode=minimal;scheme=baseline;topo.g=2;"
            "topology=radix16-swless;");
}

// A signed parse would wrap `seed = -1` to 2^64 - 1, a value --print then
// emits and the parser must read back: seeds are unsigned, full range.
TEST(KeyTable, SeedsTakeTheFullUnsignedRangeAndNoSign) {
  for (const char* key : {"seed", "fault.seed", "trace.seed"}) {
    ScenarioSpec s;
    EXPECT_THROW(s.set(key, "-1"), std::invalid_argument) << key;
    EXPECT_THROW(s.set(key, "+1"), std::invalid_argument) << key;
    EXPECT_THROW(s.set(key, "18446744073709551616"), std::invalid_argument)
        << key;
    s.set(key, "18446744073709551615");
    const auto back = core::parse_scenario_text(s.to_config());
    EXPECT_EQ(back.at(0).to_kv().at(key), "18446744073709551615") << key;
  }
}

// A negative cycle count would wrap to ~2^64 cycles.
TEST(KeyTable, CycleCountsRejectNegatives) {
  ScenarioSpec s;
  for (const char* key : {"warmup", "measure", "drain"}) {
    EXPECT_THROW(s.set(key, "-1"), std::invalid_argument) << key;
    s.set(key, "0");
  }
  EXPECT_EQ(s.sim.warmup + s.sim.measure + s.sim.drain, 0u);
}

// pkt_len = 0 would run with nan latencies, and values above 65535 would
// truncate in the 16-bit Packet::len.
TEST(KeyTable, PacketLengthFitsThePacketHeader) {
  ScenarioSpec s;
  EXPECT_THROW(s.set("pkt_len", "0"), std::invalid_argument);
  EXPECT_THROW(s.set("pkt_len", "65536"), std::invalid_argument);
  s.set("pkt_len", "1");
  s.set("pkt_len", "65535");
  EXPECT_EQ(s.sim.pkt_len, 65535);
}

// points = -2 would die in vector::reserve instead of a typed error.
TEST(KeyTable, SweepAndQueueCountsArePositive) {
  ScenarioSpec s;
  for (const char* key : {"points", "max_src_queue"}) {
    EXPECT_THROW(s.set(key, "0"), std::invalid_argument) << key;
    EXPECT_THROW(s.set(key, "-2"), std::invalid_argument) << key;
    EXPECT_THROW(s.set(key, "4294967296"), std::invalid_argument) << key;
  }
  s.set("points", "1");
  EXPECT_EQ(s.effective_rates().size(), 1u);
}

// wafer.latency is a channel latency: Channel::latency is 8 bits wide.
TEST(KeyTable, WaferLatencyFitsTheChannel) {
  ScenarioSpec s;
  try {
    s.set("wafer.latency", "300");
    ADD_FAILURE() << "wafer.latency = 300 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'wafer.latency'"),
              std::string::npos)
        << e.what();
  }
  s.set("wafer.latency", "255");
  EXPECT_EQ(s.wafer_latency, 255);
}

// An offered load is finite and not negative; any other fails at parse
// time, naming its key.
TEST(KeyTable, OfferedLoadsAreFiniteAndNotNegative) {
  for (const char* key : {"rates", "max_rate"}) {
    for (const char* bad : {"-0.5", "inf", "-inf", "nan", "1e999"}) {
      SCOPED_TRACE(std::string(key) + " = " + bad);
      ScenarioSpec s;
      try {
        s.set(key, bad);
        ADD_FAILURE() << "accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  ScenarioSpec s;
  s.set("rates", "0,0.5");
  EXPECT_EQ(s.rates, (std::vector<double>{0.0, 0.5}));
  s.set("max_rate", "0");
  EXPECT_EQ(s.max_rate, 0.0);
}

// Only 0 turns the early stop off: a negative or infinite factor would do
// the same silently, so it fails at parse time, naming its key.
TEST(KeyTable, StopFactorIsFiniteAndNotNegative) {
  for (const char* bad : {"-3", "inf", "-inf", "nan", "1e999"}) {
    SCOPED_TRACE(std::string("stop_factor = ") + bad);
    ScenarioSpec s;
    try {
      s.set("stop_factor", bad);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'stop_factor'"),
                std::string::npos)
          << e.what();
    }
  }
  ScenarioSpec s;
  s.set("stop_factor", "0");
  EXPECT_EQ(s.stop_latency_factor, 0.0);
  s.set("stop_factor", "2.5");
  EXPECT_EQ(s.stop_latency_factor, 2.5);
}

// Every boolean key takes 0/1 and true/false and prints 0/1.
TEST(KeyTable, BooleansTakeEverySpelling) {
  for (const char* key : {"fault.rescue", "tenants.isolation"}) {
    ScenarioSpec s;
    s.set(key, "false");
    EXPECT_EQ(s.to_kv().at(key), "0") << key;
    s.set(key, "true");
    EXPECT_EQ(s.to_kv().count(key), 0u) << key << " = 1 is the default";
    s.set(key, "0");
    s.set(key, "1");
    EXPECT_TRUE(s.fault.rescue && s.tenants_isolation) << key;
    EXPECT_THROW(s.set(key, "2"), std::invalid_argument) << key;
  }
}

// ----------------------------------------------------------------- parsing ---

TEST(ScenarioParse, CliFlagsBecomeSpec) {
  const char* argv[] = {"prog",
                        "--topology=tiny-swless",
                        "--traffic=worst-case",
                        "--mode=valiant",
                        "--scheme=reduced",
                        "--topo.g=4",
                        "--traffic.hot_groups=2",
                        "--max_rate=0.5",
                        "--points=3",
                        "--my-driver-flag=7"};
  const Cli cli(10, const_cast<char**>(argv));
  std::vector<std::string> unused;
  const auto s = core::spec_from_cli(cli, {}, &unused);
  EXPECT_EQ(s.topology, "tiny-swless");
  EXPECT_EQ(s.traffic, "worst-case");
  EXPECT_EQ(s.mode, route::RouteMode::Valiant);
  EXPECT_EQ(s.scheme, route::VcScheme::Reduced);
  EXPECT_EQ(s.topo.at("g"), "4");
  EXPECT_EQ(s.traffic_opts.at("hot_groups"), "2");
  EXPECT_DOUBLE_EQ(s.max_rate, 0.5);
  EXPECT_EQ(s.points, 3);
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "my-driver-flag");
}

TEST(ScenarioParse, CliRecognizesEveryKeyFamilyThroughTheTable) {
  const char* argv[] = {"prog", "--fault.rate=0.1", "--plane.count=2",
                        "--wafer.latency=3", "--trace.seed=4",
                        "--tenant1.kib=8", "--wafer.bogus=1"};
  const Cli cli(7, const_cast<char**>(argv));
  std::vector<std::string> unused;
  const auto s = core::spec_from_cli(cli, {}, &unused);
  EXPECT_DOUBLE_EQ(s.fault.rate, 0.1);
  EXPECT_EQ(s.plane_count, 2);
  EXPECT_EQ(s.wafer_latency, 3);
  EXPECT_EQ(s.trace_seed, 4u);
  ASSERT_EQ(s.tenant.size(), 2u);
  EXPECT_EQ(s.tenant[1].opts.at("kib"), "8");
  EXPECT_EQ(unused, std::vector<std::string>{"wafer.bogus"});
}

TEST(ScenarioParse, ConfigSectionsInheritBaseKeys) {
  const std::string text =
      "# a comment\n"
      "traffic = uniform\n"
      "max_rate = 1.0\n"
      "points = 6\n"
      "seed = 3\n"
      "\n"
      "[series SW-based]\n"
      "topology = radix16-swdf\n"
      "\n"
      "[series SW-less-2B]\n"
      "topology = radix16-swless\n"
      "topo.mesh_width = 2\n";
  const auto series = core::parse_scenario_text(text);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].label, "SW-based");
  EXPECT_EQ(series[0].topology, "radix16-swdf");
  EXPECT_EQ(series[1].label, "SW-less-2B");
  EXPECT_EQ(series[1].topo.at("mesh_width"), "2");
  for (const auto& s : series) {
    EXPECT_EQ(s.traffic, "uniform");
    EXPECT_EQ(s.points, 6);
    EXPECT_EQ(s.sim.seed, 3u);
  }
}

TEST(ScenarioParse, NoSectionsYieldsSingleSpec) {
  const auto series =
      core::parse_scenario_text("topology = crossbar\ntraffic = uniform\n");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].topology, "crossbar");
}

TEST(ScenarioParse, SyntaxErrorsReportLineNumbers) {
  try {
    core::parse_scenario_text("traffic = uniform\nnot a kv line\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(core::parse_scenario_text("[series oops\n"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_scenario_text("[series ]\n"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_scenario_text("points = banana\n"),
               std::invalid_argument);
}

// Mutation fuzz of the scenario grammar over every shipped config: each
// mutant parses or fails with a typed error (std::invalid_argument or a
// ScenarioError such as a FaultError), never another exception or a
// crash. Mutants are only parsed: a mutated `topo.g` or `plane.count`
// could ask for millions of routers.
TEST(ScenarioParse, ConfigMutantsParseOrThrowTypedError) {
  namespace fs = std::filesystem;
  std::vector<std::string> configs;
  for (const char* dir : {"configs", "configs/bench"})
    for (const auto& entry :
         fs::directory_iterator(fs::path(SLDF_SOURCE_DIR) / dir)) {
      if (entry.path().extension() != ".conf") continue;
      std::ifstream in(entry.path());
      std::stringstream text;
      text << in.rdbuf();
      configs.push_back(text.str());
    }
  ASSERT_GE(configs.size(), 20u) << "configs not found";

  const std::uint64_t seed = sldf::testing::fuzz_seed(0xc0f1a5);
  SCOPED_TRACE("SLDF_FUZZ_SEED=" + std::to_string(seed));
  Rng rng(seed);
  const std::string alphabet = "=[]#;,./@:-_ \n0123456789abcdefgilmnoprstuwx";
  const LogLevel level = log_level();
  set_log_level(LogLevel::Error);  // mutants repeat keys: mute the warnings
  std::size_t parsed = 0, rejected = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::string m = sldf::testing::mutate(
        configs[rng.below(configs.size())], rng, alphabet);
    try {
      (void)core::parse_scenario_text(m);
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const ScenarioError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant threw an untyped error: " << e.what()
                    << "\n" << m;
    }
  }
  set_log_level(level);
  // Both outcomes occur, so the mutants reach the codecs' edges.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected, 1000u);
}

TEST(ScenarioParse, MissingFileThrows) {
  EXPECT_THROW(core::load_scenario_file("/nonexistent/sldf.conf"),
               std::runtime_error);
}

// -------------------------------------------------------------- registries ---

TEST(TopologyRegistry, ContainsAllBuiltinPresets) {
  const auto& reg = core::TopologyRegistry::instance();
  for (const char* name :
       {"radix16-swless", "radix32-swless", "swless", "tiny-swless",
        "radix16-swdf", "radix32-swdf", "swdf", "cgroup-mesh", "crossbar"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_FALSE(reg.help(name).empty()) << name;
  }
  EXPECT_FALSE(reg.contains("torus"));
}

TEST(TopologyRegistry, EveryPresetBuildsAtSmallScale) {
  // Trim the big presets so every entry builds in milliseconds.
  const std::vector<std::pair<std::string, core::KvMap>> cases = {
      {"radix16-swless", {{"g", "2"}}},
      {"radix32-swless", {{"g", "1"}}},
      {"swless", {{"g", "2"}}},
      {"tiny-swless", {}},
      {"radix16-swdf", {{"g", "2"}}},
      {"radix32-swdf", {{"g", "1"}}},
      {"swdf", {{"g", "2"}}},
      {"cgroup-mesh", {}},
      {"crossbar", {{"terminals", "6"}}}};
  for (const auto& [name, params] : cases) {
    sim::Network net;
    core::TopoConfig cfg;
    cfg.params = params;
    core::TopologyRegistry::instance().build(name, net, cfg);
    EXPECT_GT(net.num_routers(), 0u) << name;
    EXPECT_TRUE(net.finalized()) << name;
  }
}

TEST(TopologyRegistry, UnknownNameAndParameterThrow) {
  sim::Network net;
  EXPECT_THROW(
      core::TopologyRegistry::instance().build("torus", net, {}),
      std::invalid_argument);
  core::TopoConfig cfg;
  cfg.params["grr"] = "1";
  EXPECT_THROW(core::TopologyRegistry::instance().build("tiny-swless", net,
                                                        cfg),
               std::invalid_argument);
  core::TopoConfig bad_value;
  bad_value.params["g"] = "many";
  EXPECT_THROW(core::TopologyRegistry::instance().build("tiny-swless", net,
                                                        bad_value),
               std::invalid_argument);
}

// Each topology option is range-checked against the field that stores it:
// `g` is an int, and a link latency ends up in Channel::latency's 8 bits.
TEST(TopologyRegistry, OptionsFitTheirFields) {
  const auto build = [](const char* topology, const std::string& key,
                        const char* value) {
    core::TopoConfig cfg;
    cfg.params[key] = value;
    sim::Network net;
    core::TopologyRegistry::instance().build(topology, net, cfg);
  };
  const struct {
    const char* topology;
    const char* key;
    const char* value;
  } bad[] = {{"tiny-swless", "g", "4294967301"},
             {"tiny-swless", "lr_latency", "300"},
             {"tiny-swless", "onchip_latency", "0"},
             {"tiny-swless", "io_converters", "2"},
             {"swdf", "global_latency", "256"},
             {"cgroup-mesh", "sr_latency", "300"},
             {"crossbar", "term_latency", "300"}};
  for (const auto& b : bad) {
    try {
      build(b.topology, b.key, b.value);
      ADD_FAILURE() << b.topology << " accepted " << b.key << " = "
                    << b.value;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("option '") + b.key +
                                           "'"),
                std::string::npos)
          << e.what();
    }
  }
  build("tiny-swless", "lr_latency", "255");
  build("tiny-swless", "io_converters", "false");
}

TEST(TopologyRegistry, RejectsUnsupportedModeAndScheme) {
  // Builders that cannot honor a requested routing mode / VC scheme must
  // fail loudly instead of silently running their defaults.
  sim::Network net;
  core::TopoConfig valiant;
  valiant.mode = route::RouteMode::Valiant;
  EXPECT_THROW(core::TopologyRegistry::instance().build("crossbar", net,
                                                        valiant),
               std::invalid_argument);
  EXPECT_THROW(core::TopologyRegistry::instance().build("cgroup-mesh", net,
                                                        valiant),
               std::invalid_argument);
  core::TopoConfig reduced;
  reduced.scheme = route::VcScheme::Reduced;
  EXPECT_THROW(core::TopologyRegistry::instance().build("radix16-swdf", net,
                                                        reduced),
               std::invalid_argument);
  // Mode is honored by the switch-based builder, so Valiant is fine there.
  core::TopoConfig swdf_valiant;
  swdf_valiant.mode = route::RouteMode::Valiant;
  swdf_valiant.params["g"] = "2";
  core::TopologyRegistry::instance().build("radix16-swdf", net, swdf_valiant);
  EXPECT_GT(net.num_routers(), 0u);
}

TEST(TrafficRegistry, EveryBuiltinKindConstructs) {
  sim::Network net;
  core::ScenarioSpec spec;
  spec.topology = "tiny-swless";
  core::build_network(net, spec);
  const auto& reg = traffic::TrafficRegistry::instance();
  const auto names = reg.names();
  const std::set<std::string> expected = {
      "uniform",       "bit-reverse", "bit-shuffle", "bit-transpose",
      "hotspot",       "worst-case",  "ring-allreduce"};
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()), expected);
  for (const auto& name : names) {
    core::KvMap opts;
    if (name == "hotspot") opts["hot_groups"] = "2";
    if (name == "ring-allreduce") {
      opts["scope"] = "wgroup";
      opts["bidir"] = "1";
    }
    auto tr = traffic::make_pattern(name, net, opts);
    ASSERT_NE(tr, nullptr) << name;
  }
}

TEST(TrafficRegistry, UnknownKindAndOptionThrow) {
  sim::Network net;
  core::ScenarioSpec spec;
  spec.topology = "crossbar";
  core::build_network(net, spec);
  EXPECT_THROW(traffic::make_pattern("tornado", net), std::invalid_argument);
  EXPECT_THROW(traffic::make_pattern("uniform", net, {{"oops", "1"}}),
               std::invalid_argument);
  EXPECT_THROW(
      traffic::make_pattern("ring-allreduce", net, {{"scope", "galaxy"}}),
      std::invalid_argument);
  EXPECT_THROW(
      traffic::make_pattern("hotspot", net, {{"hot_groups", "few"}}),
      std::invalid_argument);
}

// ------------------------------------------------------------ run_scenario ---

TEST(RunScenario, ExecutesSpecEndToEnd) {
  core::ScenarioSpec s;
  s.label = "smoke";
  s.topology = "tiny-swless";
  s.traffic = "uniform";
  s.rates = {0.2, 0.4};
  s.sim.warmup = 100;
  s.sim.measure = 300;
  s.sim.drain = 200;
  const auto series = core::run_scenario(s);
  EXPECT_EQ(series.label, "smoke");
  ASSERT_GE(series.points.size(), 1u);
  EXPECT_GT(series.points[0].res.accepted, 0.0);
  EXPECT_GT(series.points[0].res.avg_latency, 0.0);
}

TEST(RunScenario, ParallelSeriesMatchSerial) {
  core::ScenarioSpec s;
  s.topology = "crossbar";
  s.traffic = "uniform";
  s.rates = {0.3};
  s.sim.warmup = 50;
  s.sim.measure = 200;
  s.sim.drain = 100;
  auto a = s, b = s;
  a.label = "a";
  b.label = "b";
  b.sim.seed = 2;
  // `sldf --threads 2`'s pool: both series' points on two workers, each
  // engine config resolved through worker_config().
  const auto parallel = core::run_batch({a, b}, 2);
  ASSERT_EQ(parallel.size(), 2u);
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    const ScenarioSpec& spec = i == 0 ? a : b;
    ASSERT_EQ(parallel[i].error, "");
    const core::SeriesResult& got = parallel[i].result;
    const auto serial = core::run_scenario(spec);
    EXPECT_EQ(serial.label, got.label);
    ASSERT_EQ(serial.points.size(), got.rows.size());
    EXPECT_EQ(core::cell_values(core::sweep_cells(serial.label,
                                                  serial.points[0])),
              core::cell_values(got.rows[0]));
    EXPECT_EQ(core::run_series(spec).totals.flit_hops, got.totals.flit_hops);
  }
}

TEST(RunScenario, UnknownTopologyInSpecThrows) {
  core::ScenarioSpec s;
  s.topology = "hypercube";
  EXPECT_THROW(core::run_scenario(s), std::invalid_argument);
}

// One pool runs every simulation of a batch: at every thread count each
// sweep is cut after its first saturated point (here 0.6, so 0.9 never
// reports) and a failed simulation fails only its own series.
TEST(RunBatch, EveryThreadCountReportsTheSerialSeries) {
  ScenarioSpec sweep;
  sweep.label = "sweep";
  sweep.topology = "tiny-swless";
  sweep.rates = {0.05, 0.3, 0.6, 0.9};
  sweep.sim.warmup = 500;
  sweep.sim.measure = 1000;
  sweep.sim.drain = 500;
  ScenarioSpec bad = sweep;
  bad.label = "bad";
  bad.topo["bogus"] = "1";
  ScenarioSpec other = sweep;
  other.label = "other";
  other.sim.seed = 2;
  const std::vector<ScenarioSpec> specs = {sweep, bad, other};
  const auto serial = core::run_batch(specs, 1);
  ASSERT_EQ(serial.size(), 3u);
  EXPECT_EQ(serial[0].error, "");
  EXPECT_EQ(serial[0].result.rows.size(), 3u);
  EXPECT_EQ(serial[0].result.totals.points, 3u);
  EXPECT_NE(serial[1].error.find("unknown option 'bogus'"), std::string::npos)
      << serial[1].error;
  EXPECT_TRUE(serial[1].result.rows.empty());
  EXPECT_EQ(serial[2].error, "");
  for (const unsigned threads : {2u, 3u, 0u}) {
    SCOPED_TRACE(threads);
    const auto par = core::run_batch(specs, threads);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < par.size(); ++i) {
      const core::SeriesResult& a = serial[i].result;
      const core::SeriesResult& b = par[i].result;
      EXPECT_EQ(par[i].error, serial[i].error);
      EXPECT_EQ(a.rows, b.rows);
      EXPECT_EQ(a.table, b.table);
      EXPECT_EQ(a.totals.points, b.totals.points);
      EXPECT_EQ(a.totals.cycles, b.totals.cycles);
      EXPECT_EQ(a.totals.flit_hops, b.totals.flit_hops);
      EXPECT_EQ(a.totals.delivered, b.totals.delivered);
    }
  }
}

// ------------------------------------------------------------- run_series ---

namespace {

ScenarioSpec two_tenant_spec() {
  ScenarioSpec s;
  s.topology = "tiny-swless";
  for (const auto& [key, value] : std::vector<std::pair<std::string,
                                                        std::string>>{
           {"tenants", "2"},
           {"tenant0.workload", "ring-allreduce"},
           {"tenant0.chips", "4"},
           {"tenant0.kib", "1"},
           {"tenant1.workload", "all-to-all"},
           {"tenant1.chips", "4"},
           {"tenant1.kib", "1"},
           {"tenant1.placement", "scattered"},
           {"tenant1.scope", "system"}})
    s.set(key, value);
  return s;
}

}  // namespace

// Each run kind's CSV columns, in order, and one workload and one tenant
// row cell for cell: the `sldf --out` files of every kind stay as they are.
TEST(RunSeries, PinsEveryKindsCsv) {
  ScenarioSpec sweep;
  EXPECT_EQ(core::series_header(sweep),
            (std::vector<std::string>{
                "series", "offered", "avg_latency", "accepted", "p99",
                "delivered", "drained", "p50_latency", "min_latency",
                "max_latency", "generated_measured", "delivered_total",
                "suppressed", "avg_hops_on_chip", "avg_hops_short_reach",
                "avg_hops_lr_local", "avg_hops_lr_global",
                "avg_hops_terminal", "avg_hops_vertical", "avg_hops_total",
                "cycles_run", "flit_hops", "dropped_packets",
                "dropped_flits", "rescued_packets", "generated_packets",
                "inflight_packets", "generated_flits", "ejected_flits",
                "lost_flits", "inflight_flits", "plane_generated",
                "plane_delivered", "plane_dropped", "plane_inflight",
                "wafer_generated", "wafer_delivered", "wafer_dropped",
                "wafer_inflight", "inter_cgroup_pj", "intra_cgroup_pj"}));

  ScenarioSpec wl;
  wl.topology = "tiny-swless";
  wl.set("workload", "all-to-all");
  wl.set("workload.kib", "1");
  EXPECT_EQ(core::series_header(wl),
            (std::vector<std::string>{"series", "workload", "chips",
                                      "messages", "packets", "flits",
                                      "cycles", "gbps_per_chip",
                                      "avg_msg_cycles", "completed"}));
  const core::SeriesResult w = core::run_series(wl);
  ASSERT_EQ(w.rows.size(), 1u);
  EXPECT_EQ(core::cell_names(w.rows[0]), core::series_header(wl));
  EXPECT_EQ(core::cell_values(w.rows[0]),
            (std::vector<std::string>{"scenario", "all-to-all", "60", "660",
                                      "10560", "42240", "1907", "5.90666",
                                      "151.523", "1"}));

  const ScenarioSpec tn = two_tenant_spec();
  EXPECT_EQ(core::series_header(tn),
            (std::vector<std::string>{
                "series", "tenant", "workload", "placement", "chips",
                "messages", "flits", "ttc_cycles", "avg_msg_cycles",
                "p50_msg_cycles", "p99_msg_cycles", "gbps_per_chip",
                "isolated_ttc", "interference", "completed"}));
  const core::SeriesResult t = core::run_series(tn);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(core::cell_names(t.rows[1]), core::series_header(tn));
  EXPECT_EQ(core::cell_values(t.rows[1]),
            (std::vector<std::string>{"scenario", "tenant1", "all-to-all",
                                      "scattered", "4", "12", "768", "442",
                                      "119.833", "100", "267", "6.95023",
                                      "326", "1.35583", "1"}));
}

// A tenant run's totals count its isolation baselines' work alongside the
// shared run's: cycles, flit hops and deliveries alike.
TEST(RunSeries, TenantTotalsCountIsolationBaselines) {
  ScenarioSpec tn = two_tenant_spec();
  const core::SeriesTotals with = core::run_series(tn).totals;
  tn.tenants_isolation = false;
  const core::SeriesTotals shared = core::run_series(tn).totals;
  EXPECT_EQ(shared.points, 1u);
  EXPECT_EQ(shared.cycles, 442u);
  EXPECT_EQ(shared.flit_hops, 8576u);
  EXPECT_EQ(shared.delivered, 288u);
  // Baselines: tenant0 alone ran 101 cycles, tenant1 326.
  EXPECT_EQ(with.cycles, 442u + 101u + 326u);
  EXPECT_EQ(with.flit_hops, 17152u);
  EXPECT_EQ(with.delivered, 576u);
}

TEST(RunSeries, SharedNetworkRunsMatchFreshBuilds) {
  ScenarioSpec wl;
  wl.topology = "tiny-swless";
  wl.set("workload", "all-to-all");
  wl.set("workload.kib", "1");
  ScenarioSpec sweep;
  sweep.topology = "tiny-swless";
  sweep.rates = {0.1, 0.3};
  sweep.sim.warmup = 100;
  sweep.sim.measure = 200;
  sweep.sim.drain = 200;
  sim::Network net;
  core::build_network(net, sweep);
  for (const ScenarioSpec& spec : {wl, sweep}) {
    const core::SeriesResult fresh = core::run_series(spec);
    const core::SeriesResult shared = core::run_series(spec, net);
    EXPECT_EQ(fresh.rows, shared.rows);
    EXPECT_EQ(fresh.table, shared.table);
  }
  EXPECT_THROW(core::run_series(two_tenant_spec(), net),
               std::invalid_argument);
}

// ------------------------------------------------------------ Cli hardening ---

TEST(CliHardening, RejectsGarbageNumbers) {
  const char* argv[] = {"prog", "--n=12abc", "--x=0.5ugh", "--ok=7"};
  const Cli cli(4, const_cast<char**>(argv));
  EXPECT_THROW((void)cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("x", 0.0), std::invalid_argument);
  EXPECT_EQ(cli.get_int("ok", 0), 7);
}

TEST(CliHardening, StrictParsersAcceptWholeStringsOnly) {
  long l = 0;
  double d = 0.0;
  bool b = false;
  EXPECT_TRUE(Cli::parse_long(" 42 ", l));
  EXPECT_EQ(l, 42);
  EXPECT_FALSE(Cli::parse_long("42q", l));
  EXPECT_FALSE(Cli::parse_long("", l));
  EXPECT_TRUE(Cli::parse_double("2.5e-1", d));
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_FALSE(Cli::parse_double("1.0.0", d));
  EXPECT_TRUE(Cli::parse_bool("no", b));
  EXPECT_FALSE(b);
  EXPECT_TRUE(Cli::parse_bool("1", b));
  EXPECT_TRUE(b);
  EXPECT_FALSE(Cli::parse_bool("maybe", b));
  EXPECT_FALSE(Cli::parse_bool("", b));  // a forgotten value is an error
}

TEST(CliHardening, WarnsOncePerDuplicatedKeyLastValueWins) {
  const char* argv[] = {"prog",      "--seed=1", "--seed=2", "--seed",
                        "3",         "--x=1",    "--x=2",    "--once=9"};
  const Cli cli(8, const_cast<char**>(argv));
  // Last value wins (the pre-existing behavior) ...
  EXPECT_EQ(cli.get_int("seed", 0), 3);
  EXPECT_EQ(cli.get_int("x", 0), 2);
  EXPECT_EQ(cli.get_int("once", 0), 9);
  // ... but each duplicated key is recorded (and warned about) once.
  ASSERT_EQ(cli.duplicate_keys().size(), 2u);
  EXPECT_EQ(cli.duplicate_keys()[0], "seed");
  EXPECT_EQ(cli.duplicate_keys()[1], "x");
}

TEST(CliHardening, UniqueKeysReportNoDuplicates) {
  const char* argv[] = {"prog", "--a=1", "--b=2"};
  const Cli cli(3, const_cast<char**>(argv));
  EXPECT_TRUE(cli.duplicate_keys().empty());
}

TEST(ScenarioParse, DuplicateKeyInOneSectionKeepsLastValue) {
  // The duplicate warns on stderr (once per key); the parse itself must
  // stay last-wins, and a series overriding a base key is not a duplicate.
  const auto series = core::parse_scenario_text(
      "points = 3\npoints = 5\n\n[series a]\npoints = 7\n");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].points, 7);
}

TEST(CliHardening, ReportsUnknownFlags) {
  const char* argv[] = {"prog", "--known=1", "--mystery", "--also-odd=2"};
  const Cli cli(4, const_cast<char**>(argv));
  const auto unknown = cli.unknown_keys({"known"});
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "also-odd");
  EXPECT_EQ(unknown[1], "mystery");
}
