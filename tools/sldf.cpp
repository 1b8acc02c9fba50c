// sldf — the unified scenario driver. Runs any ScenarioSpec: topology
// preset, routing mode, VC scheme, and traffic pattern or closed-loop
// workload are registry lookups, so every experiment in the paper's
// evaluation grid is a config file (or a handful of flags) instead of a
// dedicated binary.
//
//   sldf --topology=radix16-swless --traffic=uniform --max_rate=0.8
//   sldf --config configs/fig11a.conf --out results/fig11a.csv
//   sldf --workload=ring-allreduce --workload.kib=64 --topo.g=1
//
// A config file uses `key = value` lines; `[series NAME]` sections run
// several labelled series as one experiment, each starting from the shared
// base keys above the first section (sections are independent of one
// another). CLI scenario keys override the file for every series.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/thread_pool.hpp"
#include "core/docgen.hpp"
#include "core/scenario.hpp"
#include "trace/tenants.hpp"
#include "trace/trace.hpp"
#include "traffic/pattern.hpp"
#include "workload/registry.hpp"

using namespace sldf;

namespace {

const std::vector<std::string> kDriverFlags = {
    "config",   "out",   "series-threads", "list", "doc-keys",
    "print",    "serve", "emit-trace",     "help"};

void print_usage() {
  std::printf(
      "usage: sldf [--config FILE] [--key=value ...]\n"
      "\n"
      "driver flags:\n"
      "  --config FILE        load a scenario file (supports [series NAME]\n"
      "                       sections; CLI keys override every series)\n"
      "  --out FILE.csv       append all series to a CSV file\n"
      "  --series-threads N   run N series concurrently (default 1)\n"
      "  --list               list topologies/patterns/workloads with their\n"
      "                       options and defaults, then exit\n"
      "  --doc-keys           print the generated Markdown scenario\n"
      "                       reference (the README embeds it verbatim)\n"
      "  --print              print the resolved spec(s) and exit\n"
      "  --serve              batch mode: read one request per stdin line\n"
      "                       (whitespace-separated key=value scenario keys,\n"
      "                       CLI keys as the base); finalized networks are\n"
      "                       cached across requests that share every\n"
      "                       network-shaping key. An empty line or 'quit'\n"
      "                       exits; request errors are reported per\n"
      "                       request, not fatal\n"
      "  --emit-trace FILE    write the (single) series' workload graph as\n"
      "                       an sldf-trace file instead of running it\n"
      "  --help               this text\n"
      "\n"
      "scenario keys (also valid in config files; see --doc-keys):\n");
  std::string line = " ";
  for (const auto& row : core::scenario_key_table()) {
    if (line.size() + 1 + row.key.size() > 74) {
      std::printf("%s\n", line.c_str());
      line = " ";
    }
    line += " " + row.key;
  }
  std::printf(
      "%s\n"
      "\n"
      "  fault.rate=F deterministically fails F of the fault.kind\n"
      "  (any|intra|local|global|vertical) cables (seeded by fault.seed)\n"
      "  and routes around them; fault.chips=I,J,... fails whole chips.\n"
      "\n"
      "  wafer.count=W stacks W copies of the topology bonded by vertical\n"
      "  inter-wafer cables (one vertical hop max); mutually exclusive\n"
      "  with plane.count.\n"
      "\n"
      "  --threads=N runs N sweep points of every series concurrently\n"
      "  (N=auto or 0 picks the usable core count); it overrides the\n"
      "  config file's threads key, like any scenario key.\n"
      "\n"
      "  --shards=N shards each simulation across N threads (deterministic\n"
      "  engine; results are bit-identical for every N). auto/0 (default)\n"
      "  uses SLDF_SHARDS if set, else the usable cores on cycles with at\n"
      "  least 3072 active routers (1 per worker when points or series run\n"
      "  concurrently). Use shards for one big point, threads for many.\n"
      "\n"
      "  workload=NAME switches a series from open-loop rate sweeps to one\n"
      "  closed-loop message-level run reporting completion cycles and\n"
      "  GB/s/chip (see --list for workloads and their options).\n"
      "\n"
      "  tenants=N switches to one shared multi-tenant serving run: each\n"
      "  tenant<i>.workload/.placement/.chips names a job placed on its own\n"
      "  disjoint chips (contiguous|scattered, fault-dead chips skipped).\n"
      "  All jobs execute in ONE simulation; the report is per-tenant TTC,\n"
      "  p50/p99 message latency, GB/s/chip, and (with tenants.isolation=1,\n"
      "  the default) the interference ratio vs running alone.\n",
      line.c_str());
}

void print_entry_options(const std::vector<core::OptionDoc>& options) {
  for (const auto& o : options)
    std::printf("        %-18s %-28s default %s\n", o.key.c_str(),
                o.type.c_str(), o.def.c_str());
}

template <typename Registry>
void print_registry(const Registry& reg) {
  for (const auto& name : reg.names()) {
    const core::RegistryDoc& doc = reg.doc(name);
    std::printf("  %-28s %s\n", name.c_str(), doc.summary.c_str());
    print_entry_options(doc.options);
  }
}

void print_registries() {
  std::printf("topologies (override with topo.<param>=value):\n");
  print_registry(core::TopologyRegistry::instance());
  std::printf("\ntraffic patterns (options: traffic.<opt>=value):\n");
  print_registry(traffic::TrafficRegistry::instance());
  std::printf(
      "\nworkloads (closed-loop; options: workload.<opt>=value,\n"
      "plus runner keys accepted by every workload):\n");
  print_entry_options(workload::runner_option_docs());
  print_registry(workload::WorkloadRegistry::instance());
  std::printf(
      "\nroute modes:  minimal | valiant | adaptive\n"
      "VC schemes:   baseline | reduced | reduced-safe\n");
}

/// `sldf --serve`: one request per stdin line, each a whitespace-separated
/// list of key=value scenario settings applied over the CLI base spec.
/// Finalized networks are cached across requests (a fault timeline is
/// cache-safe: runs restore the captured cycle-0 baseline on reset).
int run_serve(const Cli& cli) {
  const core::ScenarioSpec base = core::spec_from_cli(cli, {}, nullptr);
  std::map<std::string, std::unique_ptr<sim::Network>> cache;
  std::printf(
      "sldf: serve mode (one key=value request per line; empty line or "
      "'quit' exits)\n");
  std::string line;
  std::size_t reqno = 0;
  while (std::getline(std::cin, line)) {
    const std::string req = Cli::trim(line);
    if (req.empty() || req == "quit") break;
    ++reqno;
    try {
      core::ScenarioSpec spec = base;
      std::stringstream ss(req);
      std::string tok;
      while (ss >> tok) {
        const auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
          throw std::invalid_argument("serve request token '" + tok +
                                      "' expects key=value");
        spec.set(tok.substr(0, eq), tok.substr(eq + 1));
      }
      if (spec.tenants > 0)
        throw std::invalid_argument(
            "serve mode does not run multi-tenant series; use a config "
            "file");
      const std::string key = core::network_cache_key(spec);
      auto it = cache.find(key);
      if (it == cache.end()) {
        auto net = std::make_unique<sim::Network>();
        core::build_network(*net, spec);
        it = cache.emplace(key, std::move(net)).first;
        std::printf("request %zu [%s]: network-cache miss (%zu cached)\n",
                    reqno, spec.label.c_str(), cache.size());
      } else {
        std::printf("request %zu [%s]: network-cache hit\n", reqno,
                    spec.label.c_str());
      }
      sim::Network& net = *it->second;
      if (!spec.workload.empty()) {
        core::print_workload(core::run_workload_scenario(spec, net));
      } else {
        const auto pattern =
            traffic::make_pattern(spec.traffic, net, spec.traffic_opts);
        for (const double rate : spec.effective_rates()) {
          sim::SimConfig sc = spec.sim;
          sc.inj_rate_per_chip = rate;
          const sim::SimResult res = sim::run_sim(net, sc, *pattern);
          std::printf(
              "  rate=%.4f accepted=%.4f avg_latency=%.2f p99=%.2f "
              "delivered=%llu dropped=%llu drained=%d\n",
              res.offered, res.accepted, res.avg_latency, res.p99_latency,
              static_cast<unsigned long long>(res.delivered_measured),
              static_cast<unsigned long long>(res.dropped_packets),
              res.drained ? 1 : 0);
        }
      }
      std::fflush(stdout);
    } catch (const std::exception& e) {
      // Per-request isolation: report and keep serving.
      std::fprintf(stderr, "sldf: error: %s\n", e.what());
      std::fflush(stderr);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  try {
    if (cli.has("help")) {
      print_usage();
      return 0;
    }
    if (cli.has("list")) {
      print_registries();
      return 0;
    }
    if (cli.has("doc-keys")) {
      std::fputs(core::render_scenario_reference().c_str(), stdout);
      return 0;
    }
    if (cli.has("serve")) return run_serve(cli);

    // Warn about flags that are neither driver flags nor scenario keys.
    for (const auto& key : cli.unknown_keys(kDriverFlags))
      if (!core::find_scenario_key(key))
        std::fprintf(stderr, "sldf: warning: unknown flag --%s (ignored)\n",
                     key.c_str());

    // Resolve the series: config file first, CLI keys override each series.
    std::vector<core::ScenarioSpec> series;
    if (cli.has("config")) {
      series = core::load_scenario_file(cli.get("config"));
      for (auto& spec : series)
        spec = core::spec_from_cli(cli, spec, nullptr);
    } else {
      series.push_back(core::spec_from_cli(cli, {}, nullptr));
    }

    // Validate registry names up front so a misspelled topology/traffic/
    // workload fails before any series starts running. Option-key typos
    // inside topo.*/traffic.*/workload.* surface when their series starts;
    // series are isolated below, so one failure never discards the others'
    // results.
    std::size_t workload_series = 0;
    std::size_t tenant_series = 0;
    for (const auto& spec : series) {
      if (!core::TopologyRegistry::instance().contains(spec.topology))
        throw std::invalid_argument("unknown topology '" + spec.topology +
                                    "' (see sldf --list)");
      if (spec.tenants > 0) {
        ++tenant_series;
        for (const auto& t : spec.tenant)
          if (!t.workload.empty() &&
              !workload::WorkloadRegistry::instance().contains(t.workload))
            throw std::invalid_argument("unknown workload '" + t.workload +
                                        "' (see sldf --list)");
      } else if (!spec.workload.empty()) {
        ++workload_series;
        if (!workload::WorkloadRegistry::instance().contains(spec.workload))
          throw std::invalid_argument("unknown workload '" + spec.workload +
                                      "' (see sldf --list)");
      } else if (!traffic::TrafficRegistry::instance().contains(
                     spec.traffic)) {
        throw std::invalid_argument("unknown traffic pattern '" +
                                    spec.traffic + "' (see sldf --list)");
      }
    }
    // The execution modes report different columns; one experiment mixes
    // them only without CSV output.
    const bool mixed =
        (workload_series != 0 && workload_series != series.size()) ||
        (tenant_series != 0 && tenant_series != series.size());
    if (mixed && cli.has("out"))
      throw std::invalid_argument(
          "--out cannot mix rate-sweep, workload, and tenant series in one "
          "CSV; split the config");

    if (cli.has("emit-trace")) {
      if (series.size() != 1 || series[0].workload.empty())
        throw std::invalid_argument(
            "--emit-trace needs exactly one series with a workload key");
      const core::ScenarioSpec& spec = series[0];
      sim::Network net;
      core::build_network(net, spec);
      const trace::Trace t =
          trace::from_graph(core::make_workload_graph(spec, net));
      const std::string path = cli.get("emit-trace");
      std::ofstream out(path);
      if (!out)
        throw std::runtime_error("cannot open trace output file: " + path);
      out << "# " << spec.workload << " on " << spec.topology << " ("
          << t.chips << " chips)\n";
      trace::write_trace(out, t);
      std::printf("wrote %s (%zu messages, %d ranks)\n", path.c_str(),
                  t.msgs.size(), t.chips);
      return 0;
    }

    if (cli.has("print")) {
      for (const auto& spec : series) {
        std::printf("[series %s]\n%s\n", spec.label.c_str(),
                    spec.to_config().c_str());
      }
      return 0;
    }

    const auto threads =
        static_cast<unsigned>(cli.get_int("series-threads", 1));
    std::printf("sldf: running %zu series (%u in flight)\n\n", series.size(),
                threads);

    // Run with per-series isolation: a failure (e.g. an option typo that
    // only surfaces at build time) is reported but never discards the
    // results of series that completed.
    struct Outcome {
      core::SweepSeries result;           ///< Rate-sweep series.
      core::WorkloadRun workload;         ///< Closed-loop series.
      trace::MultiTenantResult tenants;   ///< Multi-tenant serving series.
      bool is_workload = false;
      bool is_tenants = false;
      std::string label;
      std::string error;
    };
    std::vector<Outcome> outcomes(series.size());
    ThreadPool::parallel_for(series.size(), threads == 0 ? 1 : threads,
                             [&](std::size_t i) {
                               Outcome& o = outcomes[i];
                               o.label = series[i].label;
                               o.is_tenants = series[i].tenants > 0;
                               o.is_workload = !o.is_tenants &&
                                               !series[i].workload.empty();
                               try {
                                 if (o.is_tenants)
                                   o.tenants =
                                       trace::run_tenant_scenario(series[i]);
                                 else if (o.is_workload)
                                   o.workload =
                                       core::run_workload_scenario(series[i]);
                                 else
                                   o.result = core::run_scenario(series[i]);
                               } catch (const std::exception& e) {
                                 o.error = e.what();
                               }
                             });

    int failures = 0;
    for (const auto& o : outcomes) {
      if (!o.error.empty()) {
        ++failures;
        std::fprintf(stderr, "sldf: series '%s' failed: %s\n",
                     o.label.c_str(), o.error.c_str());
      } else if (o.is_tenants) {
        trace::print_tenants(o.tenants);
      } else if (o.is_workload) {
        core::print_workload(o.workload);
      } else {
        core::print_series(o.result);
      }
    }
    if (cli.has("out")) {
      const bool tenants_csv = tenant_series == series.size();
      const bool workload_csv = workload_series == series.size();
      CsvWriter csv(cli.get("out"),
                    tenants_csv ? trace::tenants_csv_header()
                    : workload_csv
                        ? core::workload_csv_header()
                        : std::vector<std::string>{
                              "series", "offered", "avg_latency", "accepted",
                              "p99", "delivered", "drained"});
      for (const auto& o : outcomes) {
        if (!o.error.empty()) continue;
        if (o.is_tenants)
          trace::append_tenants_csv(csv, o.tenants);
        else if (o.is_workload)
          core::append_workload_csv(csv, o.workload);
        else
          core::append_series_csv(csv, o.result);
      }
      std::printf("wrote %s\n", cli.get("out").c_str());
    }
    return failures > 0 ? 1 : 0;
  } catch (const topo::FaultError& e) {
    std::fprintf(stderr, "sldf: error: fault timeline: %s\n", e.what());
    return 1;
  } catch (const trace::TraceError& e) {
    std::fprintf(stderr, "sldf: error: trace: %s\n", e.what());
    return 1;
  } catch (const ScenarioError& e) {
    std::fprintf(stderr, "sldf: error: scenario: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sldf: error: %s\n", e.what());
    return 1;
  }
}
