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
//
// Every run ends with one `totals` line of key=value work counters, wall
// time and process peak RSS; the perf ledger (BENCH_sim.json, rerun by
// tools/bench_ledger.py) is that line for each configs/bench/*.conf:
//
//   sldf --config configs/bench/radix16-sat.conf --shards=2 --phases
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
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
#include "core/docgen.hpp"
#include "core/scenario.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "traffic/pattern.hpp"
#include "workload/registry.hpp"

using namespace sldf;

namespace {

const std::vector<std::string> kDriverFlags = {
    "config", "out",   "threads",    "list",   "doc-keys",
    "print",  "serve", "emit-trace", "phases", "help"};

void print_usage() {
  std::printf(
      "usage: sldf [--config FILE] [--key=value ...]\n"
      "\n"
      "driver flags:\n"
      "  --config FILE        load a scenario file (supports [series NAME]\n"
      "                       sections; CLI keys override every series)\n"
      "  --out FILE.csv       append all series to a CSV file\n"
      "  --threads N|auto     run N simulations at once: sweep points,\n"
      "                       workload runs and tenant runs of every series\n"
      "                       (default 1; auto/0 = the usable cores)\n"
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
      "  --phases             time the engine phases of every rate-sweep\n"
      "                       and workload series and print the split (a\n"
      "                       few clock reads per cycle; counters unchanged)\n"
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
      "  --shards=N shards each simulation across N threads (deterministic\n"
      "  engine; results are bit-identical for every N). auto/0 (default)\n"
      "  uses SLDF_SHARDS if set, else the usable cores on cycles after one\n"
      "  that moved at least %llu flits or walked at least %zu routers (1\n"
      "  per simulation when --threads runs more than one). Use shards for\n"
      "  one big point, --threads for many.\n"
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
      line.c_str(), static_cast<unsigned long long>(sim::kShardGateFlits),
      sim::kShardGateRouters);
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
  print_entry_options(core::option_docs(workload::runner_options()));
  print_registry(workload::WorkloadRegistry::instance());
  std::printf(
      "\nroute modes:  minimal | valiant | adaptive\n"
      "VC schemes:   baseline | reduced | reduced-safe\n");
}

/// Peak RSS of this process image: VmHWM, which starts afresh at exec. Each
/// perf-ledger row runs in a process of its own, so this is that row's
/// peak. getrusage's ru_maxrss is only the fallback: Linux carries the
/// launching process's peak across exec into it (a tiny row launched from
/// Python reads Python's footprint).
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kb = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr &&
           std::sscanf(line, "VmHWM: %lf kB", &kb) != 1) {
    }
    std::fclose(f);
    if (kb >= 0.0) return kb / 1024.0;
  }
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

void print_phases_header() {
  std::printf("\n%-16s %7s %7s %7s %7s %7s %7s %9s %9s %10s %9s %8s %9s\n",
              "series", "fault%", "deliv%", "gen%", "walk%", "commit%",
              "serial%", "par_cyc", "ser_cyc", "avg_walked", "avg_moved",
              "prefetch", "skipped");
}

/// One series' shares of the engine's host time. "serial" is what only the
/// driving thread runs in a parallel cycle (faults, generation, the
/// commit); par_cyc / ser_cyc, avg_walked (routers walked) and avg_moved
/// (the results' flit hops plus ejected flits, `moved`) per stepped
/// cycle, the two measures the shard work gate reads, and prefetch show
/// which side of the shard work gate and of the deep-prefetch gate
/// (sim::deep_prefetch_pays) the series ran on.
void print_phases_row(const std::string& label, const sim::EnginePhases& p,
                      std::uint64_t moved) {
  const double total =
      p.fault_s + p.deliver_s + p.generate_s + p.walk_s + p.commit_s;
  if (total <= 0.0) return;
  const auto pct = [total](double s) { return 100.0 * s / total; };
  const std::uint64_t stepped = p.parallel_cycles + p.serial_cycles;
  const auto per_cycle = [stepped](std::uint64_t n) {
    return stepped ? static_cast<double>(n) / static_cast<double>(stepped)
                   : 0.0;
  };
  std::printf(
      "%-16s %7.1f %7.1f %7.1f %7.1f %7.1f %7.1f %9llu %9llu %10.0f %9.0f "
      "%8s %9llu\n",
      label.c_str(), pct(p.fault_s), pct(p.deliver_s), pct(p.generate_s),
      pct(p.walk_s), pct(p.commit_s),
      pct(p.fault_s + p.generate_s + p.commit_s),
      static_cast<unsigned long long>(p.parallel_cycles),
      static_cast<unsigned long long>(p.serial_cycles),
      per_cycle(p.routers_walked), per_cycle(moved),
      p.deep_prefetch ? "deep" : "off",
      static_cast<unsigned long long>(p.cycles_skipped));
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
      for (const auto& row : core::run_series(spec, *it->second).rows) {
        std::string out = " ";
        for (const auto& [name, cell] : row) out += " " + name + "=" + cell;
        std::printf("%s\n", out.c_str());
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

    const unsigned threads =
        core::AutoCount<unsigned>{}.parse("--threads", cli.get("threads", "1"));

    // Resolve the series: config file first, CLI keys override each series.
    std::vector<core::ScenarioSpec> series;
    if (cli.has("config")) {
      series = core::load_scenario_file(cli.get("config"));
      for (auto& spec : series)
        spec = core::spec_from_cli(cli, spec, nullptr);
    } else {
      series.push_back(core::spec_from_cli(cli, {}, nullptr));
    }
    const bool phases = cli.has("phases");
    for (auto& spec : series) spec.sim.phase_timers = phases;

    // series_header() validates registry names up front, so a misspelled
    // topology/traffic/workload fails before any series starts running.
    // Option-key typos inside topo.*/traffic.*/workload.* surface when their
    // series starts; series are isolated below, so one failure never
    // discards the others' results. One CSV holds equal headers only.
    const std::vector<std::string> header = core::series_header(series[0]);
    for (const auto& spec : series)
      if (core::series_header(spec) != header && cli.has("out"))
        throw std::invalid_argument(
            "--out writes one CSV, but series '" + spec.label +
            "' has other columns than '" + series[0].label +
            "' (rate-sweep, workload and tenant series differ); split the "
            "config");

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

    std::printf("sldf: running %zu series (threads=%u)\n\n", series.size(),
                core::resolve_threads(threads));
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<core::SeriesOutcome> outcomes =
        core::run_batch(series, threads);
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

    int failures = 0;
    core::SeriesTotals totals;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const core::SeriesOutcome& o = outcomes[i];
      if (!o.error.empty()) {
        ++failures;
        std::fprintf(stderr, "sldf: series '%s' failed: %s\n",
                     series[i].label.c_str(), o.error.c_str());
      }
      std::fputs(o.result.table.c_str(), stdout);
      totals += o.result.totals;
    }
    if (phases && std::any_of(outcomes.begin(), outcomes.end(),
                              [](const core::SeriesOutcome& o) {
                                return o.result.phases.has_value();
                              })) {
      print_phases_header();
      for (const auto& o : outcomes)
        if (o.result.phases)
          print_phases_row(o.result.label, *o.result.phases, o.result.moved);
    }
    if (cli.has("out")) {
      CsvWriter csv(cli.get("out"), header);
      for (const auto& o : outcomes)
        for (const auto& row : o.result.rows) csv.row(core::cell_values(row));
      std::printf("wrote %s\n", cli.get("out").c_str());
    }
    std::printf(
        "totals points=%llu cycles=%llu flit_hops=%llu delivered=%llu "
        "wall_s=%.3f peak_rss_mb=%.1f\n",
        static_cast<unsigned long long>(totals.points),
        static_cast<unsigned long long>(totals.cycles),
        static_cast<unsigned long long>(totals.flit_hops),
        static_cast<unsigned long long>(totals.delivered), wall_s,
        peak_rss_mb());
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
