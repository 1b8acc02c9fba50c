// sldf-benchmark — the repository benchmark (see README.md beside this file).
//
// Runs fixed paper workloads on the simulator, repeats each one, and reports
// host-time end-to-end metrics as medians with their quartiles, min/max and
// samples; `--trace` adds one traced repetition per workload for per-layer
// numbers. Every simulation is one operation, checked (conservation ledger,
// completion, repeat digests, traced digest, committed ledger row), and the
// last line of stdout is a one-line JSON summary.
//
//   sldf-benchmark                                   # all workloads, R=3
//   sldf-benchmark --workload sat-r16 --trace 1      # one workload, traced
//   sldf-benchmark --seconds 30 --seed 4             # ~30 s per workload
//   sldf-benchmark --list                            # workloads + scenarios
//   sldf-benchmark --compare OLD.json NEW.json       # median deltas vs bounds
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "json.hpp"
#include "workloads.hpp"

using namespace sldf;
using namespace sldf::benchmark;

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A bad command line; reported with a pointer to --help.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The quartiles of `v` as Python's statistics.quantiles(v, n=4) gives them
/// (its default "exclusive" method); one sample gives that sample thrice.
std::vector<double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  if (n < 2) return std::vector<double>(3, n == 0 ? 0.0 : v.front());
  std::vector<double> q;
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
    const long delta = i * (n + 1) - j * 4;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    q.push_back((lo * static_cast<double>(4 - delta) +
                 hi * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

// ------------------------------------------------------------- metrics ---

/// Set-up-only passes before each repetition, added to the setup_s samples:
/// set-up takes milliseconds and host noise does not, so one sample per
/// repetition would leave its median unsteady. Spreading them over the run
/// rather than taking them in one burst samples the host's drift as the
/// repetitions do.
constexpr int kSetupPasses = 4;

struct Options {
  std::vector<const Workload*> selected;
  std::uint64_t seed = 1;
  int repeat = 3;        ///< Exactly this many, or the minimum in a budget.
  double seconds = 0.0;  ///< Budget of one workload; 0 = none.
  bool trace = false;
  std::string out = "results/benchmark.json";
  std::string bounds = "BENCHMARK.json";
};

struct WorkloadReport {
  const Workload* workload = nullptr;
  std::vector<Repetition> reps;
  std::vector<double> setup_samples;  ///< Every repetition's, then passes'.
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  std::vector<std::string> failures;
  std::uint64_t digest = 0;
  std::string anchor_engine;  ///< Engine of the ledger-anchor run.
  std::vector<Layer> layers;  ///< Traced pass only.
  std::vector<Span> spans;    ///< Traced pass only.
};

template <typename F>
std::vector<double> per_rep(const WorkloadReport& r, F value) {
  std::vector<double> v;
  for (const Repetition& rep : r.reps) v.push_back(value(rep));
  return v;
}

/// An end-to-end metric and its samples in one invocation.
struct EndToEnd {
  const char* name;
  const char* unit;
  const char* better;
  std::vector<double> (*samples)(const WorkloadReport&);
};

const std::vector<EndToEnd>& end_to_end() {
  static const std::vector<EndToEnd> table = {
      {"wall_s", "s", "lower",
       [](const WorkloadReport& r) {
         return per_rep(r, [](const Repetition& x) { return x.wall_s; });
       }},
      {"setup_s", "s", "lower",
       [](const WorkloadReport& r) { return r.setup_samples; }},
      {"sim_flit_hops_per_s", "flit-hops/s", "higher",
       [](const WorkloadReport& r) {
         return per_rep(r, [](const Repetition& x) {
           return static_cast<double>(x.flit_hops) / (x.wall_s - x.setup_s);
         });
       }},
      {"peak_rss_mb", "MB", "lower",
       [](const WorkloadReport& r) {
         return per_rep(r, [](const Repetition& x) { return x.peak_rss_mb; });
       }},
  };
  return table;
}

void fail_op(WorkloadReport& r, const std::string& what) {
  ++r.failed_ops;
  r.failures.push_back(what);
  std::fprintf(stderr, "sldf-benchmark: %s: failed operation: %s\n",
               r.workload->name.c_str(), what.c_str());
}

/// Counts one simulation as an operation and checks it; `expect` is the
/// digest it must reproduce (0 = none yet).
void check_op(WorkloadReport& r, const SeriesRun& s, std::uint64_t expect,
              const std::string& pass) {
  ++r.ops;
  if (!s.error.empty()) {
    fail_op(r, pass + " '" + s.label + "': " + s.error);
  } else if (expect != 0 && s.model.digest != expect) {
    fail_op(r, pass + " '" + s.label + "': digest " + hex(s.model.digest) +
                   " != first repetition's " + hex(expect));
  }
}

// ----------------------------------------------------------------- run ---

/// Runs the workload's ledger anchor, its first series at seed 1, and fails
/// the operation unless it reproduces the committed row. A traced run puts
/// it on two engine shards, which also gives sim.shard2_speedup, and
/// returns that run.
std::optional<SeriesRun> run_anchor(WorkloadReport& r, const Options& opt) {
  const Workload& w = *r.workload;
  if (w.anchor.row.empty()) return std::nullopt;
  core::ScenarioSpec spec = workload_specs(w.text, 1).front();
  bool sharded = false;
  if (opt.trace) {
    try {
      spec.set("shards", "2");
      sharded = true;
    } catch (const std::invalid_argument&) {
      // The engine lost its `shards` key: a serial anchor, no speedup.
    }
  }
  const SeriesRun s = run_repetition({spec}).series.front();
  check_op(r, s, 0, sharded ? "ledger anchor on 2 shards" : "ledger anchor");
  const LedgerAnchor& a = w.anchor;
  r.anchor_engine = sharded ? "2 shards" : "serial";
  if (s.error.empty() &&
      (s.model.cycles != a.cycles || s.model.flit_hops != a.flit_hops ||
       s.model.delivered_packets != a.delivered))
    fail_op(r, "ledger row '" + a.row + "' not reproduced: cycles " +
                   std::to_string(s.model.cycles) + ", flit_hops " +
                   std::to_string(s.model.flit_hops) + ", delivered " +
                   std::to_string(s.model.delivered_packets));
  if (!sharded) return std::nullopt;
  return s;
}

WorkloadReport run_workload_bench(const Workload& w, const Options& opt) {
  // The --seconds budget covers the whole invocation: the fixed costs run
  // first, and the repetitions take what they leave.
  const Clock::time_point start = Clock::now();
  WorkloadReport r;
  r.workload = &w;
  const std::vector<core::ScenarioSpec> specs =
      workload_specs(w.text, opt.seed);
  Tracer tracer(w.name);
  // The throwaway build goes first, while the heap is still small, so its
  // VmRSS growth is the network's own footprint.
  if (opt.trace) r.layers = build_layers(specs, tracer);
  const std::optional<SeriesRun> sharded = run_anchor(r, opt);

  std::vector<double> passes;
  double longest = 0.0;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    try {
      for (int i = 0; i < kSetupPasses; ++i)
        passes.push_back(run_setup_pass(specs));
    } catch (const std::exception&) {
      // The repetition reports the same error as a failed operation.
    }
    r.reps.push_back(run_repetition(specs));
    const Repetition& rep = r.reps.back();
    for (std::size_t i = 0; i < rep.series.size(); ++i)
      check_op(r, rep.series[i],
               r.reps.size() > 1 ? r.reps.front().series[i].model.digest : 0,
               "repetition");
    longest = std::max(longest, seconds_since(t0));
    if (static_cast<int>(r.reps.size()) < opt.repeat) continue;
    if (opt.seconds <= 0.0) break;
    // Stop before the next repetition would overrun the budget, keeping
    // room for the traced repetition.
    if (seconds_since(start) + longest * (opt.trace ? 2.0 : 1.0) >
        opt.seconds)
      break;
  }
  r.setup_samples =
      per_rep(r, [](const Repetition& x) { return x.setup_s; });
  r.setup_samples.insert(r.setup_samples.end(), passes.begin(), passes.end());

  r.digest = workload_digest(r.reps.front());
  if (!opt.trace) return r;

  const TracedRun traced = run_traced(specs, tracer);
  for (std::size_t i = 0; i < traced.rep.series.size(); ++i)
    check_op(r, traced.rep.series[i], r.reps.front().series[i].model.digest,
             "traced");
  r.layers.insert(r.layers.end(), traced.layers.begin(), traced.layers.end());

  auto layer = [&](const std::string& name) {
    for (const Layer& l : r.layers)
      if (l.name == name) return l.value;
    return 0.0;
  };
  const double traced_wall = traced.rep.wall_s;
  const double untraced_wall =
      median_of(per_rep(r, [](const Repetition& x) { return x.wall_s; }));
  const double accounted =
      layer("build.network_s") + layer("traffic.make_s") +
      layer("workload.graph_s") + layer("sim.run_s");
  r.layers.push_back({"trace.wall_s", traced_wall, "s"});
  r.layers.push_back({"trace.overhead_pct",
                      (traced_wall / untraced_wall - 1.0) * 100.0, "%"});
  r.layers.push_back({"trace.accounted_pct", accounted / traced_wall * 100.0,
                      "%"});

  if (sharded && sharded->error.empty() && sharded->model.flit_hops > 0) {
    // Engine time per flit-hop, so a --seed other than the anchor's 1
    // compares the same fabric, load and window on other random traffic.
    auto per_hop = [](const SeriesRun& s) {
      return s.engine_s / static_cast<double>(s.model.flit_hops);
    };
    const std::vector<double> serial = per_rep(
        r, [&](const Repetition& x) { return per_hop(x.series.front()); });
    r.layers.push_back(
        {"sim.shard2_speedup", median_of(serial) / per_hop(*sharded), "x"});
  }

  std::uint64_t cycles = 0, hops = 0, delivered = 0;
  for (const SeriesRun& s : r.reps.front().series) {
    cycles += s.model.cycles;
    hops += s.model.flit_hops;
    delivered += s.model.delivered_packets;
  }
  r.layers.push_back({"model.cycles", static_cast<double>(cycles), "count"});
  r.layers.push_back({"model.flit_hops", static_cast<double>(hops), "count"});
  r.layers.push_back(
      {"model.delivered_packets", static_cast<double>(delivered), "count"});
  r.spans = tracer.spans();
  return r;
}

// -------------------------------------------------------------- record ---

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return Cli::trim(line.substr(colon + 1));
    }
  }
  return "unknown";
}

const char* build_type() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return "release (NDEBUG, optimized)";
#elif defined(__OPTIMIZE__)
  return "optimized with asserts";
#else
  return "unoptimized";
#endif
}

std::string stats_json(const std::vector<double>& v) {
  std::string s = "\"samples\": [";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ", ";
    s += json_number(v[i]);
  }
  const std::vector<double> q = quartiles(v);
  s += "], \"min\": " + json_number(*std::min_element(v.begin(), v.end()));
  s += ", \"q1\": " + json_number(q[0]);
  s += ", \"median\": " + json_number(median_of(v));
  s += ", \"q3\": " + json_number(q[2]);
  s += ", \"max\": " + json_number(*std::max_element(v.begin(), v.end()));
  s += ", \"n\": " + std::to_string(v.size());
  return s;
}

std::string record_json(const std::vector<WorkloadReport>& reports,
                        const Options& opt, bool rss_reset) {
  std::string j = "{\n  \"benchmark\": \"sldf-benchmark\",\n  \"schema\": 1,\n";
  j += "  \"host\": {\"nproc\": " +
       std::to_string(std::thread::hardware_concurrency()) +
       ", \"cpu_model\": " + json_quote(cpu_model()) +
       ", \"build_type\": " + json_quote(build_type()) +
       ", \"compiler\": " + json_quote(__VERSION__) +
       ", \"seed\": " + std::to_string(opt.seed) +
       ", \"repeat\": " + std::to_string(opt.repeat) +
       ", \"seconds\": " + json_number(opt.seconds) +
       ", \"setup_passes_per_repetition\": " +
       std::to_string(kSetupPasses) +
       ", \"peak_rss_reset\": " + (rss_reset ? "true" : "false") + "},\n";
  j += "  \"workloads\": [";
  for (std::size_t wi = 0; wi < reports.size(); ++wi) {
    const WorkloadReport& r = reports[wi];
    j += wi ? ",\n    {" : "\n    {";
    j += "\"name\": " + json_quote(r.workload->name) +
         ", \"digest\": " + json_quote(hex(r.digest)) +
         ", \"ops\": " + std::to_string(r.ops) +
         ", \"failed_ops\": " + std::to_string(r.failed_ops) +
         ", \"anchor\": " +
         (r.workload->anchor.row.empty()
              ? std::string("null")
              : "{\"row\": " + json_quote(r.workload->anchor.row) +
                    ", \"engine\": " + json_quote(r.anchor_engine) + "}") +
         ",\n";
    j += "     \"failures\": [";
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
      if (i) j += ", ";
      j += json_quote(r.failures[i]);
    }
    j += "],\n     \"series\": [";
    const std::vector<SeriesRun>& series = r.reps.front().series;
    for (std::size_t i = 0; i < series.size(); ++i) {
      const ModelStats& m = series[i].model;
      j += i ? ",\n       " : "\n       ";
      j += "{\"label\": " + json_quote(series[i].label) +
           ", \"digest\": " + json_quote(hex(m.digest)) +
           ", \"cycles\": " + std::to_string(m.cycles) +
           ", \"flit_hops\": " + std::to_string(m.flit_hops) +
           ", \"delivered_packets\": " + std::to_string(m.delivered_packets) +
           ", \"accepted\": " + json_number(m.accepted) +
           ", \"p99_latency\": " + json_number(m.p99_latency) + "}";
    }
    j += "],\n     \"metrics\": {";
    for (std::size_t mi = 0; mi < end_to_end().size(); ++mi) {
      const EndToEnd& m = end_to_end()[mi];
      j += mi ? ",\n       " : "\n       ";
      j += json_quote(m.name) + ": {\"unit\": " + json_quote(m.unit) +
           ", \"better\": " + json_quote(m.better) + ", " +
           stats_json(m.samples(r)) + "}";
    }
    j += "},\n     \"layers\": {";
    for (std::size_t li = 0; li < r.layers.size(); ++li) {
      const Layer& l = r.layers[li];
      j += li ? ",\n       " : "\n       ";
      j += json_quote(l.name) + ": {\"value\": " + json_number(l.value) +
           ", \"unit\": " + json_quote(l.unit) + "}";
    }
    j += "},\n     \"spans\": [";
    for (std::size_t si = 0; si < r.spans.size(); ++si) {
      const Span& s = r.spans[si];
      j += si ? ",\n       " : "\n       ";
      j += "{\"name\": " + json_quote(s.name) +
           ", \"workload\": " + json_quote(s.workload) +
           ", \"series\": " + json_quote(s.series) +
           ", \"start\": " + json_number(s.start) +
           ", \"end\": " + json_number(s.end) +
           ", \"parent\": " + std::to_string(s.parent) + "}";
    }
    j += "]}";
  }
  j += "\n  ]\n}\n";
  return j;
}

void write_file(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

/// Metric names BENCHMARK.json declares in `section`, or none when the file
/// cannot be read (the summary then carries every metric).
std::vector<std::string> declared(const std::string& bounds,
                                  const char* section) {
  std::vector<std::string> names;
  if (!std::filesystem::exists(bounds)) return names;
  const Json doc = load_json(bounds);
  for (const Json& m : doc.at(section).items)
    names.push_back(m.at("name").str);
  return names;
}

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Untraced runs report the end-to-end medians, traced runs the layers.
std::string summary_line(const std::vector<WorkloadReport>& reports,
                         const Options& opt) {
  const std::vector<std::string> want =
      declared(opt.bounds, opt.trace ? "per_layer" : "end_to_end");
  const bool prefix = reports.size() > 1;
  std::uint64_t ops = 0, failed = 0;
  bool complete = true;
  std::string metrics;
  for (const WorkloadReport& r : reports) {
    ops += r.ops;
    failed += r.failed_ops;
    std::vector<Layer> values;
    if (opt.trace) {
      values = r.layers;
    } else {
      for (const EndToEnd& m : end_to_end())
        values.push_back({m.name, median_of(m.samples(r)), m.unit});
    }
    for (const std::string& name : want) {
      const bool found =
          std::any_of(values.begin(), values.end(),
                      [&](const Layer& l) { return l.name == name; });
      if (!found) {
        std::fprintf(stderr, "sldf-benchmark: %s: declared metric '%s' was "
                     "not measured\n", r.workload->name.c_str(), name.c_str());
        complete = false;
      }
    }
    for (const Layer& l : values) {
      if (!want.empty() &&
          std::find(want.begin(), want.end(), l.name) == want.end())
        continue;
      if (!metrics.empty()) metrics += ", ";
      metrics += json_quote(prefix ? r.workload->name + "." + l.name : l.name) +
                 ": {\"value\": " + json_number(l.value) +
                 ", \"unit\": " + json_quote(l.unit) + "}";
    }
  }
  const bool correct = failed == 0 && complete;
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(ops) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

void print_report(const WorkloadReport& r) {
  for (const EndToEnd& m : end_to_end()) {
    const std::vector<double> v = m.samples(r);
    const std::vector<double> q = quartiles(v);
    std::printf("%-14s %-22s %14.6g %-12s (q1 %.6g, q3 %.6g, min %.6g, "
                "max %.6g, n=%zu)\n",
                r.workload->name.c_str(), m.name, median_of(v), m.unit, q[0],
                q[2], *std::min_element(v.begin(), v.end()),
                *std::max_element(v.begin(), v.end()), v.size());
  }
  for (const Layer& l : r.layers)
    std::printf(l.unit == "count" ? "%-14s %-22s %14.0f %s\n"
                                  : "%-14s %-22s %14.6g %s\n",
                r.workload->name.c_str(), l.name.c_str(), l.value,
                l.unit.c_str());
  std::printf("%-14s %-22s %14s ops=%llu failed_ops=%llu\n",
              r.workload->name.c_str(), "model.digest", hex(r.digest).c_str(),
              static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.failed_ops));
  std::fflush(stdout);
}

// ------------------------------------------------------------- compare ---

/// Prints median deltas of NEW against OLD for every end-to-end metric in
/// BENCHMARK.json. A verdict is unresolved when either record's
/// interquartile spread exceeds the bound. Returns 1 on a digest mismatch,
/// 2 on a regression beyond a bound, 0 otherwise.
int compare(const std::string& old_path, const std::string& new_path,
            const std::string& bounds_path) {
  const Json old_rec = load_json(old_path);
  const Json new_rec = load_json(new_path);
  const Json bounds = load_json(bounds_path);
  if (old_rec.at("host").at("seed").as_number() !=
      new_rec.at("host").at("seed").as_number())
    throw std::runtime_error(
        "records use different seeds; their digests cannot match");

  int rc = 0;
  std::printf("%-14s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric",
              "old median", "new median", "delta", "bound", "verdict");
  for (const Json& nw : new_rec.at("workloads").items) {
    const std::string name = nw.at("name").str;
    const Json* ow = nullptr;
    for (const Json& w : old_rec.at("workloads").items)
      if (w.at("name").str == name) ow = &w;
    if (ow == nullptr) {
      std::printf("%-14s (absent from %s)\n", name.c_str(), old_path.c_str());
      continue;
    }
    if (ow->at("digest").str != nw.at("digest").str) {
      std::printf("%-14s DIGEST MISMATCH: %s -> %s\n", name.c_str(),
                  ow->at("digest").str.c_str(), nw.at("digest").str.c_str());
      rc = 1;
    }
    for (const Json& b : bounds.at("end_to_end").items) {
      const std::string metric = b.at("name").str;
      const Json* om = ow->at("metrics").find(metric);
      const Json* nm = nw.at("metrics").find(metric);
      if (om == nullptr || nm == nullptr) continue;
      const double bound = b.at("bound").as_number();
      const bool lower = b.at("better").str == "lower";
      const double o = om->at("median").as_number();
      const double n = nm->at("median").as_number();
      const double delta = (n - o) / o;
      const double worse = lower ? delta : -delta;
      // The interquartile distance of the record's own samples.
      auto spread = [](const Json& m) {
        std::vector<double> v;
        for (const Json& x : m.at("samples").items) v.push_back(x.as_number());
        const std::vector<double> q = quartiles(v);
        return (q[2] - q[0]) / m.at("median").as_number();
      };
      const char* verdict = "ok";
      if (spread(*om) > bound || spread(*nm) > bound) {
        verdict = "unresolved";
      } else if (worse > bound) {
        verdict = "REGRESSION";
        if (rc == 0) rc = 2;
      } else if (worse < -bound) {
        verdict = "improved";
      }
      std::printf("%-14s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
                  name.c_str(), metric.c_str(), o, n, delta * 100.0,
                  bound * 100.0, verdict);
    }
  }
  return rc;
}

// ----------------------------------------------------------------- cli ---

void print_usage() {
  std::printf(
      "usage: sldf-benchmark [--workload NAME|all] [--seed N] [--repeat R]\n"
      "                      [--seconds S] [--trace [0|1]] [--out FILE]\n"
      "       sldf-benchmark --list\n"
      "       sldf-benchmark --compare OLD.json NEW.json "
      "[--bounds BENCHMARK.json]\n"
      "\n"
      "  --workload NAME  one workload, or all (default)\n"
      "  --seed N         seed of every scenario (default 1)\n"
      "  --repeat R       untraced repetitions per workload (default 3);\n"
      "                   with --seconds, the minimum (default 1)\n"
      "  --seconds S      budget of each workload, fixed costs and the\n"
      "                   traced pass included: repeat while it allows\n"
      "  --trace [0|1]    add one traced repetition per workload\n"
      "  --out FILE       run record (default results/benchmark.json)\n"
      "  --bounds FILE    metric declarations (default BENCHMARK.json)\n");
}

std::string workload_names() {
  std::string s;
  for (const Workload& w : workloads()) {
    if (!s.empty()) s += ", ";
    s += w.name;
  }
  return s;
}

Options parse_options(const Cli& cli) {
  static const std::vector<std::string> known = {
      "workload", "seed", "repeat", "seconds", "trace",
      "out",      "list", "compare", "bounds", "help"};
  for (const std::string& k : cli.unknown_keys(known))
    throw UsageError("unknown option --" + k);
  Options o;
  const std::string name = cli.get("workload", "all");
  if (name == "all") {
    for (const Workload& w : workloads()) o.selected.push_back(&w);
  } else if (const Workload* w = find_workload(name)) {
    o.selected.push_back(w);
  } else {
    throw UsageError("unknown workload '" + name +
                     "' (known: " + workload_names() + ", all)");
  }
  long v = 0;
  if (cli.has("seed")) {
    if (!Cli::parse_long(cli.get("seed"), v) || v < 0)
      throw UsageError("--seed expects a non-negative integer, got '" +
                       cli.get("seed") + "'");
    o.seed = static_cast<std::uint64_t>(v);
  }
  if (cli.has("repeat")) {
    if (!Cli::parse_long(cli.get("repeat"), v) || v < 1 || v > 1000)
      throw UsageError("--repeat expects an integer from 1 to 1000, got '" +
                       cli.get("repeat") + "'");
    o.repeat = static_cast<int>(v);
  }
  if (cli.has("seconds")) {
    if (!Cli::parse_double(cli.get("seconds"), o.seconds) ||
        !(o.seconds >= 0.0) || o.seconds > 86400.0)
      throw UsageError("--seconds expects a number from 0 to 86400, got '" +
                       cli.get("seconds") + "'");
    if (o.seconds > 0.0 && !cli.has("repeat")) o.repeat = 1;
  }
  if (cli.has("trace")) {
    const std::string t = cli.get("trace");
    if (t != "" && t != "0" && t != "1")
      throw UsageError("--trace expects 0 or 1, got '" + t + "'");
    o.trace = t != "0";
  }
  o.out = cli.get("out", o.out);
  o.bounds = cli.get("bounds", o.bounds);
  if (!cli.positional().empty() && !cli.has("compare"))
    throw UsageError("unexpected argument '" + cli.positional().front() + "'");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  try {
    if (cli.has("help")) {
      print_usage();
      return 0;
    }
    const Options opt = parse_options(cli);
    if (cli.has("list")) {
      for (const Workload& w : workloads())
        std::printf("== %s\n# %s\n%s\n", w.name.c_str(), w.why.c_str(),
                    w.text.c_str());
      return 0;
    }
    if (cli.has("compare")) {
      if (cli.get("compare").empty() || cli.positional().size() != 1)
        throw UsageError("--compare expects OLD.json NEW.json");
      return compare(cli.get("compare"), cli.positional().front(),
                     opt.bounds);
    }

    // Measure the default serial engine whatever the caller's environment.
    unsetenv("SLDF_SHARDS");
    const bool rss_reset = reset_peak_rss();
    std::vector<WorkloadReport> reports;
    for (const Workload* w : opt.selected) {
      reports.push_back(run_workload_bench(*w, opt));
      print_report(reports.back());
    }
    write_file(opt.out, record_json(reports, opt, rss_reset));
    std::printf("wrote %s\n", opt.out.c_str());
    std::printf("%s\n", summary_line(reports, opt).c_str());
    return 0;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "sldf-benchmark: error: %s (see --help)\n",
                 e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sldf-benchmark: error: %s\n", e.what());
    return 1;
  }
}
