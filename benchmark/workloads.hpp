// The benchmark's workloads and the code that runs them.
//
// Every workload is a fixed scenario text in the repo's own `key = value`
// config format (one `[series NAME]` per simulation), driven only through
// the simulator's public calls: parse_scenario_text, build_network,
// traffic_factory + Simulator/run_sim for open-loop series, and
// make_workload + run_workload for closed-loop ones. The traced pass times
// those same calls from the outside; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"

namespace sldf::benchmark {

using Clock = std::chrono::steady_clock;

/// Host seconds elapsed since `t0`.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A committed sldf-bench ledger row (BENCH_sim.json) that a workload's
/// first series, run at seed 1, must reproduce exactly.
struct LedgerAnchor {
  std::string row;  ///< Ledger preset name; empty = no anchor.
  std::uint64_t cycles = 0;
  std::uint64_t flit_hops = 0;
  std::uint64_t delivered = 0;
};

struct Workload {
  std::string name;
  std::string why;   ///< One line: what the workload stresses.
  std::string text;  ///< Embedded scenario text; `seed` is set per run.
  /// Checked on every invocation of the workload; the traced pass runs it
  /// on two engine shards and reports the speedup over the serial engine.
  LedgerAnchor anchor;
};

/// The workloads, in run order.
const std::vector<Workload>& workloads();
/// The workload named `name`, or nullptr.
const Workload* find_workload(const std::string& name);
/// The workload's series parsed from its text, every one with `seed`.
std::vector<core::ScenarioSpec> workload_specs(const std::string& text,
                                               std::uint64_t seed);

/// Simulated statistics of one series: checks, not performance. A change
/// to the simulator alone must keep all of them (and the digest) identical.
struct ModelStats {
  std::uint64_t cycles = 0;  ///< cycles_run, or time to completion.
  std::uint64_t flit_hops = 0;
  std::uint64_t delivered_packets = 0;
  double accepted = 0.0;     ///< Open loop only.
  double p99_latency = 0.0;  ///< Open loop only.
  std::uint64_t rescued_packets = 0;
  std::uint64_t dropped_packets = 0;
  /// FNV-1a hash of every SimResult / WorkloadResult field.
  std::uint64_t digest = 0;
};

/// One simulation run: the benchmark's unit of operation.
struct SeriesRun {
  std::string label;
  /// Why the run failed (threw, ledger open, not completed); empty = ok.
  std::string error;
  double setup_s = 0.0;   ///< build_network + traffic pattern / graph.
  double engine_s = 0.0;  ///< Simulator construction through the result.
  ModelStats model;
};

/// One repetition of a workload: every series once, in order.
struct Repetition {
  std::vector<SeriesRun> series;
  double wall_s = 0.0;       ///< Whole repetition, setup and teardown in.
  double setup_s = 0.0;      ///< Sum of the series' setup_s.
  double peak_rss_mb = 0.0;  ///< High-water mark of this repetition.
  std::uint64_t flit_hops = 0;
};

/// Runs every spec once, untraced.
Repetition run_repetition(const std::vector<core::ScenarioSpec>& specs);
/// Sets every spec up (network, pattern or graph) and tears it down without
/// simulating; returns the set-up time summed over the specs, as
/// Repetition::setup_s counts it.
double run_setup_pass(const std::vector<core::ScenarioSpec>& specs);
/// One hash over the series digests of a repetition, in series order.
std::uint64_t workload_digest(const Repetition& rep);

/// Returns freed heap to the OS and resets the kernel's resident high-water
/// mark (writes "5" to /proc/self/clear_refs), so VmHWM afterwards covers
/// only what was touched since; every repetition does this. Returns false
/// where the reset is refused.
bool reset_peak_rss();

/// One traced interval. `parent` indexes the enclosing span (-1 = none).
struct Span {
  std::string name;
  std::string workload;
  std::string series;
  double start = 0.0;  ///< Seconds since the tracer was created.
  double end = 0.0;
  int parent = -1;
};

/// In-memory span recorder; spans are written out with the run record.
class Tracer {
 public:
  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  /// Opens a span under the innermost open one and returns its index.
  int open(const std::string& name, const std::string& series = "");
  /// Closes span `id`, the innermost open one.
  void close(int id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double now() const;

 private:
  std::string workload_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// One named per-layer number.
struct Layer {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The traced repetition: the same series as run_repetition, with spans
/// around every public call, the engine's warmup+measure loop replayed from
/// outside (try_skip_idle + step, each step timed) and run() for the drain.
struct TracedRun {
  Repetition rep;
  std::vector<Layer> layers;
};
TracedRun run_traced(const std::vector<core::ScenarioSpec>& specs,
                     Tracer& tracer);

/// Build-stage layers from a throwaway build of each spec's TopoConfig:
/// topo.wire_s, route.bind_s and sim.finalize_s summed over the series,
/// mem.network_mb (VmRSS growth across one build) of the largest.
std::vector<Layer> build_layers(const std::vector<core::ScenarioSpec>& specs,
                                Tracer& tracer);

}  // namespace sldf::benchmark
