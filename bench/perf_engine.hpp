// Engine-throughput measurement harness behind the `sldf-bench` tool.
//
// Runs a declared table of presets (see preset_infos(): radix-16 / radix-32
// switch-less networks at low and near-saturation load, the same saturation
// points on the sharded engine, the closed-loop ring-AllReduce completion
// run, the degraded-fabric `resilience-f10` point, plus the full fig11a
// three-series sweep) and reports wall time, simulated cycles/sec,
// flit-hops/sec, and peak RSS per preset. For the workload preset
// (`allreduce-ttc`) `cycles` is the collective's completion time, recording
// the workload engine's trajectory too.
//
// Results serialize to BENCH_sim.json so the perf trajectory of the
// simulator is recorded run over run; the preset table itself renders to
// Markdown (render_preset_table()) and is embedded in docs/PERFORMANCE.md
// between GENERATED markers — CI fails when the two drift.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace sldf::bench {

struct PerfResult {
  std::string preset;
  int points = 0;                 ///< Sweep points executed.
  std::uint64_t cycles = 0;       ///< Simulated cycles, summed over points.
  std::uint64_t flit_hops = 0;    ///< Channel traversals, summed over points.
  std::uint64_t delivered = 0;    ///< Packets delivered, summed over points.
  double wall_s = 0.0;
  double cycles_per_sec = 0.0;
  double flit_hops_per_sec = 0.0;
  /// Peak RSS of THIS preset alone (the kernel high-water mark is reset
  /// before the preset runs — see RssTracker in perf_engine.cpp). For a
  /// sweep preset this is the max over its points.
  double peak_rss_mb = 0.0;
  /// Per-point peak-RSS spread: the mark is reset around every sweep point,
  /// so multi-point rows (fig11a-sweep) are interpretable instead of
  /// reporting one contaminated aggregate. Equal to peak_rss_mb for
  /// single-point presets.
  double rss_min_mb = 0.0;
  double rss_max_mb = 0.0;
  /// Engine phase split summed over the preset's open-loop runs (host
  /// times only with SuiteOptions::phases; zero for closed-loop presets).
  sim::EnginePhases phases;
};

struct SuiteOptions {
  bool quick = false;    ///< Short windows, quick presets only.
  std::uint64_t seed = 1;
  std::string preset;    ///< Run only this preset (any mode); "" = suite.
  bool phases = false;   ///< SimConfig::phase_timers on every open-loop run.
};

/// Documentation row of one preset — the single source the suite runner,
/// `sldf-bench --list`, and the docs/PERFORMANCE.md table all derive from.
struct PresetInfo {
  std::string name;
  std::string modes;  ///< "quick+full" or "full".
  std::string what;   ///< What the preset measures, one line.
};

/// The preset table, in execution order.
const std::vector<PresetInfo>& preset_infos();

/// The table as a Markdown block (docs/PERFORMANCE.md embeds it between
/// `GENERATED: sldf-bench --list` markers; the CI docs job diffs them).
std::string render_preset_table();

/// Runs the preset suite. `quick` restricts to the radix-16 point presets
/// with short windows (CI smoke); the full suite adds radix-32 and the
/// fig11a sweep; `preset` runs one preset alone (throws on an unknown
/// name). Deterministic for a fixed `seed`: the per-preset `cycles`,
/// `flit_hops`, and `delivered_packets` counters are bit-identical run
/// over run (and across `shards` — the sharded presets re-run a serial
/// preset's exact simulation, so any counter divergence is an engine bug).
std::vector<PerfResult> run_perf_suite(const SuiteOptions& opts);

/// Writes BENCH_sim.json (schema documented in docs/PERFORMANCE.md).
void write_bench_json(const std::string& path,
                      const std::vector<PerfResult>& results, bool quick);

}  // namespace sldf::bench
