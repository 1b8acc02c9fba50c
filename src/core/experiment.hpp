// Latency-vs-injection sweep harness (the paper's figure methodology):
// for each offered load, run warmup + measurement and record average packet
// latency and accepted throughput. Sweeps stop early once the network is
// clearly saturated (latency blow-up) to save time — exactly where the
// paper's curves end.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace sldf::core {

using TrafficFactory =
    std::function<std::unique_ptr<sim::TrafficSource>(const sim::Network&)>;

struct SweepConfig {
  std::vector<double> rates;  ///< Offered loads, flits/cycle/chip.
  sim::SimConfig base;        ///< Cycle counts, packet length, seed.
  /// Stop the sweep once avg latency exceeds this multiple of the
  /// zero-load (first point) latency. 0 disables early stopping.
  double stop_latency_factor = 8.0;

  /// The early-stop rule: `pt`'s latency exceeds stop_latency_factor x the
  /// zero-load latency, `first`'s (the sweep's first point).
  [[nodiscard]] bool saturated(const sim::SimResult& first,
                               const sim::SimResult& pt) const {
    return stop_latency_factor > 0 && first.avg_latency > 0 &&
           pt.avg_latency > first.avg_latency * stop_latency_factor;
  }
};

/// `sc` for one of `workers` concurrent runs (>= 1) sharing the host. With
/// more than one worker the workers already fill the cores, so an `auto`
/// shard count resolves as if each worker had one core
/// (sim::resolve_shards(shards, 1)): workers x shards never exceeds the
/// cores unless `shards` or `SLDF_SHARDS` asks for it explicitly. Every
/// simulation of run_batch() resolves through it.
sim::SimConfig worker_config(sim::SimConfig sc, unsigned workers);

/// The engine config of sweep point `i`: `base` with the point's rate and
/// seed (base seed + i).
sim::SimConfig point_config(const SweepConfig& cfg, std::size_t i);

struct SweepPoint {
  double rate = 0.0;
  sim::SimResult res;
};

struct SweepSeries {
  std::string label;
  std::vector<SweepPoint> points;
};

/// Runs cfg's points in order on one already-built network, reusing one
/// engine context, and stops after the first point past the early-stop
/// rule: run_series's sweep on `sldf --serve`'s cached network.
SweepSeries run_points(const std::string& label, sim::Network& net,
                       sim::TrafficSource& traffic, const SweepConfig& cfg);

/// Evenly spaced rates in (0, max]: {max/n, 2*max/n, ..., max}.
std::vector<double> linspace_rates(double max, int n);

/// Maps the thread-count convention (0 = auto = usable_cores()) to a
/// concrete count >= 1.
unsigned resolve_threads(unsigned threads);

/// Named cells of one result row, in CSV column order.
using Cells = std::vector<std::pair<std::string, std::string>>;
/// The names of `row`'s cells, the CSV header of its kind.
std::vector<std::string> cell_names(const Cells& row);
/// The values of `row`'s cells, one CSV row.
std::vector<std::string> cell_values(const Cells& row);

/// The work a run did: the counters of `sldf`'s `totals` line.
struct SeriesTotals {
  std::uint64_t points = 0;     ///< Sweep points; 1 per workload/tenant run.
  std::uint64_t cycles = 0;     ///< Simulated cycles.
  std::uint64_t flit_hops = 0;  ///< Channel traversals.
  std::uint64_t delivered = 0;  ///< Packets delivered.
  SeriesTotals& operator+=(const SeriesTotals& o);
};

/// One series of any run kind (rate sweep, closed-loop workload,
/// multi-tenant run) as its reports see it: `sldf` prints `table`, sums
/// `totals`, prints `phases` and writes `rows` to its CSV; `sldf --serve`
/// prints each row as key=value pairs.
struct SeriesResult {
  std::string label;
  std::vector<Cells> rows;  ///< CSV rows; every row has the same names.
  SeriesTotals totals;
  /// The engine phase split summed over the series' simulations, and the
  /// flits they moved (flit hops plus ejected flits); unset for kinds that
  /// report none (multi-tenant runs).
  std::optional<sim::EnginePhases> phases;
  std::uint64_t moved = 0;
  std::string table;  ///< The human-readable report, newline-terminated.
};

/// One sweep point as named cells, in sweep-CSV column order: the
/// declaration of that CSV. First the seven historical columns (series,
/// offered, avg_latency, accepted, p99, delivered = delivered_measured,
/// drained); then every other SimResult field but `phases`, named as in
/// SimResult, with one avg_hops_<link type> column per link type and each
/// plane_*/wafer_* vector joined with ';' into one cell; then
/// model::price_result's inter_cgroup_pj and intra_cgroup_pj.
Cells sweep_cells(const std::string& series, const SweepPoint& pt);

/// A sweep as a series result: one sweep_cells() row per point, each
/// point's whole run in the totals, and an aligned table (offered,
/// latency, accepted, p99, drained).
SeriesResult to_series(const SweepSeries& s);

}  // namespace sldf::core
