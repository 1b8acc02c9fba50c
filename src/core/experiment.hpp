// Latency-vs-injection sweep harness (the paper's figure methodology):
// for each offered load, run warmup + measurement and record average packet
// latency and accepted throughput. Sweeps stop early once the network is
// clearly saturated (latency blow-up) to save time — exactly where the
// paper's curves end.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "sim/simulator.hpp"

namespace sldf::core {

using NetFactory = std::function<void(sim::Network&)>;
using TrafficFactory =
    std::function<std::unique_ptr<sim::TrafficSource>(const sim::Network&)>;

struct SweepConfig {
  std::vector<double> rates;  ///< Offered loads, flits/cycle/chip.
  sim::SimConfig base;        ///< Cycle counts, packet length, seed.
  /// Stop the sweep once avg latency exceeds this multiple of the
  /// zero-load (first point) latency. 0 disables early stopping.
  double stop_latency_factor = 8.0;
  /// Number of worker threads; each builds its own network. 1 = serial
  /// (network + engine context built once and reused across points);
  /// 0 = auto (usable_cores()).
  unsigned threads = 1;
};

/// The engine config of sweep point `i` when the sweep runs on `threads`
/// workers (resolved, >= 1): `base` with the point's rate and seed
/// (base seed + i). With more than one worker the workers already fill the
/// cores, so an `auto` shard count resolves as if each worker had one core
/// (sim::resolve_shards(shards, 1)): threads x shards never exceeds the
/// cores unless `shards` or `SLDF_SHARDS` asks for it explicitly.
sim::SimConfig point_config(const SweepConfig& cfg, std::size_t i,
                            unsigned threads);

struct SweepPoint {
  double rate = 0.0;
  sim::SimResult res;
};

struct SweepSeries {
  std::string label;
  std::vector<SweepPoint> points;
};

/// Runs one latency/throughput sweep.
SweepSeries run_sweep(const std::string& label, const NetFactory& make_net,
                      const TrafficFactory& make_traffic,
                      const SweepConfig& cfg);

/// Evenly spaced rates in (0, max]: {max/n, 2*max/n, ..., max}.
std::vector<double> linspace_rates(double max, int n);

/// Maps the thread-count convention (0 = auto = usable_cores()) to a
/// concrete count >= 1.
unsigned resolve_threads(unsigned threads);

/// Prints a series as an aligned table (offered, latency, accepted) and
/// optionally appends rows to a CSV ("series,offered,latency,accepted,...").
void print_series(const SweepSeries& s);
void append_series_csv(CsvWriter& csv, const SweepSeries& s);

}  // namespace sldf::core
