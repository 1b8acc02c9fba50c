#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>

#include "common/thread_pool.hpp"

namespace sldf::core {

unsigned resolve_threads(unsigned threads) {
  return threads != 0 ? threads : usable_cores();
}

sim::SimConfig point_config(const SweepConfig& cfg, std::size_t i,
                            unsigned threads) {
  sim::SimConfig sc = cfg.base;
  sc.inj_rate_per_chip = cfg.rates[i];
  sc.seed = cfg.base.seed + i;
  if (threads > 1) sc.shards = sim::resolve_shards(sc.shards, 1);
  return sc;
}

std::vector<double> linspace_rates(double max, int n) {
  std::vector<double> r;
  r.reserve(static_cast<std::size_t>(n));
  for (int i = 1; i <= n; ++i)
    r.push_back(max * static_cast<double>(i) / static_cast<double>(n));
  return r;
}

SweepSeries run_sweep(const std::string& label, const NetFactory& make_net,
                      const TrafficFactory& make_traffic,
                      const SweepConfig& cfg) {
  SweepSeries series;
  series.label = label;
  // Workers beyond the point count would only idle, and would keep a lone
  // point from sharding over the cores they leave unused.
  const auto threads = static_cast<unsigned>(
      std::min<std::size_t>(resolve_threads(cfg.threads),
                            std::max<std::size_t>(cfg.rates.size(), 1)));

  if (threads <= 1) {
    // Serial: network, traffic, and engine context are built once and
    // reused across points, so later points allocate (almost) nothing.
    sim::Network net;
    make_net(net);
    auto traffic = make_traffic(net);
    sim::SimContext ctx;
    double zero_load = 0.0;
    for (std::size_t i = 0; i < cfg.rates.size(); ++i) {
      SweepPoint pt;
      pt.rate = cfg.rates[i];
      pt.res = sim::run_sim(ctx, net, point_config(cfg, i, threads), *traffic);
      series.points.push_back(pt);
      if (i == 0) zero_load = pt.res.avg_latency;
      if (cfg.stop_latency_factor > 0 && zero_load > 0 &&
          pt.res.avg_latency > zero_load * cfg.stop_latency_factor)
        break;  // saturated: the paper's curves end here too
    }
    return series;
  }

  // Parallel: every point owns a freshly built network (deterministic).
  // Each task writes only its own series.points[i], so no locking is needed.
  series.points.resize(cfg.rates.size());
  ThreadPool::parallel_for(cfg.rates.size(), threads,
                           [&](std::size_t i) {
                             sim::Network net;
                             make_net(net);
                             auto traffic = make_traffic(net);
                             SweepPoint& pt = series.points[i];
                             pt.rate = cfg.rates[i];
                             pt.res = sim::run_sim(
                                 net, point_config(cfg, i, threads), *traffic);
                           });
  // Apply the early-stop rule post hoc for consistent output.
  if (cfg.stop_latency_factor > 0 && !series.points.empty()) {
    const double zero_load = series.points.front().res.avg_latency;
    std::size_t keep = series.points.size();
    for (std::size_t i = 0; i < series.points.size(); ++i) {
      if (zero_load > 0 &&
          series.points[i].res.avg_latency >
              zero_load * cfg.stop_latency_factor) {
        keep = i + 1;
        break;
      }
    }
    series.points.resize(keep);
  }
  return series;
}

void print_series(const SweepSeries& s) {
  std::printf("# %s\n", s.label.c_str());
  std::printf("%-10s %-12s %-12s %-10s %-8s\n", "offered", "avg_latency",
              "accepted", "p99", "drained");
  for (const auto& pt : s.points) {
    std::printf("%-10.4f %-12.2f %-12.4f %-10.1f %-8s\n", pt.rate,
                pt.res.avg_latency, pt.res.accepted, pt.res.p99_latency,
                pt.res.drained ? "yes" : "no");
  }
  std::printf("\n");
  std::fflush(stdout);
}

void append_series_csv(CsvWriter& csv, const SweepSeries& s) {
  for (const auto& pt : s.points) {
    csv.row(std::vector<std::string>{
        s.label, CsvWriter::format_num(pt.rate),
        CsvWriter::format_num(pt.res.avg_latency),
        CsvWriter::format_num(pt.res.accepted),
        CsvWriter::format_num(pt.res.p99_latency),
        CsvWriter::format_num(static_cast<double>(pt.res.delivered_measured)),
        pt.res.drained ? "1" : "0"});
  }
}

}  // namespace sldf::core
