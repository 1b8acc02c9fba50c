#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>

#include "common/parallel.hpp"
#include "model/energy.hpp"

namespace sldf::core {

unsigned resolve_threads(unsigned threads) {
  return threads != 0 ? threads : usable_cores();
}

sim::SimConfig worker_config(sim::SimConfig sc, unsigned workers) {
  if (workers > 1) sc.shards = sim::resolve_shards(sc.shards, 1);
  return sc;
}

sim::SimConfig point_config(const SweepConfig& cfg, std::size_t i,
                            unsigned threads) {
  sim::SimConfig sc = cfg.base;
  sc.inj_rate_per_chip = cfg.rates[i];
  sc.seed = cfg.base.seed + i;
  return worker_config(sc, threads);
}

std::vector<double> linspace_rates(double max, int n) {
  std::vector<double> r;
  r.reserve(static_cast<std::size_t>(n));
  for (int i = 1; i <= n; ++i)
    r.push_back(max * static_cast<double>(i) / static_cast<double>(n));
  return r;
}

namespace {

/// The early-stop rule: the point's latency exceeds stop_latency_factor x
/// the zero-load (first point) latency.
bool saturated(const SweepConfig& cfg, const SweepSeries& s,
               const SweepPoint& pt) {
  const double zero_load = s.points.front().res.avg_latency;
  return cfg.stop_latency_factor > 0 && zero_load > 0 &&
         pt.res.avg_latency > zero_load * cfg.stop_latency_factor;
}

}  // namespace

SweepSeries run_points(const std::string& label, sim::Network& net,
                       sim::TrafficSource& traffic, const SweepConfig& cfg) {
  // One engine context across points, so later points allocate (almost)
  // nothing.
  SweepSeries series;
  series.label = label;
  sim::SimContext ctx;
  for (std::size_t i = 0; i < cfg.rates.size(); ++i) {
    SweepPoint& pt = series.points.emplace_back();
    pt.rate = cfg.rates[i];
    pt.res = sim::run_sim(ctx, net, point_config(cfg, i, 1), traffic);
    if (saturated(cfg, series, pt)) break;  // the paper's curves end here too
  }
  return series;
}

SweepSeries run_sweep(const std::string& label, const NetFactory& make_net,
                      const TrafficFactory& make_traffic,
                      const SweepConfig& cfg) {
  // Workers beyond the point count would only idle, and would keep a lone
  // point from sharding over the cores they leave unused.
  const auto threads = static_cast<unsigned>(
      std::min<std::size_t>(resolve_threads(cfg.threads),
                            std::max<std::size_t>(cfg.rates.size(), 1)));
  if (threads <= 1) {
    sim::Network net;
    make_net(net);
    auto traffic = make_traffic(net);
    return run_points(label, net, *traffic, cfg);
  }

  // Parallel: every point owns a freshly built network (deterministic).
  // Each task writes only its own series.points[i], so no locking is needed.
  SweepSeries series;
  series.label = label;
  series.points.resize(cfg.rates.size());
  parallel_for(cfg.rates.size(), threads, [&](std::size_t i) {
    sim::Network net;
    make_net(net);
    auto traffic = make_traffic(net);
    SweepPoint& pt = series.points[i];
    pt.rate = cfg.rates[i];
    pt.res = sim::run_sim(net, point_config(cfg, i, threads), *traffic);
  });
  // Apply the early-stop rule post hoc for consistent output.
  for (std::size_t i = 0; i < series.points.size(); ++i) {
    if (saturated(cfg, series, series.points[i])) {
      series.points.resize(i + 1);
      break;
    }
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

namespace {

std::string joined(const std::vector<std::uint64_t>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ';';
    out += std::to_string(v[i]);
  }
  return out;
}

/// "lr-global" -> "avg_hops_lr_global".
std::string hops_column(LinkType t) {
  std::string name = "avg_hops_" + std::string(to_string(t));
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> sweep_cells(
    const std::string& series, const SweepPoint& pt) {
  const sim::SimResult& r = pt.res;
  const auto num = [](double v) { return CsvWriter::format_num(v); };
  const auto count = [](std::uint64_t v) { return std::to_string(v); };
  const auto flag = [](bool b) { return std::string(b ? "1" : "0"); };
  std::vector<std::pair<std::string, std::string>> cells = {
      {"series", series},
      {"offered", num(pt.rate)},
      {"avg_latency", num(r.avg_latency)},
      {"accepted", num(r.accepted)},
      {"p99", num(r.p99_latency)},
      {"delivered", num(static_cast<double>(r.delivered_measured))},
      {"drained", flag(r.drained)},
      {"p50_latency", num(r.p50_latency)},
      {"min_latency", num(r.min_latency)},
      {"max_latency", num(r.max_latency)},
      {"generated_measured", count(r.generated_measured)},
      {"delivered_total", count(r.delivered_total)},
      {"suppressed", count(r.suppressed)}};
  for (int t = 0; t < kNumLinkTypes; ++t)
    cells.emplace_back(hops_column(static_cast<LinkType>(t)),
                       num(r.avg_hops[t]));
  const model::EnergyBreakdown e = model::price_result(r);
  cells.insert(
      cells.end(),
      {{"avg_hops_total", num(r.avg_hops_total)},
       {"cycles_run", count(r.cycles_run)},
       {"flit_hops", count(r.flit_hops)},
       {"dropped_packets", count(r.dropped_packets)},
       {"dropped_flits", count(r.dropped_flits)},
       {"rescued_packets", count(r.rescued_packets)},
       {"generated_packets", count(r.generated_packets)},
       {"inflight_packets", count(r.inflight_packets)},
       {"generated_flits", count(r.generated_flits)},
       {"ejected_flits", count(r.ejected_flits)},
       {"lost_flits", count(r.lost_flits)},
       {"inflight_flits", count(r.inflight_flits)},
       {"plane_generated", joined(r.plane_generated)},
       {"plane_delivered", joined(r.plane_delivered)},
       {"plane_dropped", joined(r.plane_dropped)},
       {"plane_inflight", joined(r.plane_inflight)},
       {"wafer_generated", joined(r.wafer_generated)},
       {"wafer_delivered", joined(r.wafer_delivered)},
       {"wafer_dropped", joined(r.wafer_dropped)},
       {"wafer_inflight", joined(r.wafer_inflight)},
       {"inter_cgroup_pj", num(e.inter_cgroup_pj)},
       {"intra_cgroup_pj", num(e.intra_cgroup_pj)}});
  return cells;
}

const std::vector<std::string>& sweep_csv_header() {
  static const std::vector<std::string> header = [] {
    std::vector<std::string> names;
    for (auto& [name, cell] : sweep_cells("", SweepPoint{}))
      names.push_back(std::move(name));
    return names;
  }();
  return header;
}

void append_series_csv(CsvWriter& csv, const SweepSeries& s) {
  for (const auto& pt : s.points) {
    std::vector<std::string> row;
    for (auto& [name, cell] : sweep_cells(s.label, pt))
      row.push_back(std::move(cell));
    csv.row(row);
  }
}

}  // namespace sldf::core
