#include "core/experiment.hpp"

#include <algorithm>

#include "common/csv.hpp"
#include "common/parallel.hpp"
#include "common/strfmt.hpp"
#include "model/energy.hpp"

namespace sldf::core {

unsigned resolve_threads(unsigned threads) {
  return threads != 0 ? threads : usable_cores();
}

sim::SimConfig worker_config(sim::SimConfig sc, unsigned workers) {
  if (workers > 1) sc.shards = sim::resolve_shards(sc.shards, 1);
  return sc;
}

sim::SimConfig point_config(const SweepConfig& cfg, std::size_t i) {
  sim::SimConfig sc = cfg.base;
  sc.inj_rate_per_chip = cfg.rates[i];
  sc.seed = cfg.base.seed + i;
  return sc;
}

std::vector<double> linspace_rates(double max, int n) {
  std::vector<double> r;
  r.reserve(static_cast<std::size_t>(n));
  for (int i = 1; i <= n; ++i)
    r.push_back(max * static_cast<double>(i) / static_cast<double>(n));
  return r;
}

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
    pt.res = sim::run_sim(ctx, net, point_config(cfg, i), traffic);
    if (cfg.saturated(series.points.front().res, pt.res))
      break;  // the paper's curves end here too
  }
  return series;
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

/// Adds `p`'s timers and counters to `sum`.
void add_phases(sim::EnginePhases& sum, const sim::EnginePhases& p) {
  sum.fault_s += p.fault_s;
  sum.deliver_s += p.deliver_s;
  sum.generate_s += p.generate_s;
  sum.walk_s += p.walk_s;
  sum.commit_s += p.commit_s;
  sum.parallel_cycles += p.parallel_cycles;
  sum.serial_cycles += p.serial_cycles;
  sum.routers_walked += p.routers_walked;
  sum.skips += p.skips;
  sum.cycles_skipped += p.cycles_skipped;
  sum.deep_prefetch = sum.deep_prefetch || p.deep_prefetch;
}

}  // namespace

Cells sweep_cells(const std::string& series, const SweepPoint& pt) {
  const sim::SimResult& r = pt.res;
  const auto num = [](double v) { return CsvWriter::format_num(v); };
  const auto count = [](std::uint64_t v) { return std::to_string(v); };
  const auto flag = [](bool b) { return std::string(b ? "1" : "0"); };
  Cells cells = {
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

std::vector<std::string> cell_names(const Cells& row) {
  std::vector<std::string> names;
  for (const auto& [name, cell] : row) names.push_back(name);
  return names;
}

std::vector<std::string> cell_values(const Cells& row) {
  std::vector<std::string> values;
  for (const auto& [name, cell] : row) values.push_back(cell);
  return values;
}

SeriesTotals& SeriesTotals::operator+=(const SeriesTotals& o) {
  points += o.points;
  cycles += o.cycles;
  flit_hops += o.flit_hops;
  delivered += o.delivered;
  return *this;
}

SeriesResult to_series(const SweepSeries& s) {
  SeriesResult out;
  out.label = s.label;
  out.phases.emplace();
  out.table = strf("# %s\n%-10s %-12s %-12s %-10s %-8s\n", s.label.c_str(),
                   "offered", "avg_latency", "accepted", "p99", "drained");
  for (const SweepPoint& pt : s.points) {
    const sim::SimResult& r = pt.res;
    out.rows.push_back(sweep_cells(s.label, pt));
    out.totals += {1, r.cycles_run, r.flit_hops, r.delivered_total};
    add_phases(*out.phases, r.phases);
    out.moved += r.flit_hops + r.ejected_flits;
    out.table += strf("%-10.4f %-12.2f %-12.4f %-10.1f %-8s\n", pt.rate,
                      r.avg_latency, r.accepted, r.p99_latency,
                      r.drained ? "yes" : "no");
  }
  out.table += "\n";
  return out;
}

}  // namespace sldf::core
