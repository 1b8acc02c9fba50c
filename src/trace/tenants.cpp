#include "trace/tenants.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"

namespace sldf::trace {

namespace {

/// `tenant<i>.chips` value: a comma means an explicit id list, otherwise
/// a count to allocate.
void parse_chips(const std::string& value, TenantSpec& t) {
  if (value.find(',') != std::string::npos) {
    std::stringstream ss(value);
    std::string item;
    while (std::getline(ss, item, ',')) {
      item = Cli::trim(item);
      if (item.empty()) continue;
      long v = 0;
      if (!Cli::parse_long(item, v) || v < 0)
        throw ScenarioError(t.name + ".chips: expected a chip id, got '" +
                            item + "'");
      t.explicit_chips.push_back(static_cast<ChipId>(v));
    }
    if (t.explicit_chips.empty())
      throw ScenarioError(t.name + ".chips: empty chip list");
    return;
  }
  long v = 0;
  if (!Cli::parse_long(value, v) || v < 1)
    throw ScenarioError(t.name +
                        ".chips: expected a chip count >= 1 or a "
                        "comma-separated id list, got '" +
                        value + "'");
  t.count = static_cast<int>(v);
}

}  // namespace

std::vector<TenantSpec> tenant_specs(const core::ScenarioSpec& spec) {
  if (spec.tenants < 1)
    throw ScenarioError("tenant run: 'tenants' must be >= 1");
  if (static_cast<int>(spec.tenant.size()) > spec.tenants)
    throw ScenarioError(
        "tenant run: tenant" + std::to_string(spec.tenant.size() - 1) +
        ".* keys are configured but tenants = " +
        std::to_string(spec.tenants));
  std::vector<TenantSpec> out;
  out.reserve(static_cast<std::size_t>(spec.tenants));
  for (int i = 0; i < spec.tenants; ++i) {
    TenantSpec t;
    t.name = "tenant" + std::to_string(i);
    const bool have = i < static_cast<int>(spec.tenant.size());
    if (!have || spec.tenant[static_cast<std::size_t>(i)].workload.empty())
      throw ScenarioError("tenant run: " + t.name +
                          ".workload is required (tenants = " +
                          std::to_string(spec.tenants) + ")");
    const auto& keys = spec.tenant[static_cast<std::size_t>(i)];
    t.workload = keys.workload;
    t.opts = keys.opts;
    if (!keys.placement.empty())
      t.placement = parse_placement(keys.placement, t.name + ".placement");
    if (keys.chips.empty())
      throw ScenarioError("tenant run: " + t.name + ".chips is required");
    parse_chips(keys.chips, t);
    out.push_back(std::move(t));
  }
  return out;
}

MultiTenantResult run_tenants(sim::Network& net,
                              const std::vector<TenantSpec>& tenants,
                              const workload::WorkloadRunConfig& cfg,
                              const workload::WorkloadEnv& env,
                              bool isolation) {
  if (tenants.empty())
    throw ScenarioError("tenant run: no tenants configured");

  // Place every tenant, then build its graph restricted to its placement.
  struct Built {
    std::vector<ChipId> chips;
    std::string placement;
    workload::WorkloadGraph graph;
  };
  PlacementAllocator alloc(net);
  std::vector<Built> built;
  built.reserve(tenants.size());
  for (const auto& t : tenants) {
    Built b;
    if (!t.explicit_chips.empty()) {
      alloc.reserve(t.explicit_chips, t.name);
      b.chips = t.explicit_chips;
      std::sort(b.chips.begin(), b.chips.end());
      b.placement = "explicit";
    } else {
      b.chips = alloc.allocate(t.count, t.placement, t.name);
      b.placement = to_string(t.placement);
    }
    workload::WorkloadEnv te = env;
    te.chips = b.chips;
    b.graph = workload::make_workload(t.workload, net, t.opts, te);
    if (b.graph.messages.empty())
      throw ScenarioError(t.name + ": workload '" + t.workload +
                          "' produced no messages");
    built.push_back(std::move(b));
  }

  // One shared DAG, phase = tenant index (per-tenant completion falls out
  // of the runner's phase accounting; messages keep their deps + issue
  // timestamps, shifted by each tenant's id offset).
  workload::WorkloadGraph merged;
  merged.name = "tenants";
  std::vector<std::size_t> begin(built.size() + 1, 0);
  for (std::size_t i = 0; i < built.size(); ++i) {
    const auto off = static_cast<workload::MsgId>(merged.messages.size());
    begin[i] = merged.messages.size();
    for (const auto& m : built[i].graph.messages) {
      merged.messages.push_back(m);
      auto& mm = merged.messages.back();
      mm.phase = static_cast<std::int32_t>(i);
      for (auto& d : mm.deps) d += off;
    }
  }
  begin[built.size()] = merged.messages.size();
  merged.num_phases = static_cast<std::int32_t>(built.size());

  workload::WorkloadRunConfig rc = cfg;
  rc.record_msgs = true;
  const workload::WorkloadResult shared =
      workload::run_workload(net, merged, rc);

  MultiTenantResult out;
  out.completed = shared.completed;
  out.cycles = shared.cycles;
  out.flit_hops = shared.flit_hops;
  out.packets_delivered = shared.packets_delivered;
  out.tenants.reserve(built.size());
  for (std::size_t i = 0; i < built.size(); ++i) {
    TenantResult tr;
    tr.name = tenants[i].name;
    tr.workload = tenants[i].workload;
    tr.placement = built[i].placement;
    tr.chips = built[i].chips;
    tr.messages = begin[i + 1] - begin[i];
    bool all = true;
    std::vector<double> lats;
    lats.reserve(tr.messages);
    for (std::size_t m = begin[i]; m < begin[i + 1]; ++m) {
      tr.flits += merged.messages[m].flits;
      const auto& rec = shared.msgs[m];
      if (!rec.completed) {
        all = false;
        continue;
      }
      tr.ttc = std::max(tr.ttc, rec.done);
      lats.push_back(static_cast<double>(rec.done - rec.ready));
    }
    tr.completed = all;
    if (!lats.empty()) {
      double sum = 0.0;
      for (const double v : lats) sum += v;
      tr.avg_msg_cycles = sum / static_cast<double>(lats.size());
      tr.p50_msg_cycles = exact_percentile(lats, 50.0);
      tr.p99_msg_cycles = exact_percentile(lats, 99.0);
    }
    if (tr.completed && tr.ttc > 0)
      tr.gbps_per_chip = static_cast<double>(tr.flits) * cfg.flit_bytes *
                         cfg.freq_ghz /
                         (static_cast<double>(tr.ttc) *
                          static_cast<double>(tr.chips.size()));
    out.tenants.push_back(std::move(tr));
  }

  // Isolation baselines: the same graph, network, and placement — minus
  // the co-tenants. The shared/isolated TTC ratio is the interference.
  if (isolation) {
    for (std::size_t i = 0; i < built.size(); ++i) {
      const workload::WorkloadResult iso =
          workload::run_workload(net, built[i].graph, cfg);
      TenantResult& tr = out.tenants[i];
      tr.isolated_ttc = iso.cycles;
      if (iso.completed && tr.completed && iso.cycles > 0)
        tr.interference = static_cast<double>(tr.ttc) /
                          static_cast<double>(iso.cycles);
    }
  }
  return out;
}

MultiTenantResult run_tenant_scenario(const core::ScenarioSpec& spec) {
  if (!spec.workload.empty())
    throw ScenarioError(
        "tenant run: the top-level 'workload' key conflicts with tenants "
        "mode — each job is named by its tenant<i>.workload key");
  const std::vector<TenantSpec> tenants = tenant_specs(spec);
  core::KvMap gen_opts;
  const workload::WorkloadRunConfig rc =
      core::workload_run_config(spec, &gen_opts);
  if (!gen_opts.empty())
    throw ScenarioError("tenant run: 'workload." + gen_opts.begin()->first +
                        "' has no effect — set 'tenant<i>." +
                        gen_opts.begin()->first + "' instead");

  sim::Network net;
  core::build_network(net, spec);
  MultiTenantResult r =
      run_tenants(net, tenants, rc, core::workload_env(spec, rc.flit_bytes),
                  spec.tenants_isolation);
  r.label = spec.label;
  return r;
}

void print_tenants(const MultiTenantResult& r) {
  std::printf("# %s (tenants=%zu, makespan=%llu cycles, completed=%s)\n",
              r.label.c_str(), r.tenants.size(),
              static_cast<unsigned long long>(r.cycles),
              r.completed ? "yes" : "no");
  std::printf("%-9s %-26s %-11s %-6s %-8s %-10s %-9s %-9s %-10s %-10s %-7s\n",
              "tenant", "workload", "placement", "chips", "msgs", "ttc",
              "p50_msg", "p99_msg", "GB/s/chip", "iso_ttc", "interf");
  for (const auto& t : r.tenants) {
    char iso[32] = "-";
    char ratio[32] = "-";
    if (t.isolated_ttc > 0) {
      std::snprintf(iso, sizeof(iso), "%llu",
                    static_cast<unsigned long long>(t.isolated_ttc));
      if (t.interference > 0.0)
        std::snprintf(ratio, sizeof(ratio), "%.3f", t.interference);
    }
    std::printf(
        "%-9s %-26s %-11s %-6zu %-8llu %-10llu %-9.0f %-9.0f %-10.4f "
        "%-10s %-7s\n",
        t.name.c_str(), t.workload.c_str(), t.placement.c_str(),
        t.chips.size(), static_cast<unsigned long long>(t.messages),
        static_cast<unsigned long long>(t.ttc), t.p50_msg_cycles,
        t.p99_msg_cycles, t.gbps_per_chip, iso, ratio);
  }
  std::printf("\n");
  std::fflush(stdout);
}

const std::vector<std::string>& tenants_csv_header() {
  static const std::vector<std::string> header = {
      "series",         "tenant",         "workload",
      "placement",      "chips",          "messages",
      "flits",          "ttc_cycles",     "avg_msg_cycles",
      "p50_msg_cycles", "p99_msg_cycles", "gbps_per_chip",
      "isolated_ttc",   "interference",   "completed"};
  return header;
}

void append_tenants_csv(CsvWriter& csv, const MultiTenantResult& r) {
  for (const auto& t : r.tenants) {
    csv.row(std::vector<std::string>{
        r.label, t.name, t.workload, t.placement,
        std::to_string(t.chips.size()), std::to_string(t.messages),
        std::to_string(t.flits), std::to_string(t.ttc),
        CsvWriter::format_num(t.avg_msg_cycles),
        CsvWriter::format_num(t.p50_msg_cycles),
        CsvWriter::format_num(t.p99_msg_cycles),
        CsvWriter::format_num(t.gbps_per_chip),
        std::to_string(t.isolated_ttc),
        CsvWriter::format_num(t.interference), t.completed ? "1" : "0"});
  }
}

}  // namespace sldf::trace
