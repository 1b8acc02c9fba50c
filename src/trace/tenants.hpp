// Multi-tenant serving runs: N jobs, one wafer, one simulation.
//
// Each tenant is a (workload, placement) pair. The runner places every
// tenant on disjoint live chips through the PlacementAllocator, builds
// each tenant's message graph restricted to its placement (WorkloadEnv::
// chips), merges the graphs into one DAG with phase = tenant index, and
// executes the merged graph as ONE closed-loop run — tenants share links,
// external ports, and VC buffers exactly the way co-scheduled jobs share
// the wafer. Per-tenant reporting comes from the per-message records:
// TTC (the tenant's last completion cycle), exact p50/p99 message
// latency, and achieved GB/s per chip.
//
// With isolation baselines enabled, each tenant's graph is additionally
// run ALONE on the same network and placement; the ratio
// shared-TTC / isolated-TTC is the tenant's interference — 1.0 means the
// co-tenants cost it nothing, 2.0 means they doubled its runtime. The
// contiguous-vs-scattered placement gap in this ratio is the headline
// number of the serving experiments.
//
// Everything is deterministic: placements depend only on the network and
// spec order, the merged graph on the per-tenant graphs, and the run on
// the engine's fixed-seed execution — repeat runs and SLDF_SHARDS=1 vs 2
// are bit-identical (minimal/valiant routing; see the "Threading &
// determinism model" section of docs/ARCHITECTURE.md for the adaptive
// closed-loop caveat).
#pragma once

#include <string>
#include <vector>

#include "common/csv.hpp"
#include "core/scenario.hpp"
#include "trace/placement.hpp"
#include "workload/registry.hpp"

namespace sldf::trace {

/// One tenant job, parsed from the `tenant<i>.*` scenario keys.
struct TenantSpec {
  std::string name;        ///< "tenant<i>" (error context + reporting).
  std::string workload;    ///< WorkloadRegistry name.
  core::KvMap opts;        ///< Generator options for this tenant.
  PlacementPolicy placement = PlacementPolicy::Contiguous;
  int count = 0;           ///< Chips to allocate (`tenant<i>.chips = 8`).
  /// Explicit chip ids (`tenant<i>.chips = 0,1,2`); overrides `count`.
  std::vector<ChipId> explicit_chips;
};

struct TenantResult {
  std::string name;
  std::string workload;
  std::string placement;   ///< Policy name, or "explicit".
  std::vector<ChipId> chips;
  bool completed = false;  ///< All of the tenant's messages finished.
  Cycle ttc = 0;           ///< Tenant's last completion cycle, shared run.
  std::uint64_t messages = 0;
  std::uint64_t flits = 0;
  double avg_msg_cycles = 0.0;  ///< Mean ready -> complete latency.
  double p50_msg_cycles = 0.0;  ///< Exact nearest-rank percentiles.
  double p99_msg_cycles = 0.0;
  double gbps_per_chip = 0.0;
  Cycle isolated_ttc = 0;       ///< 0 when baselines are disabled.
  /// shared TTC / isolated TTC (0 when baselines are disabled).
  double interference = 0.0;
};

struct MultiTenantResult {
  std::string label;
  bool completed = false;  ///< Every tenant completed in the shared run.
  Cycle cycles = 0;        ///< Shared-run makespan.
  std::uint64_t flit_hops = 0;
  std::uint64_t packets_delivered = 0;  ///< Shared-run total deliveries.
  std::vector<TenantResult> tenants;
};

/// Parses and validates the spec's tenant keys: `tenants` must match the
/// configured `tenant<i>.*` entries, each tenant needs a workload and a
/// chips value. Throws ScenarioError on inconsistencies.
std::vector<TenantSpec> tenant_specs(const core::ScenarioSpec& spec);

/// Places the tenants on disjoint chips of `net` and runs them as one
/// shared simulation (plus per-tenant isolation baselines when
/// `isolation`). `env.chips` is overwritten per tenant; the other env
/// fields are shared.
MultiTenantResult run_tenants(sim::Network& net,
                              const std::vector<TenantSpec>& tenants,
                              const workload::WorkloadRunConfig& cfg,
                              const workload::WorkloadEnv& env,
                              bool isolation);

/// The scenario entry point `sldf` dispatches to when `tenants > 0`:
/// builds the network (faults included), parses the tenant keys, and runs.
MultiTenantResult run_tenant_scenario(const core::ScenarioSpec& spec);

/// Prints the per-tenant table; appends one CSV row per tenant
/// (tenants_csv_header() order).
void print_tenants(const MultiTenantResult& r);
void append_tenants_csv(CsvWriter& csv, const MultiTenantResult& r);
const std::vector<std::string>& tenants_csv_header();

}  // namespace sldf::trace
