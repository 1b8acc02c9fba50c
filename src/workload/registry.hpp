// Named closed-loop workload generators, mirroring the topology/traffic
// registries: a workload is selected from `sldf` as `workload = <name>`
// with `workload.<opt>` options, and a new workload is a registration plus
// a config file — not a new binary.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "workload/workload.hpp"

namespace sldf::workload {

/// Generator-independent context a factory needs to translate option
/// units into engine units (KiB -> flits). Packet chunking stays in the
/// runner (WorkloadRunConfig::sim.pkt_len); generators think in flits.
///
/// The tenant/trace fields thread scenario-level context into factories
/// without changing their signature: the multi-tenant runner sets `chips`
/// to the tenant's placement (generators restrict their chip_groups
/// partition to it), and the driver forwards the `trace.file` /
/// `trace.seed` scenario keys for the trace-backed workloads.
struct WorkloadEnv {
  double flit_bytes = 16.0;  ///< Payload bytes per flit.
  std::vector<ChipId> chips;  ///< Chips to span (empty = whole network).
  std::string trace_file;     ///< `trace.file`: trace-replay default input.
  std::uint64_t trace_seed = 1;  ///< `trace.seed`: request-reply arrivals.
};

/// Registry of named workload generators. Built-ins: "ring-allreduce",
/// "halving-doubling-allreduce", "tree-allreduce", "all-to-all",
/// "stencil-3d", plus the trace-backed "trace-replay" (replays a
/// `sldf-trace` file) and "request-reply" (seeded inference-style
/// client/server pairs with issue timestamps). Factories receive the
/// `workload.<opt>` map (runner keys already stripped); unknown options
/// throw std::invalid_argument.
class WorkloadRegistry
    : public core::NamedRegistry<std::function<WorkloadGraph(
          const sim::Network&, const core::KvMap&, const WorkloadEnv&)>> {
 public:
  /// The process-wide registry, with the built-in generators registered.
  static WorkloadRegistry& instance();

  [[nodiscard]] WorkloadGraph make(const std::string& kind,
                                   const sim::Network& net,
                                   const core::KvMap& opts,
                                   const WorkloadEnv& env) const {
    return at(kind, "workload")(net, opts, env);
  }

 private:
  WorkloadRegistry();
};

/// Registry lookup shorthand.
WorkloadGraph make_workload(const std::string& kind, const sim::Network& net,
                            const core::KvMap& opts, const WorkloadEnv& env);

/// The runner/reporting keys every workload accepts (`flit_bytes`,
/// `freq_ghz`, `max_cycles`), one row each over WorkloadRunConfig:
/// core::workload_run_config() reads them, and the generated reference
/// documents them alongside the generator options.
const std::vector<core::Option<WorkloadRunConfig>>& runner_options();

}  // namespace sldf::workload
