// Declarative scenario layer: one ScenarioSpec names everything the paper's
// evaluation grid varies — topology preset (+ param overrides), routing
// mode, VC scheme, traffic pattern (+ options), and the sweep — and
// run_scenario() executes it through the registries. Specs parse from
// `--key=value` CLI flags and from a `key = value` config-file format with
// `[series NAME]` sections, so every figure is a config file instead of a
// hand-wired main().
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "core/experiment.hpp"
#include "core/registry.hpp"
#include "route/plane_select.hpp"
#include "route/routing_modes.hpp"
#include "topo/faults.hpp"
#include "workload/registry.hpp"
#include "workload/workload.hpp"

namespace sldf::core {

struct ScenarioSpec {
  std::string label = "scenario";  ///< Series label (CSV/table output).
  std::string topology = "radix16-swless";  ///< TopologyRegistry key.
  KvMap topo;  ///< Preset overrides, config keys `topo.<param>`.
  route::RouteMode mode = route::RouteMode::Minimal;
  route::VcScheme scheme = route::VcScheme::Baseline;
  std::string traffic = "uniform";  ///< TrafficRegistry key.
  KvMap traffic_opts;  ///< Pattern options, config keys `traffic.<opt>`.
  /// WorkloadRegistry key; non-empty switches the scenario from open-loop
  /// rate sweeps to one closed-loop message-level run (rates/max_rate/
  /// points/stop_factor/threads are then ignored).
  std::string workload;
  KvMap workload_opts;  ///< Generator + runner options, keys `workload.<opt>`.
  /// Fault injection (config keys `fault.rate` / `fault.kind` /
  /// `fault.seed` / `fault.chips`). When active(), the topology is built
  /// fault-tolerant and build_network() injects the faults after the build;
  /// an inactive spec leaves the network bit-identical to a fault-free one.
  topo::FaultSpec fault;

  /// Multi-plane fabric (config keys `plane.count` / `plane.mix` /
  /// `plane.policy`). plane_count = 0 is the unset sentinel: the network
  /// builds through the classic single-fabric path. An explicit
  /// `plane.count = 1` builds through the PlaneSet layer (bit-identical
  /// results, exercised by tests); >= 2 instantiates that many rails
  /// sharing the logical chip space, with per-packet plane selection.
  int plane_count = 0;
  /// `plane.mix`: comma-separated topology registry names, one per plane
  /// (empty = plane_count copies of `topology`). Length must equal
  /// plane.count when both are set.
  std::vector<std::string> plane_mix;
  /// `plane.policy`: per-packet plane selection (route::PlanePolicy).
  route::PlanePolicy plane_policy = route::PlanePolicy::Hash;

  /// Wafer-on-wafer stack (config keys `wafer.count` / `wafer.latency` /
  /// `wafer.width`). wafer_count = 0 is the unset sentinel (classic
  /// single-fabric build); an explicit `wafer.count = 1` builds through the
  /// WaferStack layer (bit-identical results, exercised by tests); >= 2
  /// stacks that many copies of `topology` bonded by vertical inter-wafer
  /// cables (see topo/wafer_stack.hpp). Mutually exclusive with plane.*.
  int wafer_count = 0;
  int wafer_latency = 2;     ///< `wafer.latency`: vertical-bond cycles.
  int wafer_width_num = 1;   ///< `wafer.width`: token fraction `num/den`
  int wafer_width_den = 1;   ///< (1 = a full flit per cycle).

  /// Per-tenant keys of the multi-tenant serving mode (`tenant<i>.*`).
  /// Free-form strings here; trace::tenant_specs() parses and validates
  /// them against the declared `tenants` count at run time.
  struct TenantKeys {
    std::string workload;   ///< `tenant<i>.workload` (required per tenant).
    std::string placement;  ///< `tenant<i>.placement` (empty = contiguous).
    std::string chips;      ///< `tenant<i>.chips`: count or id list.
    KvMap opts;             ///< Remaining `tenant<i>.<opt>` workload options.
  };
  /// Concurrent tenant jobs (`tenants`); > 0 switches the scenario to one
  /// shared multi-tenant serving run (see trace/tenants.hpp) where each
  /// tenant's workload/placement comes from its `tenant<i>.*` keys.
  int tenants = 0;
  /// `tenants.isolation`: also run each tenant alone on its placement to
  /// report interference-vs-isolation ratios.
  bool tenants_isolation = true;
  std::vector<TenantKeys> tenant;  ///< Indexed by i, grown by set().
  std::string trace_file;          ///< `trace.file` (trace-replay input).
  std::uint64_t trace_seed = 1;    ///< `trace.seed` (request-reply arrivals).

  /// Explicit offered loads; when empty, linspace(max_rate, points) is used.
  std::vector<double> rates;
  double max_rate = 1.0;
  int points = 6;
  double stop_latency_factor = 8.0;  ///< See SweepConfig.
  unsigned threads = 1;  ///< Sweep-point parallelism (0 = auto; see set()).
  sim::SimConfig sim;                ///< Cycle counts, packet length, seed.

  /// Applies one `key = value` setting through its scenario_key_table()
  /// row. Throws std::invalid_argument on unknown keys or malformed and
  /// out-of-range values.
  void set(const std::string& key, const std::string& value);

  /// Serializes every setting back to the config vocabulary; a spec
  /// round-trips through from_kv(to_kv()).
  [[nodiscard]] KvMap to_kv() const;
  /// to_kv() rendered as `key = value` lines (valid scenario-file input).
  [[nodiscard]] std::string to_config() const;
  static ScenarioSpec from_kv(const KvMap& kv);

  [[nodiscard]] std::vector<double> effective_rates() const;
  [[nodiscard]] TopoConfig topo_config() const {
    // A timeline needs the fault-tolerant build even when cycle 0 is
    // fault-free: failures arrive while the simulation runs.
    return TopoConfig{topo, mode, scheme,
                      fault.active() || fault.has_timeline()};
  }
};

/// One row of the scenario-key table, the single declaration of a config
/// key: ScenarioSpec::set/to_kv, spec_from_cli, the generated reference
/// (`sldf --doc-keys`), `sldf --help` and network_cache_key() all derive
/// from it. A family row (`topo.<param>`, `tenant<i>.<opt>`, ...) stands
/// for every key its placeholders match.
struct ScenarioKey {
  std::string key;   ///< Config name, or a family pattern.
  std::string help;  ///< Markdown meaning.
  /// Rendered default: ScenarioSpec{}'s value, or prose for unset keys.
  std::string def;
  bool network = false;  ///< Shapes the finalized network.
  /// Parses, range-checks and assigns `value`; `name` is the concrete key
  /// (family rows take their map key or tenant index from it).
  std::function<void(ScenarioSpec&, const std::string& name,
                     const std::string& value)>
      set;
  /// Adds the row's setting(s) to `kv`; a key in its unset state adds
  /// nothing, so unused axes stay out of `--print` output.
  std::function<void(const ScenarioSpec&, KvMap& kv)> emit;

  /// True when this row accepts the concrete key `name`.
  [[nodiscard]] bool matches(const std::string& name) const;
};

/// Every scenario key, in reference order.
std::span<const ScenarioKey> scenario_key_table();
/// The row accepting `name` (the first match), or nullptr.
const ScenarioKey* find_scenario_key(const std::string& name);

/// The network-shaping subset of spec.to_kv() as one canonical string.
/// `sldf --serve` reuses one finalized Network across requests with equal
/// keys; per-run keys (traffic, rates, seed, workload, ...) never enter it.
std::string network_cache_key(const ScenarioSpec& spec);

/// Builds a spec from parsed CLI flags. Keys that are not scenario keys are
/// appended to `unused` (when given) instead of throwing, so drivers can
/// consume their own flags and warn about the rest.
ScenarioSpec spec_from_cli(const Cli& cli, const ScenarioSpec& defaults = {},
                           std::vector<std::string>* unused = nullptr);

/// Parses the scenario-file format: `key = value` lines, blank lines and
/// full-line #/; comments ignored. Each optional `[series NAME]` section
/// starts a new series from the shared base (the keys above the FIRST
/// section); sections are independent of one another. With no sections the
/// file describes a single spec. Throws on syntax errors.
std::vector<ScenarioSpec> parse_scenario_text(
    const std::string& text, const ScenarioSpec& defaults = {});
std::vector<ScenarioSpec> load_scenario_file(
    const std::string& path, const ScenarioSpec& defaults = {});

/// One-shot build of the spec's network (registry lookup + overrides).
/// When spec.fault is active, the build is fault-tolerant and the faults
/// are injected (deterministically, spec.fault.seed) before returning.
void build_network(sim::Network& net, const ScenarioSpec& spec);
/// The spec's two factories, for composing with run_sweep directly.
NetFactory net_factory(const ScenarioSpec& spec);
TrafficFactory traffic_factory(const ScenarioSpec& spec);

/// Runs the spec's sweep through the registries (label, net, traffic,
/// rates, sim config all from the spec). Requires a rate-sweep spec
/// (workload empty).
SweepSeries run_scenario(const ScenarioSpec& spec);

/// One labelled closed-loop workload run (see workload::WorkloadResult).
struct WorkloadRun {
  std::string label;
  std::string workload;
  workload::WorkloadResult result;
};

/// Builds the runner config from spec.sim + the runner keys in
/// spec.workload_opts (`workload.flit_bytes` / `.freq_ghz` /
/// `.max_cycles`). When `gen_opts` is given it receives the remaining
/// generator options. Shared by the single-workload and multi-tenant run
/// paths.
workload::WorkloadRunConfig workload_run_config(const ScenarioSpec& spec,
                                                KvMap* gen_opts = nullptr);

/// What the spec's workload generators see: `flit_bytes` (the runner
/// config's) sizes KiB payloads; `trace.file` / `trace.seed` feed the
/// trace-backed generators.
workload::WorkloadEnv workload_env(const ScenarioSpec& spec,
                                   double flit_bytes);

/// Builds spec.workload's message graph on `net` (a WorkloadRegistry
/// lookup fed the generator options and workload_env()); `rc`, when given,
/// receives the runner config. Every closed-loop path builds its graph
/// here.
workload::WorkloadGraph make_workload_graph(
    const ScenarioSpec& spec, const sim::Network& net,
    workload::WorkloadRunConfig* rc = nullptr);

/// Runs the spec's closed-loop workload (workload must be non-empty) on
/// `net`, or on a network built from the spec: the graph comes from
/// make_workload_graph(), the runner keys `workload.flit_bytes` /
/// `workload.freq_ghz` / `workload.max_cycles` configure the run.
WorkloadRun run_workload_scenario(const ScenarioSpec& spec, sim::Network& net);
WorkloadRun run_workload_scenario(const ScenarioSpec& spec);

/// Prints a workload run (summary line + per-phase completion table) and
/// appends its CSV row ("series,workload,chips,messages,packets,flits,
/// cycles,gbps_per_chip,avg_msg_cycles,completed").
void print_workload(const WorkloadRun& run);
void append_workload_csv(CsvWriter& csv, const WorkloadRun& run);
const std::vector<std::string>& workload_csv_header();

/// Runs several specs as one experiment, `threads` series in flight at a
/// time on a thread pool (each series runs its own sweep serially, keeping
/// per-series early-stop semantics). Results are in spec order.
std::vector<SweepSeries> run_scenarios(const std::vector<ScenarioSpec>& specs,
                                       unsigned threads);

}  // namespace sldf::core
