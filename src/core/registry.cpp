#include "core/registry.hpp"

#include "core/params.hpp"
#include "topo/cgroup.hpp"
#include "topo/dragonfly.hpp"
#include "topo/labeling.hpp"
#include "topo/swless.hpp"

namespace sldf::core {

namespace {

/// A builder that cannot honor a requested routing mode / VC scheme must
/// say so rather than silently running its default — otherwise a
/// comparison experiment quietly measures the wrong configuration.
void require_default_mode(const TopoConfig& cfg, const char* name) {
  if (cfg.mode != route::RouteMode::Minimal)
    throw std::invalid_argument(std::string("topology '") + name +
                                "' does not support mode '" +
                                route::to_string(cfg.mode) +
                                "' (only minimal)");
}
void require_default_scheme(const TopoConfig& cfg, const char* name,
                            const char* why) {
  if (cfg.scheme != route::VcScheme::Baseline)
    throw std::invalid_argument(std::string("topology '") + name +
                                "' does not support VC scheme '" +
                                route::to_string(cfg.scheme) + "' (" + why +
                                ")");
}
void require_no_faults(const TopoConfig& cfg, const char* name) {
  if (cfg.fault_tolerant)
    throw std::invalid_argument(
        std::string("topology '") + name +
        "' does not support fault injection (its routing is not "
        "fault-aware)");
}

// ---- topology options: one row per parameter (key, member, codec, help);
// ---- a preset reads its overrides through the rows and documents them
// ---- with defaults rendered from its own values ---------------------------

// Channel::latency is 8 bits wide.
constexpr Int<int> kLatency{1, 255};
constexpr Int<int> kCount{1};     // a dimension, a buffer depth
constexpr Int<int> kPorts{0};     // a port count, or g (0 = maximum)

const Enum<topo::Labeling> kLabeling{"snake|row-major|perimeter-arc",
                                     &topo::parse_labeling, &topo::to_string};

constexpr const char* kFaultTolerantHelp =
    "reserve the fault-detour VC budget even without faults (resilience "
    "baselines; implied by active fault.* keys)";

const std::vector<Option<topo::SwlessParams>>& swless_options() {
  using P = topo::SwlessParams;
  static const std::vector<Option<P>> rows = {
      option<P>("a", &P::a, kCount, "C-groups per wafer"),
      option<P>("b", &P::b, kCount,
                "wafers per W-group (a*b C-groups fully connected)"),
      option<P>("chip_gx", &P::chip_gx, kCount,
                "chiplet-grid columns per C-group"),
      option<P>("chip_gy", &P::chip_gy, kCount,
                "chiplet-grid rows per C-group"),
      option<P>("noc_x", &P::noc_x, kCount, "NoC routers per chiplet, x"),
      option<P>("noc_y", &P::noc_y, kCount, "NoC routers per chiplet, y"),
      option<P>("ports_per_chiplet", &P::ports_per_chiplet, kPorts,
                "paper's n; n/4 links per chiplet edge"),
      option<P>("local_ports", &P::local_ports, kPorts,
                "external ports toward sibling C-groups (a*b-1 for a full "
                "mesh)"),
      option<P>("global_ports", &P::global_ports, kPorts,
                "paper's h: global ports per C-group"),
      option<P>("g", &P::g, kPorts, "W-groups; 0 selects the maximum a*b*h+1"),
      option<P>("onchip_latency", &P::onchip_latency, kLatency,
                "NoC link delay, cycles"),
      option<P>("sr_latency", &P::sr_latency, kLatency,
                "on-wafer short-reach link delay, cycles"),
      option<P>("lr_latency", &P::lr_latency, kLatency,
                "long-reach (cable/optics) link delay, cycles"),
      option<P>("mesh_width", &P::mesh_width, kCount,
                "intra-C-group bandwidth multiplier (2B/4B on-wafer links)"),
      option<P>("io_converters", &P::io_converters, Bool{},
                "model SR-LR converters as forwarding nodes"),
      option<P>("labeling", &P::labeling, kLabeling,
                "chiplet-grid labeling scheme for the Hamiltonian ring"),
      option<P>("vc_buf", &P::vc_buf, kCount,
                "per-VC input buffer depth, flits"),
      // An explicit override lets a zero-fault baseline build with the same
      // fault-detour VC budget as the faulted points of a resilience sweep
      // (the budget changes buffering, which would otherwise confound the
      // sweep's first step).
      option<P>("fault_tolerant", &P::fault_tolerant, Bool{},
                kFaultTolerantHelp),
  };
  return rows;
}

const std::vector<Option<topo::SwDragonflyParams>>& swdf_options() {
  using P = topo::SwDragonflyParams;
  static const std::vector<Option<P>> rows = {
      option<P>("switches_per_group", &P::switches_per_group, kCount,
                "switches per group (paper a)"),
      option<P>("terminals_per_switch", &P::terminals_per_switch, kCount,
                "terminals per switch (paper t)"),
      option<P>("globals_per_switch", &P::globals_per_switch, kPorts,
                "global ports per switch (paper h)"),
      option<P>("g", &P::groups, kPorts, "groups; 0 selects the maximum S*h+1"),
      option<P>("term_latency", &P::term_latency, kLatency,
                "processor-to-switch link delay, cycles"),
      option<P>("local_latency", &P::local_latency, kLatency,
                "intra-group link delay, cycles"),
      option<P>("global_latency", &P::global_latency, kLatency,
                "inter-group link delay, cycles"),
      option<P>("vc_buf", &P::vc_buf, kCount,
                "per-VC input buffer depth, flits"),
      option<P>("vcs_per_class", &P::vcs_per_class, kCount,
                "destination-hashed VCs per class (ideal-switch "
                "approximation)"),
      option<P>("fault_tolerant", &P::fault_tolerant, Bool{},
                kFaultTolerantHelp),
  };
  return rows;
}

/// The `cgroup-mesh` entry: one C-group's shape plus its VC geometry.
struct CGroupMesh : topo::CGroupShape {
  int num_vcs = 1;
  int vc_buf = 32;
};

const std::vector<Option<CGroupMesh>>& cgroup_mesh_options() {
  using P = CGroupMesh;
  static const std::vector<Option<P>> rows = {
      option<P>("chip_gx", &P::chip_gx, kCount, "chiplet columns"),
      option<P>("chip_gy", &P::chip_gy, kCount, "chiplet rows"),
      option<P>("noc_x", &P::noc_x, kCount, "NoC routers per chiplet, x"),
      option<P>("noc_y", &P::noc_y, kCount, "NoC routers per chiplet, y"),
      option<P>("ports_per_chiplet", &P::ports_per_chiplet, kPorts,
                "paper's n; n/4 links per chiplet edge"),
      option<P>("labeling", &P::labeling, kLabeling,
                "chiplet-grid labeling scheme"),
      option<P>("onchip_latency", &P::onchip_latency, kLatency,
                "NoC link delay, cycles"),
      option<P>("sr_latency", &P::sr_latency, kLatency,
                "on-wafer short-reach link delay, cycles"),
      option<P>("mesh_width", &P::mesh_width, kCount,
                "bandwidth multiplier of the wafer mesh links"),
      option<P>("io_converters", &P::io_converters, Bool{},
                "model SR-LR converters as forwarding nodes"),
      option<P>("num_vcs", &P::num_vcs, kCount,
                "virtual channels (XY routing needs one)"),
      option<P>("vc_buf", &P::vc_buf, kCount,
                "per-VC input buffer depth, flits"),
  };
  return rows;
}

/// The `crossbar` entry.
struct Crossbar {
  int terminals = 4;
  int term_latency = 1;
};

const std::vector<Option<Crossbar>>& crossbar_options() {
  using P = Crossbar;
  static const std::vector<Option<P>> rows = {
      option<P>("terminals", &P::terminals, kCount,
                "endpoints on the single switch"),
      option<P>("term_latency", &P::term_latency, kLatency,
                "terminal link delay, cycles"),
  };
  return rows;
}

std::string context(const std::string& name) {
  return "topology '" + name + "'";
}

TopologyBuilder swless_preset(topo::SwlessParams (*base)(),
                              const char* name) {
  return [base, name](sim::Network& net, const TopoConfig& cfg) {
    auto p = read_options(swless_options(), base(), cfg.params, context(name));
    p.mode = cfg.mode;
    p.scheme = cfg.scheme;
    p.fault_tolerant = p.fault_tolerant || cfg.fault_tolerant;
    return topo::wire_swless_dragonfly(net, p);
  };
}

TopologyBuilder swdf_preset(topo::SwDragonflyParams (*base)(),
                            const char* name) {
  return [base, name](sim::Network& net, const TopoConfig& cfg) {
    auto p = read_options(swdf_options(), base(), cfg.params, context(name));
    require_default_scheme(cfg, name,
                           "switch-based Dragonfly uses its own VC classes");
    p.mode = cfg.mode;
    p.fault_tolerant = p.fault_tolerant || cfg.fault_tolerant;
    return topo::wire_sw_dragonfly(net, p);
  };
}

topo::SwlessParams default_swless() { return topo::SwlessParams{}; }
topo::SwDragonflyParams default_swdf() { return topo::SwDragonflyParams{}; }

topo::WiredFabric build_cgroup_mesh(sim::Network& net, const TopoConfig& cfg) {
  const CGroupMesh m = read_options(cgroup_mesh_options(), CGroupMesh{},
                                    cfg.params, context("cgroup-mesh"));
  require_default_mode(cfg, "cgroup-mesh");
  require_default_scheme(cfg, "cgroup-mesh", "XY routing needs no scheme");
  require_no_faults(cfg, "cgroup-mesh");
  return topo::wire_mesh_network(net, m, m.num_vcs, m.vc_buf);
}

topo::WiredFabric build_crossbar_net(sim::Network& net,
                                     const TopoConfig& cfg) {
  const Crossbar x = read_options(crossbar_options(), Crossbar{}, cfg.params,
                                  context("crossbar"));
  require_default_mode(cfg, "crossbar");
  require_default_scheme(cfg, "crossbar", "a single switch has no scheme");
  require_no_faults(cfg, "crossbar");
  return topo::wire_crossbar(net, x.terminals, x.term_latency);
}

}  // namespace

TopologyRegistry::TopologyRegistry() {
  const auto swless = [this](const char* name, const char* summary,
                             topo::SwlessParams (*base)()) {
    add(name, RegistryDoc{summary, option_docs(swless_options(), base())},
        swless_preset(base, name));
  };
  const auto swdf = [this](const char* name, const char* summary,
                           topo::SwDragonflyParams (*base)()) {
    add(name, RegistryDoc{summary, option_docs(swdf_options(), base())},
        swdf_preset(base, name));
  };
  swless("radix16-swless",
         "paper SS V-B1: 2x2 chiplets of 2x2 NoC, 8 C-groups/W-group, g=41",
         &radix16_swless);
  swless("radix32-swless",
         "paper SS V-B3: 4x2 chiplets (8x4 mesh), 16 C-groups/W-group, g=145",
         &radix32_swless);
  swless("swless", "switch-less Dragonfly with raw SwlessParams defaults",
         &default_swless);
  swless("tiny-swless", "small deadlock-audit instance (a=1, b=3, h=2, g=5)",
         &tiny_swless);
  swdf("radix16-swdf", "switch-based baseline: 8 switches/group, 4:7:5, g=41",
       &radix16_swdf);
  swdf("radix32-swdf",
       "switch-based baseline: 16 switches/group, 8:15:9, g=145",
       &radix32_swdf);
  swdf("swdf", "switch-based Dragonfly with raw SwDragonflyParams defaults",
       &default_swdf);
  add("cgroup-mesh",
      RegistryDoc{"one standalone C-group wafer mesh with XY routing",
                  option_docs(cgroup_mesh_options())},
      &build_cgroup_mesh);
  add("crossbar",
      RegistryDoc{"ideal single-switch crossbar",
                  option_docs(crossbar_options())},
      &build_crossbar_net);
}

TopologyRegistry& TopologyRegistry::instance() {
  static TopologyRegistry reg;
  return reg;
}

}  // namespace sldf::core
