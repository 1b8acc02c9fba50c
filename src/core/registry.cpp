#include "core/registry.hpp"

#include <algorithm>
#include <variant>

#include "common/cli.hpp"
#include "core/params.hpp"
#include "topo/cgroup.hpp"
#include "topo/dragonfly.hpp"
#include "topo/labeling.hpp"
#include "topo/swless.hpp"

namespace sldf::core {

KvReader::KvReader(const KvMap& kv, std::string context)
    : kv_(kv), context_(std::move(context)) {}

const std::string* KvReader::take(const char* key) {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return nullptr;
  used_.push_back(key);
  return &it->second;
}

void KvReader::apply_int(const char* key, int& field) {
  if (const std::string* v = take(key)) {
    long parsed = 0;
    if (!Cli::parse_long(*v, parsed))
      throw std::invalid_argument(context_ + ": option '" + std::string(key) +
                                  "' expects an integer, got '" + *v + "'");
    field = static_cast<int>(parsed);
  }
}

void KvReader::apply_bool(const char* key, bool& field) {
  if (const std::string* v = take(key)) {
    bool parsed = false;
    if (!Cli::parse_bool(*v, parsed))
      throw std::invalid_argument(context_ + ": option '" + std::string(key) +
                                  "' expects a boolean, got '" + *v + "'");
    field = parsed;
  }
}

int KvReader::get_int(const char* key, int def) {
  apply_int(key, def);
  return def;
}

bool KvReader::get_bool(const char* key, bool def) {
  apply_bool(key, def);
  return def;
}

double KvReader::get_double(const char* key, double def) {
  if (const std::string* v = take(key)) {
    double parsed = 0.0;
    if (!Cli::parse_double(*v, parsed))
      throw std::invalid_argument(context_ + ": option '" + std::string(key) +
                                  "' expects a number, got '" + *v + "'");
    return parsed;
  }
  return def;
}

std::string KvReader::get_str(const char* key, const char* def) {
  if (const std::string* v = take(key)) return *v;
  return def;
}

void KvReader::finish() const {
  for (const auto& [key, value] : kv_) {
    (void)value;
    if (std::find(used_.begin(), used_.end(), key) == used_.end())
      throw std::invalid_argument(context_ + ": unknown option '" + key +
                                  "'");
  }
}

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

// ---- topology options: each param struct has one field list (key, member,
// ---- help) that both its override applier and its option docs iterate,
// ---- so every option is declared once and its documented default is
// ---- rendered from the preset's own value -------------------------------

template <typename P>
struct ParamField {
  const char* key;
  std::variant<int P::*, bool P::*, topo::Labeling P::*> member;
  const char* help;
};

void read_option(KvReader& o, const char* key, int& field) {
  o.apply_int(key, field);
}
void read_option(KvReader& o, const char* key, bool& field) {
  o.apply_bool(key, field);
}
void read_option(KvReader& o, const char* key, topo::Labeling& field) {
  const std::string* v = o.take(key);
  if (!v) return;
  for (const auto l : {topo::Labeling::Snake, topo::Labeling::RowMajor,
                       topo::Labeling::PerimeterArc})
    if (*v == topo::to_string(l)) {
      field = l;
      return;
    }
  throw std::invalid_argument(
      o.context() + ": option '" + std::string(key) +
      "' expects snake|row-major|perimeter-arc, got '" + *v + "'");
}

OptionDoc option_doc(const char* key, int v, const char* help) {
  return {key, "int", std::to_string(v), help};
}
OptionDoc option_doc(const char* key, bool v, const char* help) {
  return {key, "bool", v ? "1" : "0", help};
}
OptionDoc option_doc(const char* key, topo::Labeling v, const char* help) {
  return {key, "snake|row-major|perimeter-arc", topo::to_string(v), help};
}

template <typename P>
void apply_fields(KvReader& o, P& p, const std::vector<ParamField<P>>& fields) {
  for (const auto& f : fields)
    std::visit([&](auto member) { read_option(o, f.key, p.*member); },
               f.member);
}

template <typename P>
std::vector<OptionDoc> field_docs(const P& p,
                                  const std::vector<ParamField<P>>& fields) {
  std::vector<OptionDoc> out;
  for (const auto& f : fields)
    std::visit(
        [&](auto member) {
          out.push_back(option_doc(f.key, p.*member, f.help));
        },
        f.member);
  return out;
}

constexpr const char* kFaultTolerantHelp =
    "reserve the fault-detour VC budget even without faults (resilience "
    "baselines; implied by active fault.* keys)";

const std::vector<ParamField<topo::SwlessParams>>& swless_fields() {
  using P = topo::SwlessParams;
  static const std::vector<ParamField<P>> fields = {
      {"a", &P::a, "C-groups per wafer"},
      {"b", &P::b, "wafers per W-group (a*b C-groups fully connected)"},
      {"chip_gx", &P::chip_gx, "chiplet-grid columns per C-group"},
      {"chip_gy", &P::chip_gy, "chiplet-grid rows per C-group"},
      {"noc_x", &P::noc_x, "NoC routers per chiplet, x"},
      {"noc_y", &P::noc_y, "NoC routers per chiplet, y"},
      {"ports_per_chiplet", &P::ports_per_chiplet,
       "paper's n; n/4 links per chiplet edge"},
      {"local_ports", &P::local_ports,
       "external ports toward sibling C-groups (a*b-1 for a full mesh)"},
      {"global_ports", &P::global_ports, "paper's h: global ports per C-group"},
      {"g", &P::g, "W-groups; 0 selects the maximum a*b*h+1"},
      {"onchip_latency", &P::onchip_latency, "NoC link delay, cycles"},
      {"sr_latency", &P::sr_latency, "on-wafer short-reach link delay, cycles"},
      {"lr_latency", &P::lr_latency,
       "long-reach (cable/optics) link delay, cycles"},
      {"mesh_width", &P::mesh_width,
       "intra-C-group bandwidth multiplier (2B/4B on-wafer links)"},
      {"io_converters", &P::io_converters,
       "model SR-LR converters as forwarding nodes"},
      {"labeling", &P::labeling,
       "chiplet-grid labeling scheme for the Hamiltonian ring"},
      {"vc_buf", &P::vc_buf, "per-VC input buffer depth, flits"},
      // An explicit override lets a zero-fault baseline build with the same
      // fault-detour VC budget as the faulted points of a resilience sweep
      // (the budget changes buffering, which would otherwise confound the
      // sweep's first step).
      {"fault_tolerant", &P::fault_tolerant, kFaultTolerantHelp},
  };
  return fields;
}

const std::vector<ParamField<topo::SwDragonflyParams>>& swdf_fields() {
  using P = topo::SwDragonflyParams;
  static const std::vector<ParamField<P>> fields = {
      {"switches_per_group", &P::switches_per_group,
       "switches per group (paper a)"},
      {"terminals_per_switch", &P::terminals_per_switch,
       "terminals per switch (paper t)"},
      {"globals_per_switch", &P::globals_per_switch,
       "global ports per switch (paper h)"},
      {"g", &P::groups, "groups; 0 selects the maximum S*h+1"},
      {"term_latency", &P::term_latency,
       "processor-to-switch link delay, cycles"},
      {"local_latency", &P::local_latency, "intra-group link delay, cycles"},
      {"global_latency", &P::global_latency, "inter-group link delay, cycles"},
      {"vc_buf", &P::vc_buf, "per-VC input buffer depth, flits"},
      {"vcs_per_class", &P::vcs_per_class,
       "destination-hashed VCs per class (ideal-switch approximation)"},
      {"fault_tolerant", &P::fault_tolerant, kFaultTolerantHelp},
  };
  return fields;
}

const std::vector<ParamField<topo::CGroupShape>>& cgroup_fields() {
  using P = topo::CGroupShape;
  static const std::vector<ParamField<P>> fields = {
      {"chip_gx", &P::chip_gx, "chiplet columns"},
      {"chip_gy", &P::chip_gy, "chiplet rows"},
      {"noc_x", &P::noc_x, "NoC routers per chiplet, x"},
      {"noc_y", &P::noc_y, "NoC routers per chiplet, y"},
      {"ports_per_chiplet", &P::ports_per_chiplet,
       "paper's n; n/4 links per chiplet edge"},
      {"labeling", &P::labeling, "chiplet-grid labeling scheme"},
      {"onchip_latency", &P::onchip_latency, "NoC link delay, cycles"},
      {"sr_latency", &P::sr_latency, "on-wafer short-reach link delay, cycles"},
      {"mesh_width", &P::mesh_width,
       "bandwidth multiplier of the wafer mesh links"},
      {"io_converters", &P::io_converters,
       "model SR-LR converters as forwarding nodes"},
  };
  return fields;
}

void apply(topo::SwlessParams& p, const TopoConfig& cfg,
           const std::string& name) {
  KvReader o(cfg.params, "topology '" + name + "'");
  apply_fields(o, p, swless_fields());
  o.finish();
  p.mode = cfg.mode;
  p.scheme = cfg.scheme;
  p.fault_tolerant = p.fault_tolerant || cfg.fault_tolerant;
}

void apply(topo::SwDragonflyParams& p, const TopoConfig& cfg,
           const std::string& name) {
  KvReader o(cfg.params, "topology '" + name + "'");
  apply_fields(o, p, swdf_fields());
  o.finish();
  require_default_scheme(cfg, name.c_str(),
                         "switch-based Dragonfly uses its own VC classes");
  p.mode = cfg.mode;
  p.fault_tolerant = p.fault_tolerant || cfg.fault_tolerant;
}

TopologyBuilder swless_preset(topo::SwlessParams (*base)(),
                              const char* name) {
  return [base, name](sim::Network& net, const TopoConfig& cfg) {
    auto p = base();
    apply(p, cfg, name);
    return topo::wire_swless_dragonfly(net, p);
  };
}

TopologyBuilder swdf_preset(topo::SwDragonflyParams (*base)(),
                            const char* name) {
  return [base, name](sim::Network& net, const TopoConfig& cfg) {
    auto p = base();
    apply(p, cfg, name);
    return topo::wire_sw_dragonfly(net, p);
  };
}

// Defaults of the cgroup-mesh / crossbar builders' local options, shared
// with their docs.
constexpr int kCgroupMeshNumVcs = 1;
constexpr int kCgroupMeshVcBuf = 32;
constexpr int kCrossbarTerminals = 4;
constexpr int kCrossbarTermLatency = 1;

std::vector<OptionDoc> cgroup_mesh_docs() {
  std::vector<OptionDoc> docs =
      field_docs(topo::CGroupShape{}, cgroup_fields());
  docs.push_back(option_doc("num_vcs", kCgroupMeshNumVcs,
                            "virtual channels (XY routing needs one)"));
  docs.push_back(option_doc("vc_buf", kCgroupMeshVcBuf,
                            "per-VC input buffer depth, flits"));
  return docs;
}

std::vector<OptionDoc> crossbar_docs() {
  return {option_doc("terminals", kCrossbarTerminals,
                     "endpoints on the single switch"),
          option_doc("term_latency", kCrossbarTermLatency,
                     "terminal link delay, cycles")};
}

topo::SwlessParams default_swless() { return topo::SwlessParams{}; }
topo::SwDragonflyParams default_swdf() { return topo::SwDragonflyParams{}; }

topo::WiredFabric build_cgroup_mesh(sim::Network& net, const TopoConfig& cfg) {
  topo::CGroupShape s;
  int num_vcs = kCgroupMeshNumVcs;
  int vc_buf = kCgroupMeshVcBuf;
  KvReader o(cfg.params, "topology 'cgroup-mesh'");
  apply_fields(o, s, cgroup_fields());
  o.apply_int("num_vcs", num_vcs);
  o.apply_int("vc_buf", vc_buf);
  o.finish();
  require_default_mode(cfg, "cgroup-mesh");
  require_default_scheme(cfg, "cgroup-mesh", "XY routing needs no scheme");
  require_no_faults(cfg, "cgroup-mesh");
  return topo::wire_mesh_network(net, s, num_vcs, vc_buf);
}

topo::WiredFabric build_crossbar_net(sim::Network& net,
                                     const TopoConfig& cfg) {
  int terminals = kCrossbarTerminals;
  int term_latency = kCrossbarTermLatency;
  KvReader o(cfg.params, "topology 'crossbar'");
  o.apply_int("terminals", terminals);
  o.apply_int("term_latency", term_latency);
  o.finish();
  require_default_mode(cfg, "crossbar");
  require_default_scheme(cfg, "crossbar", "a single switch has no scheme");
  require_no_faults(cfg, "crossbar");
  return topo::wire_crossbar(net, terminals, term_latency);
}

}  // namespace

TopologyRegistry::TopologyRegistry() {
  const auto swless = [this](const char* name, const char* summary,
                             topo::SwlessParams (*base)()) {
    add(name, RegistryDoc{summary, field_docs(base(), swless_fields())},
        swless_preset(base, name));
  };
  const auto swdf = [this](const char* name, const char* summary,
                           topo::SwDragonflyParams (*base)()) {
    add(name, RegistryDoc{summary, field_docs(base(), swdf_fields())},
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
                  cgroup_mesh_docs()},
      &build_cgroup_mesh);
  add("crossbar",
      RegistryDoc{"ideal single-switch crossbar", crossbar_docs()},
      &build_crossbar_net);
}

TopologyRegistry& TopologyRegistry::instance() {
  static TopologyRegistry reg;
  return reg;
}

}  // namespace sldf::core
