#include "core/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/strfmt.hpp"
#include "sim/network.hpp"
#include "topo/composite.hpp"
#include "trace/tenants.hpp"
#include "traffic/pattern.hpp"
#include "workload/registry.hpp"

namespace sldf::core {

namespace {

/// An online fault timeline. Parsed now so a malformed one fails at
/// config-read time with its typed FaultError; the text is kept and
/// resolved against the finalized network by topo::inject_faults().
struct Timeline : Str {
  std::string parse(const std::string&, const std::string& v) const {
    (void)topo::parse_fault_events(v);
    return v;
  }
};

// ---- row builders ---------------------------------------------------------

const ScenarioSpec& default_spec() {
  static const ScenarioSpec d;
  return d;
}

/// Documentation and emission options of a fixed key.
struct KeyOpts {
  bool network = false;        ///< Shapes the finalized network.
  bool elide_default = false;  ///< to_kv() omits the key at its default.
  /// to_kv() writes the key only while this holds (its axis is engaged).
  bool (*when)(const ScenarioSpec&) = nullptr;
  const char* def = nullptr;  ///< Doc default; nullptr renders default_spec().
};

/// The fixed-key row for the field `get` (set) and `view` (emit) reach,
/// converted by `codec`.
template <typename Ref, typename ConstRef, typename Codec>
ScenarioKey bound_key(const char* key, const char* help,
                      Ref (*get)(ScenarioSpec&),
                      ConstRef (*view)(const ScenarioSpec&), Codec codec,
                      KeyOpts o) {
  return {.key = key,
          .help = help,
          .def = o.def ? o.def : codec.render(view(default_spec())),
          .network = o.network,
          .set = [get, codec](ScenarioSpec& s, const std::string& name,
                              const std::string& value) {
            get(s) = codec.parse("scenario key '" + name + "'", value);
          },
          .emit = [view, codec, o, name = std::string(key)](
                      const ScenarioSpec& s, KvMap& kv) {
            if (o.when && !o.when(s)) return;
            if (o.elide_default && view(s) == view(default_spec())) return;
            kv[name] = codec.render(view(s));
          }};
}

/// A fixed key: `Field` is a captureless lambda mapping a spec to the field
/// (a reference, or a tuple of references for a compound value) that
/// `codec` converts. It is reduced to two function pointers, so the row's
/// closures are compiled once per field type and codec, not once per key.
template <typename Field, typename Codec>
ScenarioKey fixed(const char* key, const char* help, Field, Codec codec,
                  KeyOpts o = {}) {
  using Ref = decltype(Field{}(std::declval<ScenarioSpec&>()));
  using ConstRef = decltype(Field{}(std::declval<const ScenarioSpec&>()));
  Ref (*get)(ScenarioSpec&) = [](ScenarioSpec& s) -> Ref {
    return Field{}(s);
  };
  ConstRef (*view)(const ScenarioSpec&) = [](const ScenarioSpec& s)
      -> ConstRef { return Field{}(s); };
  return bound_key(key, help, get, view, codec, o);
}

/// A `<prefix><name>` family stored verbatim in one of the spec's option
/// maps; the registry entry that consumes the map validates it.
ScenarioKey map_family(const char* key, const char* help, const char* def,
                       KvMap ScenarioSpec::*map, bool network = false) {
  const std::string prefix(key, std::string_view(key).find('<'));
  return {.key = key,
          .help = help,
          .def = def,
          .network = network,
          .set = [map, n = prefix.size()](ScenarioSpec& s,
                                          const std::string& name,
                                          const std::string& value) {
            (s.*map)[name.substr(n)] = value;
          },
          .emit = [map, prefix](const ScenarioSpec& s, KvMap& kv) {
            for (const auto& [k, v] : s.*map) kv[prefix + k] = v;
          }};
}

/// The tenant a `tenant<i>.<field>` key addresses. The vector grows on
/// demand, so keys apply in any order (KvMap iteration delivers tenant0.*
/// before the `tenants` count).
ScenarioSpec::TenantKeys& tenant_of(ScenarioSpec& s, const std::string& name) {
  long idx = 0;
  if (!Cli::parse_long(name.substr(6, name.find('.') - 6), idx) || idx >= 64)
    throw std::invalid_argument("scenario key '" + name +
                                "': tenant index must be < 64");
  if (s.tenant.size() <= static_cast<std::size_t>(idx))
    s.tenant.resize(static_cast<std::size_t>(idx) + 1);
  return s.tenant[static_cast<std::size_t>(idx)];
}

std::string tenant_prefix(std::size_t i) {
  return "tenant" + std::to_string(i) + ".";
}

/// `tenant<i>.<field>` for one string member of TenantKeys. Free-form
/// here; trace::tenant_specs() validates against `tenants` at run time.
ScenarioKey tenant_key(const char* field, const char* help, const char* def,
                       std::string ScenarioSpec::TenantKeys::*member) {
  return {.key = std::string("tenant<i>.") + field,
          .help = help,
          .def = def,
          .set = [member](ScenarioSpec& s, const std::string& name,
                          const std::string& value) {
            tenant_of(s, name).*member = value;
          },
          .emit = [member, field = std::string(field)](const ScenarioSpec& s,
                                                       KvMap& kv) {
            for (std::size_t i = 0; i < s.tenant.size(); ++i)
              if (!(s.tenant[i].*member).empty())
                kv[tenant_prefix(i) + field] = s.tenant[i].*member;
          }};
}

/// `tenant<i>.<opt>`: the tenant's workload options.
ScenarioKey tenant_opts(const char* help, const char* def) {
  return {.key = "tenant<i>.<opt>",
          .help = help,
          .def = def,
          .set = [](ScenarioSpec& s, const std::string& name,
                    const std::string& value) {
            tenant_of(s, name).opts[name.substr(name.find('.') + 1)] = value;
          },
          .emit = [](const ScenarioSpec& s, KvMap& kv) {
            for (std::size_t i = 0; i < s.tenant.size(); ++i)
              for (const auto& [k, v] : s.tenant[i].opts)
                kv[tenant_prefix(i) + k] = v;
          }};
}

/// An offered load: finite and not negative.
constexpr Num kLoad{0.0, std::numeric_limits<double>::max()};

bool rates_unset(const ScenarioSpec& s) { return s.rates.empty(); }
bool planes_engaged(const ScenarioSpec& s) { return s.plane_count > 0; }
bool wafers_engaged(const ScenarioSpec& s) { return s.wafer_count > 0; }

}  // namespace

bool ScenarioKey::matches(const std::string& name) const {
  // A fixed key matches itself. In a family pattern `<i>` matches a tenant
  // index (digits) and the trailing placeholder any non-empty rest.
  std::size_t n = 0;
  for (std::size_t p = 0; p < key.size(); ++p) {
    if (key.compare(p, 3, "<i>") == 0) {
      const std::size_t start = n;
      while (n < name.size() &&
             std::isdigit(static_cast<unsigned char>(name[n])))
        ++n;
      if (n == start) return false;
      p += 2;
    } else if (key[p] == '<') {
      return n < name.size();
    } else if (n >= name.size() || name[n++] != key[p]) {
      return false;
    }
  }
  return n == name.size();
}

std::span<const ScenarioKey> scenario_key_table() {
  // Table order is the order of the generated reference and of the
  // `sldf --help` key list. Lookup takes the first matching row, so a
  // family row follows the specific rows it would otherwise shadow.
  using route::RouteMode, route::VcScheme, route::PlanePolicy;
  static const ScenarioKey table[] = {
      fixed("label", "Series label in tables/CSV",
            [](auto& s) -> auto& { return s.label; }, Str{}),
      fixed("topology", "Topology registry name (see Topologies)",
            [](auto& s) -> auto& { return s.topology; }, Str{},
            {.network = true}),
      map_family(
          "topo.<param>",
          "Topology parameter override, e.g. `topo.g = 15` (see Topologies)",
          "preset values", &ScenarioSpec::topo, /*network=*/true),
      fixed("mode", "Routing: `minimal` \\| `valiant` \\| `adaptive`",
            [](auto& s) -> auto& { return s.mode; },
            Enum<RouteMode>{"minimal|valiant|adaptive", &route::parse_route_mode,
                            &route::to_string},
            {.network = true}),
      fixed("scheme", "VC scheme: `baseline` \\| `reduced` \\| `reduced-safe`",
            [](auto& s) -> auto& { return s.scheme; },
            Enum<VcScheme>{"baseline|reduced|reduced-safe",
                           &route::parse_vc_scheme, &route::to_string},
            {.network = true}),
      fixed("traffic", "Traffic registry name (see Traffic patterns)",
            [](auto& s) -> auto& { return s.traffic; }, Str{}),
      map_family("traffic.<opt>",
                 "Traffic pattern option, e.g. `traffic.scope = wgroup` (see "
                 "Traffic patterns)",
                 "pattern defaults", &ScenarioSpec::traffic_opts),
      fixed("workload",
            "Workload registry name; switches to one closed-loop "
            "message-level run (see Workloads)",
            [](auto& s) -> auto& { return s.workload; }, Str{},
            {.elide_default = true, .def = "unset (rate sweep)"}),
      map_family("workload.<opt>",
                 "Workload generator/runner option, e.g. `workload.kib = 64` "
                 "(see Workloads)",
                 "workload defaults", &ScenarioSpec::workload_opts),
      fixed("rates", "Explicit offered loads, comma-separated (rate sweeps)",
            [](auto& s) -> auto& { return s.rates; }, List<Num>{kLoad},
            {.elide_default = true, .def = "unset"}),
      fixed("max_rate", "With `points`, linspace(0, max] when `rates` is unset",
            [](auto& s) -> auto& { return s.max_rate; }, kLoad,
            {.when = rates_unset}),
      fixed("points", "Sweep points when `rates` is unset",
            [](auto& s) -> auto& { return s.points; }, Int<int>{1},
            {.when = rates_unset}),
      fixed("stop_factor",
            "Early-stop when latency exceeds this x zero-load latency",
            [](auto& s) -> auto& { return s.stop_latency_factor; }, Num{}),
      // Orthogonal to `sldf --threads`, which runs simulations side by
      // side: shards parallelize inside each one (sim::resolve_shards).
      fixed("shards",
            "Intra-simulation engine shards — N threads per simulation, "
            "bit-identical results for every N (`auto`/0 = `SLDF_SHARDS` env, "
            "else the usable cores, used only on cycles after one that moved "
            "at least `sim::kShardGateFlits` flits or walked at least "
            "`sim::kShardGateRouters` routers; 1 per simulation when "
            "`sldf --threads` > 1)",
            [](auto& s) -> auto& { return s.sim.shards; }, AutoCount<int>{}),
      fixed("warmup", "Warmup cycles (Table IV: 5000)",
            [](auto& s) -> auto& { return s.sim.warmup; }, Int<Cycle>{0}),
      fixed("measure", "Measured cycles (Table IV: 10000)",
            [](auto& s) -> auto& { return s.sim.measure; }, Int<Cycle>{0}),
      fixed("drain", "Extra cycles to let measured packets land",
            [](auto& s) -> auto& { return s.sim.drain; }, Int<Cycle>{0}),
      // Packet::len is 16 bits wide.
      fixed("pkt_len", "Flits per packet",
            [](auto& s) -> auto& { return s.sim.pkt_len; },
            Int<int>{1, 65535}),
      fixed("seed", "Base RNG seed",
            [](auto& s) -> auto& { return s.sim.seed; }, Int<std::uint64_t>{0}),
      fixed("max_src_queue", "Per-node source-queue cap (packets)",
            [](auto& s) -> auto& { return s.sim.max_src_queue; },
            Int<int>{1}),
      // fault.* is typed here rather than a pass-through map: validation
      // should fail at parse time, not at build time.
      fixed("fault.rate",
            "Fraction of candidate cables to fail (deterministic, seeded; see "
            "Resilience)",
            [](auto& s) -> auto& { return s.fault.rate; }, Num{0.0, 1.0},
            {.network = true, .elide_default = true}),
      fixed("fault.kind",
            "Failed-link class: `any` \\| `intra` \\| `local` \\| `global` "
            "\\| `vertical`",
            [](auto& s) -> auto& { return s.fault.kind; },
            Enum<topo::FaultKind>{"any|intra|local|global|vertical",
                                  &topo::parse_fault_kind, &topo::to_string},
            {.network = true, .elide_default = true}),
      fixed("fault.seed", "Fault-set RNG seed (independent of `seed`)",
            [](auto& s) -> auto& { return s.fault.seed; },
            Int<std::uint64_t>{0},
            {.network = true, .elide_default = true}),
      fixed("fault.chips", "Chips to fail entirely, comma-separated ids",
            [](auto& s) -> auto& { return s.fault.chips; },
            List<Int<ChipId>>{{0}},
            {.network = true, .elide_default = true, .def = "unset"}),
      fixed("fault.events",
            "Online fault timeline, `fail|repair@<cycle>:<kind>=<rate>` or "
            "`...:chip<N>`, `;`-separated (see Resilience)",
            [](auto& s) -> auto& { return s.fault.events; }, Timeline{},
            {.network = true, .elide_default = true, .def = "unset"}),
      // The file's existence and contents are checked at build time.
      fixed("fault.schedule",
            "Fault-timeline file: a `sldf-faults 2` header line, then "
            "`fault.events` syntax (`;` or newline between events, `#` "
            "comments); exclusive with `fault.events`",
            [](auto& s) -> auto& { return s.fault.schedule; }, Str{},
            {.network = true, .elide_default = true, .def = "unset"}),
      fixed("fault.rescue",
            "Retransmit packets torn by an online failure (`0`: drop and "
            "count them)",
            [](auto& s) -> auto& { return s.fault.rescue; }, Bool{},
            {.network = true, .elide_default = true}),
      fixed("fault.plane",
            "Restrict cable failures to one plane of a multi-plane fabric "
            "(`-1` = all planes; `fault.chips` always spans planes)",
            [](auto& s) -> auto& { return s.fault.plane; }, Int<int>{-1},
            {.network = true, .elide_default = true, .def = "-1 (all planes)"}),
      // Plane and wafer keys serialize only while their axis is engaged
      // (count 0 = the classic single-fabric build path).
      fixed("plane.count",
            "Independent fabric planes (rails) sharing the logical chips; "
            "packets pick a plane at injection (see Composite fabrics)",
            [](auto& s) -> auto& { return s.plane_count; }, Int<int>{1},
            {.network = true,
             .elide_default = true,
             .def = "unset (classic single-fabric build)"}),
      fixed("plane.mix",
            "Per-plane topology registry names, comma-separated (length = "
            "`plane.count`)",
            [](auto& s) -> auto& { return s.plane_mix; }, List<Str>{{}, 1},
            {.network = true,
             .elide_default = true,
             .when = planes_engaged,
             .def = "`plane.count` copies of `topology`"}),
      fixed("plane.policy",
            "Plane selection: `hash` \\| `rr` \\| `adaptive` \\| `collective`",
            [](auto& s) -> auto& { return s.plane_policy; },
            Enum<PlanePolicy>{route::plane_policy_names(),
                              &route::parse_plane_policy, &route::to_string},
            {.network = true, .when = planes_engaged}),
      fixed("wafer.count",
            "Wafer-on-wafer stack depth: that many copies of `topology` "
            "bonded by vertical inter-wafer cables, one vertical hop max (see "
            "Composite fabrics)",
            [](auto& s) -> auto& { return s.wafer_count; }, Int<int>{1},
            {.network = true,
             .elide_default = true,
             .def = "unset (classic single-fabric build)"}),
      // Channel::latency is 8 bits wide.
      fixed("wafer.latency", "Vertical-bond channel latency, cycles",
            [](auto& s) -> auto& { return s.wafer_latency; },
            Int<int>{1, 255},
            {.network = true, .elide_default = true, .when = wafers_engaged}),
      fixed("wafer.width",
            "Vertical-bond token width, `N` or fraction `N/D` of a flit per "
            "cycle",
            [](auto& s) {
              return std::tie(s.wafer_width_num, s.wafer_width_den);
            },
            Fraction{},
            {.network = true, .elide_default = true, .when = wafers_engaged}),
      fixed("tenants",
            "Concurrent tenant jobs; > 0 switches to one shared multi-tenant "
            "serving run (see Multi-tenancy)",
            [](auto& s) -> auto& { return s.tenants; }, Int<int>{0},
            {.elide_default = true, .def = "0 (single job)"}),
      fixed("tenants.isolation",
            "Also run each tenant alone on its placement and report the "
            "interference ratio (`0` disables the baselines)",
            [](auto& s) -> auto& { return s.tenants_isolation; }, Bool{},
            {.elide_default = true}),
      tenant_key("workload",
                 "Tenant i's workload registry name (required for each "
                 "tenant)",
                 "unset", &ScenarioSpec::TenantKeys::workload),
      tenant_key("placement",
                 "Tenant i's chip placement: `contiguous` \\| `scattered`",
                 "contiguous", &ScenarioSpec::TenantKeys::placement),
      tenant_key("chips",
                 "Tenant i's chips: a count to allocate, or explicit "
                 "comma-separated ids",
                 "unset", &ScenarioSpec::TenantKeys::chips),
      tenant_opts(
          "Workload option for tenant i, e.g. `tenant0.kib = 64` (see "
          "Workloads)",
          "workload defaults"),
      fixed("trace.file",
            "Trace file the `trace-replay` workload replays (see Multi-"
            "tenancy)",
            [](auto& s) -> auto& { return s.trace_file; }, Str{},
            {.elide_default = true, .def = "unset"}),
      fixed("trace.seed",
            "Seed for synthesized `request-reply` arrivals (independent of "
            "`seed`)",
            [](auto& s) -> auto& { return s.trace_seed; },
            Int<std::uint64_t>{0},
            {.elide_default = true}),
  };
  return table;
}

const ScenarioKey* find_scenario_key(const std::string& name) {
  for (const ScenarioKey& row : scenario_key_table())
    if (row.matches(name)) return &row;
  return nullptr;
}

std::string network_cache_key(const ScenarioSpec& spec) {
  std::string key;
  for (const auto& [k, v] : spec.to_kv())
    if (const ScenarioKey* row = find_scenario_key(k); row && row->network)
      key += k + "=" + v + ";";
  return key;
}

void ScenarioSpec::set(const std::string& key, const std::string& value) {
  const ScenarioKey* row = find_scenario_key(key);
  if (!row) throw std::invalid_argument("unknown scenario key '" + key + "'");
  row->set(*this, key, value);
}

KvMap ScenarioSpec::to_kv() const {
  KvMap kv;
  for (const ScenarioKey& row : scenario_key_table()) row.emit(*this, kv);
  return kv;
}

std::string ScenarioSpec::to_config() const {
  std::string out;
  for (const auto& [k, v] : to_kv()) out += k + " = " + v + "\n";
  return out;
}

ScenarioSpec ScenarioSpec::from_kv(const KvMap& kv) {
  ScenarioSpec s;
  for (const auto& [k, v] : kv) s.set(k, v);
  return s;
}

std::vector<double> ScenarioSpec::effective_rates() const {
  if (!rates.empty()) return rates;
  return linspace_rates(max_rate, points);
}

ScenarioSpec spec_from_cli(const Cli& cli, const ScenarioSpec& defaults,
                           std::vector<std::string>* unused) {
  ScenarioSpec s = defaults;
  for (const auto& [key, value] : cli.entries()) {
    if (find_scenario_key(key))
      s.set(key, value);
    else if (unused)
      unused->push_back(key);
  }
  return s;
}

std::vector<ScenarioSpec> parse_scenario_text(const std::string& text,
                                              const ScenarioSpec& defaults) {
  ScenarioSpec base = defaults;
  std::vector<ScenarioSpec> series;
  ScenarioSpec* current = &base;
  // Keys already set in the current section (base or one [series]): a
  // repeat within one section is almost always a typo, so it warns (once
  // per key) instead of silently letting the last value win. A series key
  // overriding a base key is the intended layering and stays silent.
  std::set<std::string> seen;
  std::set<std::string> warned;

  std::stringstream ss(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(ss, raw)) {
    ++lineno;
    const std::string line = Cli::trim(raw);
    if (line.empty() || line[0] == '#' || line[0] == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']')
        throw std::invalid_argument("scenario file line " +
                                    std::to_string(lineno) +
                                    ": unterminated section header");
      std::string name = Cli::trim(line.substr(1, line.size() - 2));
      if (name.rfind("series", 0) == 0) name = Cli::trim(name.substr(6));
      if (name.empty())
        throw std::invalid_argument("scenario file line " +
                                    std::to_string(lineno) +
                                    ": empty series name");
      series.push_back(base);
      series.back().label = name;
      current = &series.back();
      seen.clear();
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("scenario file line " +
                                  std::to_string(lineno) +
                                  ": expected 'key = value', got '" + line +
                                  "'");
    const std::string key = Cli::trim(line.substr(0, eq));
    const std::string value = Cli::trim(line.substr(eq + 1));
    if (key.empty())
      throw std::invalid_argument("scenario file line " +
                                  std::to_string(lineno) + ": empty key");
    if (!seen.insert(key).second && warned.insert(key).second)
      log_warn("scenario file line %d: key '%s' repeated in this section "
               "(last value wins)",
               lineno, key.c_str());
    try {
      current->set(key, value);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("scenario file line " +
                                  std::to_string(lineno) + ": " + e.what());
    }
  }
  if (series.empty()) series.push_back(base);
  return series;
}

std::vector<ScenarioSpec> load_scenario_file(const std::string& path,
                                             const ScenarioSpec& defaults) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("cannot open scenario file: " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return parse_scenario_text(ss.str(), defaults);
}

void build_network(sim::Network& net, const ScenarioSpec& spec) {
  if (spec.wafer_count > 0 && spec.plane_count > 0)
    throw std::invalid_argument(
        "scenario sets both wafer.count and plane.count; planes and wafers "
        "are mutually exclusive axes of one network");
  if (spec.wafer_count > 0 || spec.plane_count > 0) {
    // Composite build: every child wires its own fabric through the
    // registry (plane.mix picks per-plane presets; default = copies of
    // `topology`), then the composite layer validates, aggregates, and
    // seals the partition. A count of 1 goes through here too — the
    // result runs bit-identical to the classic path, and tests hold it to
    // that.
    const bool wafers = spec.wafer_count > 0;
    topo::CompositeSpec cs;
    cs.axis = wafers ? sim::Axis::Wafers : sim::Axis::Planes;
    cs.count = wafers ? spec.wafer_count : spec.plane_count;
    cs.plane_policy = static_cast<int>(spec.plane_policy);
    cs.vertical_latency = spec.wafer_latency;
    cs.vertical_width_num = spec.wafer_width_num;
    cs.vertical_width_den = spec.wafer_width_den;
    std::vector<std::string> names(static_cast<std::size_t>(cs.count),
                                   spec.topology);
    if (!wafers && !spec.plane_mix.empty()) {
      if (spec.plane_mix.size() != names.size())
        throw std::invalid_argument(
            "plane.mix names " + std::to_string(spec.plane_mix.size()) +
            " topologies but plane.count is " +
            std::to_string(spec.plane_count));
      names = spec.plane_mix;
    }
    const TopoConfig cfg = spec.topo_config();
    topo::build_composite(net, cs, [&](int child, sim::Network& n) {
      return TopologyRegistry::instance().wire(
          names[static_cast<std::size_t>(child)], n, cfg);
    });
  } else {
    TopologyRegistry::instance().build(spec.topology, net,
                                       spec.topo_config());
  }
  if (spec.fault.armed()) {
    const topo::FaultReport rep = topo::inject_faults(net, spec.fault);
    log_debug("%s", rep.to_string().c_str());
  }
}

TrafficFactory traffic_factory(const ScenarioSpec& spec) {
  const std::string kind = spec.traffic;
  const KvMap opts = spec.traffic_opts;
  return [kind, opts](const sim::Network& net) {
    return traffic::make_pattern(kind, net, opts);
  };
}

SweepConfig sweep_config(const ScenarioSpec& spec) {
  SweepConfig cfg;
  cfg.rates = spec.effective_rates();
  cfg.base = spec.sim;
  cfg.stop_latency_factor = spec.stop_latency_factor;
  return cfg;
}

workload::WorkloadRunConfig workload_run_config(const ScenarioSpec& spec,
                                                KvMap* gen_opts) {
  // Split the option map: the runner keys are read here, the rest goes to
  // the generator (which rejects leftovers itself).
  workload::WorkloadRunConfig rc;
  rc.sim = spec.sim;
  KvMap rest;
  rc = read_options(workload::runner_options(), rc, spec.workload_opts,
                    spec.workload.empty() ? std::string("workload runner")
                                          : "workload '" + spec.workload + "'",
                    &rest);
  if (gen_opts) *gen_opts = std::move(rest);
  return rc;
}

workload::WorkloadEnv workload_env(const ScenarioSpec& spec,
                                   double flit_bytes) {
  workload::WorkloadEnv env;
  env.flit_bytes = flit_bytes;
  env.trace_file = spec.trace_file;
  env.trace_seed = spec.trace_seed;
  return env;
}

workload::WorkloadGraph make_workload_graph(const ScenarioSpec& spec,
                                            const sim::Network& net,
                                            workload::WorkloadRunConfig* rc) {
  if (spec.workload.empty())
    throw std::invalid_argument("series '" + spec.label +
                                "' has no workload key");
  KvMap gen_opts;
  const workload::WorkloadRunConfig cfg = workload_run_config(spec, &gen_opts);
  if (rc) *rc = cfg;
  return workload::make_workload(spec.workload, net, gen_opts,
                                 workload_env(spec, cfg.flit_bytes));
}

workload::WorkloadResult run_workload_scenario(const ScenarioSpec& spec,
                                               sim::Network& net) {
  workload::WorkloadRunConfig rc;
  const workload::WorkloadGraph graph = make_workload_graph(spec, net, &rc);
  return workload::run_workload(net, graph, rc);
}

workload::WorkloadResult run_workload_scenario(const ScenarioSpec& spec) {
  sim::Network net;
  build_network(net, spec);
  return run_workload_scenario(spec, net);
}

Cells workload_cells(const ScenarioSpec& spec,
                     const workload::WorkloadResult& r) {
  const auto num = [](double v) { return CsvWriter::format_num(v); };
  const auto count = [](std::uint64_t v) { return std::to_string(v); };
  return {{"series", spec.label},
          {"workload", spec.workload},
          {"chips", std::to_string(r.chips)},
          {"messages", count(r.messages)},
          {"packets", count(r.packets)},
          {"flits", count(r.flits)},
          {"cycles", count(r.cycles)},
          {"gbps_per_chip", num(r.gbps_per_chip)},
          {"avg_msg_cycles", num(r.avg_msg_cycles)},
          {"completed", r.completed ? "1" : "0"}};
}

SeriesResult to_series(const ScenarioSpec& spec,
                       const workload::WorkloadResult& r) {
  SeriesResult out;
  out.label = spec.label;
  out.rows = {workload_cells(spec, r)};
  out.totals = {1, r.cycles, r.flit_hops, r.packets_delivered};
  out.phases = r.engine;
  out.moved = r.flit_hops + r.ejected_flits;
  std::string& t = out.table;
  t = strf("# %s (workload=%s)\n", spec.label.c_str(),
           spec.workload.c_str());
  t += strf("%-7s %-9s %-9s %-10s %-10s %-10s %-9s %-9s\n", "chips",
            "messages", "packets", "flits", "cycles", "GB/s/chip", "avg_msg",
            "completed");
  t += strf("%-7d %-9llu %-9llu %-10llu %-10llu %-10.4f %-9.1f %-9s\n",
            r.chips, static_cast<unsigned long long>(r.messages),
            static_cast<unsigned long long>(r.packets),
            static_cast<unsigned long long>(r.flits),
            static_cast<unsigned long long>(r.cycles), r.gbps_per_chip,
            r.avg_msg_cycles, r.completed ? "yes" : "no");
  // Phase table, elided in the middle when a collective has many steps.
  const std::size_t n = r.phases.size();
  if (n > 1) {
    t += strf("  %-7s %-10s %-9s %-10s\n", "phase", "complete", "msgs",
              "flits");
    constexpr std::size_t kHead = 6, kTail = 3;
    for (std::size_t i = 0; i < n; ++i) {
      if (n > kHead + kTail + 1 && i == kHead)
        t += strf("  ... %zu more phases ...\n", n - kHead - kTail);
      if (n > kHead + kTail + 1 && i >= kHead && i < n - kTail) continue;
      const auto& ph = r.phases[i];
      t += strf("  %-7zu %-10llu %-9llu %-10llu\n", i,
                static_cast<unsigned long long>(ph.completed),
                static_cast<unsigned long long>(ph.messages),
                static_cast<unsigned long long>(ph.flits));
    }
  }
  t += "\n";
  return out;
}

std::vector<std::string> series_header(const ScenarioSpec& spec) {
  const auto require = [](bool known, const std::string& what) {
    if (!known)
      throw std::invalid_argument("unknown " + what + "' (see sldf --list)");
  };
  require(TopologyRegistry::instance().contains(spec.topology),
          "topology '" + spec.topology);
  const auto& workloads = workload::WorkloadRegistry::instance();
  if (spec.tenants > 0) {
    for (const auto& t : spec.tenant)
      require(t.workload.empty() || workloads.contains(t.workload),
              "workload '" + t.workload);
    return cell_names(trace::tenant_cells("", {}));
  }
  if (!spec.workload.empty()) {
    require(workloads.contains(spec.workload),
            "workload '" + spec.workload);
    return cell_names(workload_cells(spec, {}));
  }
  require(traffic::TrafficRegistry::instance().contains(spec.traffic),
          "traffic pattern '" + spec.traffic);
  return cell_names(sweep_cells("", {}));
}

namespace {

/// Warns about the first of `events` at or past `end`, the first cycle a
/// run of `spec` did not step: that event never fired. `ends_at` and
/// `note` finish the message. Returns whether it warned.
bool warn_unfired(const ScenarioSpec& spec,
                  const std::vector<topo::FaultEvent>& events, Cycle end,
                  Cycle ends_at, const std::string& note) {
  for (const topo::FaultEvent& e : events) {
    if (e.at < end) continue;
    log_warn("series '%s': fault event %s never fires: the run ends at "
             "cycle %llu%s",
             spec.label.c_str(), topo::to_string(e).c_str(),
             static_cast<unsigned long long>(ends_at), note.c_str());
    return true;
  }
  return false;
}

/// The sweep's series result, after warning about the first point whose
/// run ended before a fault event.
SeriesResult series_of(const ScenarioSpec& spec, const SweepSeries& series) {
  if (spec.fault.has_timeline()) {
    const auto events = topo::load_timeline(spec.fault).events;
    for (const SweepPoint& pt : series.points)
      if (warn_unfired(spec, events, pt.res.cycles_run, pt.res.cycles_run,
                       strf(" at rate %g", pt.rate)))
        break;
  }
  return to_series(series);
}

/// The workload's series result, after warning about a fault event at or
/// past its last cycle.
SeriesResult series_of(const ScenarioSpec& spec,
                       const workload::WorkloadResult& r) {
  // A completed run's `cycles` is the cycle its last tail landed in, the
  // last one stepped; an unfinished run's is the cycle it stopped before.
  if (spec.fault.has_timeline())
    warn_unfired(spec, topo::load_timeline(spec.fault).events,
                 r.completed ? r.cycles + 1 : r.cycles, r.cycles, "");
  return to_series(spec, r);
}

/// The tenant run's series result, after warning about a fault event at
/// or past the shared run's end, and about one the shared run reaches but
/// a tenant's shorter isolation baseline does not: that tenant's
/// interference ratio then compares two different fabrics.
SeriesResult series_of(const ScenarioSpec& spec,
                       const trace::MultiTenantResult& r) {
  if (spec.fault.has_timeline()) {
    const auto events = topo::load_timeline(spec.fault).events;
    const Cycle end = r.completed ? r.cycles + 1 : r.cycles;
    warn_unfired(spec, events, end, r.cycles, "");
    for (const trace::TenantResult& t : r.tenants) {
      if (t.isolated_ttc == 0) continue;  // no baseline ran
      const Cycle iso_end =
          t.isolated_completed ? t.isolated_ttc + 1 : t.isolated_ttc;
      for (const topo::FaultEvent& e : events) {
        if (e.at < iso_end || e.at >= end) continue;
        log_warn("series '%s': fault event %s fires in the shared run but "
                 "not in %s's isolation baseline, which ends at cycle %llu: "
                 "its interference ratio compares two different fabrics",
                 spec.label.c_str(), topo::to_string(e).c_str(),
                 t.name.c_str(),
                 static_cast<unsigned long long>(t.isolated_ttc));
        break;
      }
    }
  }
  return trace::to_series(r);
}

/// One spec of a batch and what its simulations left, each result or
/// error set once it ran: a rate sweep (`points` not empty) runs one per
/// rate, a workload or a tenant spec one.
struct Job {
  const ScenarioSpec* spec;
  SweepConfig cfg;
  std::vector<std::optional<SweepPoint>> points;
  std::vector<std::exception_ptr> errors;
  workload::WorkloadResult workload;
  trace::MultiTenantResult tenants;

  explicit Job(const ScenarioSpec& s)
      : spec(&s),
        cfg(sweep_config(s)),
        points(s.tenants > 0 || !s.workload.empty() ? 0 : cfg.rates.size()),
        errors(std::max<std::size_t>(points.size(), 1)) {}
  /// Whether an earlier point failed or is past the stop rule, which cuts
  /// point i from the series. Read under the batch's lock.
  [[nodiscard]] bool cut_before(std::size_t i) const {
    for (std::size_t j = 0; j < i; ++j)
      if (errors[j] || (points[0] && points[j] &&
                        cfg.saturated(points[0]->res, points[j]->res)))
        return true;
    return false;
  }
};

/// Runs the jobs' simulations in one pool of `threads` workers (0 = the
/// usable cores), handed out in job order and a sweep's in rate order, so
/// one worker runs them as a serial loop would.
void run_jobs(std::vector<Job>& jobs, unsigned threads) {
  std::vector<std::pair<Job*, std::size_t>> tasks;
  for (Job& job : jobs)
    for (std::size_t i = 0; i < job.errors.size(); ++i)
      tasks.emplace_back(&job, i);
  // Workers beyond the task count would only idle, and would keep a lone
  // simulation from sharding over the cores they leave unused.
  const auto workers = static_cast<unsigned>(
      std::min<std::size_t>(resolve_threads(threads), tasks.size()));
  std::mutex mu;
  parallel_for(tasks.size(), workers, [&](std::size_t k) {
    auto [job, i] = tasks[k];
    if (const std::lock_guard lock(mu); job->cut_before(i)) return;
    ScenarioSpec spec = *job->spec;
    spec.sim = worker_config(spec.sim, workers);
    try {
      if (spec.tenants > 0) {
        job->tenants = trace::run_tenant_scenario(spec);
      } else if (!spec.workload.empty()) {
        job->workload = run_workload_scenario(spec);
      } else {
        sim::Network net;
        build_network(net, spec);
        SweepPoint pt{job->cfg.rates[i],
                      sim::run_sim(net, point_config(sweep_config(spec), i),
                                   *traffic_factory(spec)(net))};
        const std::lock_guard lock(mu);
        job->points[i] = std::move(pt);
      }
    } catch (...) {
      const std::lock_guard lock(mu);
      job->errors[i] = std::current_exception();
    }
  });
}

/// A sweep job's points in rate order, cut after the first past the stop
/// rule (the paper's curves end there too); rethrows the first failure.
SweepSeries sweep_of(const Job& job) {
  SweepSeries series{job.spec->label, {}};
  for (std::size_t i = 0; i < job.points.size(); ++i) {
    if (job.errors[i]) std::rethrow_exception(job.errors[i]);
    const SweepPoint& pt = series.points.emplace_back(*job.points[i]);
    if (job.cfg.saturated(series.points[0].res, pt.res)) break;
  }
  return series;
}

/// The job's series result; rethrows its failure.
SeriesResult series_of(const Job& job) {
  if (!job.points.empty()) return series_of(*job.spec, sweep_of(job));
  if (job.errors[0]) std::rethrow_exception(job.errors[0]);
  if (job.spec->tenants > 0) return series_of(*job.spec, job.tenants);
  return series_of(*job.spec, job.workload);
}

}  // namespace

SweepSeries run_scenario(const ScenarioSpec& spec, unsigned threads) {
  std::vector<Job> jobs{Job(spec)};
  if (jobs[0].points.empty())
    throw std::invalid_argument("run_scenario: series '" + spec.label +
                                "' is not a rate sweep; use run_series()");
  run_jobs(jobs, threads);
  return sweep_of(jobs[0]);
}

std::vector<SeriesOutcome> run_batch(const std::vector<ScenarioSpec>& specs,
                                     unsigned threads) {
  std::vector<Job> jobs(specs.begin(), specs.end());
  run_jobs(jobs, threads);
  std::vector<SeriesOutcome> out(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    try {
      out[i].result = series_of(jobs[i]);
    } catch (const std::exception& e) {
      out[i].error = e.what();
    }
  }
  return out;
}

SeriesResult run_series(const ScenarioSpec& spec) {
  std::vector<Job> jobs{Job(spec)};
  run_jobs(jobs, 1);
  return series_of(jobs[0]);
}

SeriesResult run_series(const ScenarioSpec& spec, sim::Network& net) {
  if (spec.tenants > 0)
    throw std::invalid_argument(
        "multi-tenant series build their own network, so serve mode does "
        "not run them; use a config file");
  if (!spec.workload.empty())
    return series_of(spec, run_workload_scenario(spec, net));
  const auto traffic = traffic_factory(spec)(net);
  return series_of(spec,
                   run_points(spec.label, net, *traffic, sweep_config(spec)));
}

}  // namespace sldf::core
