#include "core/scenario.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "sim/network.hpp"
#include "topo/plane_set.hpp"
#include "topo/wafer_stack.hpp"
#include "traffic/pattern.hpp"
#include "workload/registry.hpp"

namespace sldf::core {

namespace {

std::string format_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

[[noreturn]] void reject(const std::string& key, const std::string& expects,
                         const std::string& value) {
  throw std::invalid_argument("scenario key '" + key + "' expects " +
                              expects + ", got '" + value + "'");
}

// ---- value codecs: parse(key, text) validates and converts, throwing
// ---- std::invalid_argument naming the key; render() prints the value so
// ---- that parse(render(v)) == v ------------------------------------------

/// An integer in [lo, hi]; hi defaults to the field type's maximum, so a
/// value can never wrap or truncate on assignment. Unsigned fields (seeds,
/// cycle counts) parse without a sign over their full range.
template <typename T>
struct Int {
  T lo;
  T hi = std::numeric_limits<T>::max();
  T parse(const std::string& key, const std::string& v) const {
    std::conditional_t<std::is_signed_v<T>, long, std::uint64_t> x = 0;
    bool ok = false;
    if constexpr (std::is_signed_v<T>)
      ok = Cli::parse_long(v, x);
    else
      ok = Cli::parse_u64(v, x);
    if (!ok)
      reject(key, std::is_signed_v<T> ? "an integer" : "an unsigned integer",
             v);
    if (x < lo || x > hi)
      reject(key,
             "an integer in [" + render(lo) + ", " + render(hi) + "]", v);
    return static_cast<T>(x);
  }
  std::string render(T v) const { return std::to_string(v); }
};

/// A count where `auto` (stored as 0) resolves to the usable cores.
template <typename T>
struct AutoCount {
  T parse(const std::string& key, const std::string& v) const {
    return v == "auto" ? T{0} : Int<T>{0}.parse(key, v);
  }
  std::string render(T v) const { return v == 0 ? "auto" : std::to_string(v); }
};

/// A number in [lo, hi].
struct Num {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  double parse(const std::string& key, const std::string& v) const {
    double x = 0.0;
    if (!Cli::parse_double(v, x)) reject(key, "a number", v);
    if (x < lo || x > hi)
      reject(key,
             "a number in [" + format_num(lo) + ", " + format_num(hi) + "]",
             v);
    return x;
  }
  std::string render(double v) const { return format_num(v); }
};

struct Str {
  std::string parse(const std::string&, const std::string& v) const {
    return v;
  }
  std::string render(const std::string& v) const { return v; }
};

/// An online fault timeline. Parsed now so a malformed one fails at
/// config-read time with its typed FaultError; the text is kept and
/// re-resolved against the finalized network in build_network().
struct Timeline : Str {
  std::string parse(const std::string&, const std::string& v) const {
    (void)topo::parse_fault_events(v);
    return v;
  }
};

/// One name of an enum, through the enum's own parse/to_string pair.
template <typename E>
struct Enum {
  E (*from)(const std::string&);
  const char* (*name)(E);
  E parse(const std::string&, const std::string& v) const { return from(v); }
  std::string render(E v) const { return name(v); }
};

/// A comma-separated list of `Elem` values; blank items are rejected.
template <typename Elem>
struct List {
  Elem elem;
  std::size_t min_items = 0;
  auto parse(const std::string& key, const std::string& v) const {
    std::vector<decltype(elem.parse(key, v))> out;
    std::stringstream ss(v);
    std::string item;
    while (std::getline(ss, item, ',')) {
      item = Cli::trim(item);
      if (item.empty()) reject(key, "comma-separated items, none blank", v);
      out.push_back(elem.parse(key, item));
    }
    if (out.size() < min_items) reject(key, "a comma-separated list", v);
    return out;
  }
  template <typename V>
  std::string render(const V& values) const {
    std::string out;
    for (const auto& x : values) {
      if (!out.empty()) out += ",";
      out += elem.render(x);
    }
    return out;
  }
};

/// A positive token width: `N`, or the fraction `N/D` of a flit per cycle.
struct Fraction {
  std::pair<int, int> parse(const std::string& key,
                            const std::string& v) const {
    const auto slash = v.find('/');
    long num = 0, den = 1;
    const bool ok = slash == std::string::npos
                        ? Cli::parse_long(v, num)
                        : Cli::parse_long(v.substr(0, slash), num) &&
                              Cli::parse_long(v.substr(slash + 1), den);
    constexpr long kMax = std::numeric_limits<int>::max();
    if (!ok || num < 1 || den < 1 || num > kMax || den > kMax)
      reject(key, "a positive width `N` or fraction `N/D`", v);
    return {static_cast<int>(num), static_cast<int>(den)};
  }
  template <typename W>
  std::string render(const W& width) const {
    const auto& [num, den] = width;
    return den == 1 ? std::to_string(num)
                    : std::to_string(num) + "/" + std::to_string(den);
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
            get(s) = codec.parse(name, value);
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
            Enum<RouteMode>{&route::parse_route_mode, &route::to_string},
            {.network = true}),
      fixed("scheme", "VC scheme: `baseline` \\| `reduced` \\| `reduced-safe`",
            [](auto& s) -> auto& { return s.scheme; },
            Enum<VcScheme>{&route::parse_vc_scheme, &route::to_string},
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
            [](auto& s) -> auto& { return s.rates; }, List<Num>{},
            {.elide_default = true, .def = "unset"}),
      fixed("max_rate", "With `points`, linspace(0, max] when `rates` is unset",
            [](auto& s) -> auto& { return s.max_rate; }, Num{},
            {.when = rates_unset}),
      fixed("points", "Sweep points when `rates` is unset",
            [](auto& s) -> auto& { return s.points; }, Int<int>{1},
            {.when = rates_unset}),
      fixed("stop_factor",
            "Early-stop when latency exceeds this x zero-load latency",
            [](auto& s) -> auto& { return s.stop_latency_factor; }, Num{}),
      fixed("threads",
            "Sweep-point parallelism within one series (`auto`/0 = usable "
            "cores)",
            [](auto& s) -> auto& { return s.threads; }, AutoCount<unsigned>{}),
      // Orthogonal to `threads`: threads parallelizes across sweep points,
      // shards inside each simulation (sim::resolve_shards).
      fixed("shards",
            "Intra-simulation engine shards — N threads per simulation, "
            "bit-identical results for every N (`auto`/0 = `SLDF_SHARDS` env, "
            "else the usable cores, used only on cycles with large router "
            "snapshots; 1 per worker when `threads` > 1)",
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
            "Failed-link class: `any` \\| `intra` \\| `local` \\| `global`",
            [](auto& s) -> auto& { return s.fault.kind; },
            Enum<topo::FaultKind>{&topo::parse_fault_kind, &topo::to_string},
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
            "Fault-timeline file (`sldf-faults 1` format); exclusive with "
            "`fault.events`",
            [](auto& s) -> auto& { return s.fault.schedule; }, Str{},
            {.network = true, .elide_default = true, .def = "unset"}),
      fixed("fault.rescue",
            "Retransmit packets torn by an online failure (`0`: drop and "
            "count them)",
            [](auto& s) -> auto& { return s.fault.rescue; }, Int<bool>{0},
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
            "packets pick a plane at injection (see Multi-plane fabrics)",
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
            Enum<PlanePolicy>{&route::parse_plane_policy, &route::to_string},
            {.network = true, .when = planes_engaged}),
      fixed("wafer.count",
            "Wafer-on-wafer stack depth: that many copies of `topology` "
            "bonded by vertical inter-wafer cables, one vertical hop max (see "
            "Wafer stacks)",
            [](auto& s) -> auto& { return s.wafer_count; }, Int<int>{1},
            {.network = true,
             .elide_default = true,
             .def = "unset (classic single-fabric build)"}),
      fixed("wafer.latency", "Vertical-bond channel latency, cycles",
            [](auto& s) -> auto& { return s.wafer_latency; }, Int<int>{1},
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
            [](auto& s) -> auto& { return s.tenants_isolation; }, Int<bool>{0},
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
  if (spec.wafer_count > 0) {
    // Wafer-on-wafer stack: every wafer wires its own copy of `topology`
    // through the registry, then the WaferStack layer bonds the stack
    // columns and seals the partition. wafer.count = 1 goes through here
    // too — the structural result is bit-identical to the classic path,
    // and tests hold it to that.
    const TopoConfig cfg = spec.topo_config();
    topo::build_wafer_stack(
        net, spec.wafer_count, spec.wafer_latency, spec.wafer_width_num,
        spec.wafer_width_den, [&](int /*wafer*/, sim::Network& n) {
          return TopologyRegistry::instance().wire(spec.topology, n, cfg);
        });
  } else if (spec.plane_count > 0) {
    // Multi-plane build: every plane wires its own rail through the same
    // registry path (plane.mix picks per-plane presets; default = K copies
    // of `topology`), then the PlaneSet layer validates, aggregates, and
    // seals the partition. plane.count = 1 goes through here too — the
    // structural result is bit-identical to the classic path, and tests
    // hold it to that.
    std::vector<std::string> names = spec.plane_mix;
    if (names.empty()) {
      names.assign(static_cast<std::size_t>(spec.plane_count),
                   spec.topology);
    } else if (static_cast<int>(names.size()) != spec.plane_count) {
      throw std::invalid_argument(
          "plane.mix names " + std::to_string(names.size()) +
          " topologies but plane.count is " +
          std::to_string(spec.plane_count));
    }
    const TopoConfig cfg = spec.topo_config();
    topo::build_plane_set(
        net, spec.plane_count, static_cast<int>(spec.plane_policy),
        [&](int plane, sim::Network& n) {
          return TopologyRegistry::instance().wire(
              names[static_cast<std::size_t>(plane)], n, cfg);
        });
  } else {
    TopologyRegistry::instance().build(spec.topology, net,
                                       spec.topo_config());
  }
  if (spec.fault.active()) {
    const topo::FaultReport rep = topo::inject_faults(net, spec.fault);
    log_debug("%s", rep.to_string().c_str());
  }
  if (spec.fault.has_timeline()) {
    if (!spec.fault.events.empty() && !spec.fault.schedule.empty())
      throw topo::FaultError(
          "scenario sets both fault.events and fault.schedule; give the "
          "timeline one way");
    // A timeline over a fault-free cycle-0 state still needs the mask
    // armed: fault steps rewrite live port records at runtime.
    if (!spec.fault.active()) net.enable_fault_mask();
    const topo::FaultTimeline tl =
        !spec.fault.events.empty()
            ? topo::parse_fault_events(spec.fault.events)
            : topo::load_fault_schedule(spec.fault.schedule);
    auto sched = std::make_shared<sim::FaultSchedule>(
        topo::resolve_timeline(net, tl, spec.fault));
    sched->rescue = spec.fault.rescue;
    net.set_fault_schedule(std::move(sched));
    net.capture_fault_baseline();
  }
}

NetFactory net_factory(const ScenarioSpec& spec) {
  return [spec](sim::Network& net) { build_network(net, spec); };
}

TrafficFactory traffic_factory(const ScenarioSpec& spec) {
  const std::string kind = spec.traffic;
  const KvMap opts = spec.traffic_opts;
  return [kind, opts](const sim::Network& net) {
    return traffic::make_pattern(kind, net, opts);
  };
}

SweepSeries run_scenario(const ScenarioSpec& spec) {
  if (!spec.workload.empty())
    throw std::invalid_argument(
        "run_scenario: spec selects workload '" + spec.workload +
        "' — use run_workload_scenario()");
  SweepConfig cfg;
  cfg.rates = spec.effective_rates();
  cfg.base = spec.sim;
  cfg.stop_latency_factor = spec.stop_latency_factor;
  cfg.threads = spec.threads;
  return run_sweep(spec.label, net_factory(spec), traffic_factory(spec), cfg);
}

workload::WorkloadRunConfig workload_run_config(const ScenarioSpec& spec,
                                                KvMap* gen_opts) {
  // Split the option map: runner/reporting keys are consumed here, the
  // rest goes to the generator (which rejects leftovers itself).
  const std::string ctx = spec.workload.empty()
                              ? std::string("workload runner")
                              : "workload '" + spec.workload + "'";
  workload::WorkloadRunConfig rc;
  rc.sim = spec.sim;
  if (gen_opts) *gen_opts = spec.workload_opts;
  KvReader o(spec.workload_opts, ctx);
  rc.flit_bytes = o.get_double("flit_bytes", rc.flit_bytes);
  if (!(rc.flit_bytes > 0.0))
    throw std::invalid_argument(ctx + ": flit_bytes must be > 0");
  rc.freq_ghz = o.get_double("freq_ghz", rc.freq_ghz);
  if (!(rc.freq_ghz > 0.0))
    throw std::invalid_argument(ctx + ": freq_ghz must be > 0");
  if (const std::string* v = o.take("max_cycles")) {
    long mc = 0;
    if (!Cli::parse_long(*v, mc) || mc <= 0)
      throw std::invalid_argument(ctx +
                                  ": option 'max_cycles' expects a "
                                  "positive cycle count, got '" +
                                  *v + "'");
    rc.max_cycles = static_cast<Cycle>(mc);
  }
  if (gen_opts)
    for (const auto& d : workload::runner_option_docs())
      gen_opts->erase(d.key);
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

WorkloadRun run_workload_scenario(const ScenarioSpec& spec,
                                  sim::Network& net) {
  workload::WorkloadRunConfig rc;
  const workload::WorkloadGraph graph = make_workload_graph(spec, net, &rc);
  return {spec.label, spec.workload, workload::run_workload(net, graph, rc)};
}

WorkloadRun run_workload_scenario(const ScenarioSpec& spec) {
  sim::Network net;
  build_network(net, spec);
  return run_workload_scenario(spec, net);
}

void print_workload(const WorkloadRun& run) {
  const auto& r = run.result;
  std::printf("# %s (workload=%s)\n", run.label.c_str(),
              run.workload.c_str());
  std::printf("%-7s %-9s %-9s %-10s %-10s %-10s %-9s %-9s\n", "chips",
              "messages", "packets", "flits", "cycles", "GB/s/chip",
              "avg_msg", "completed");
  std::printf("%-7d %-9llu %-9llu %-10llu %-10llu %-10.4f %-9.1f %-9s\n",
              r.chips, static_cast<unsigned long long>(r.messages),
              static_cast<unsigned long long>(r.packets),
              static_cast<unsigned long long>(r.flits),
              static_cast<unsigned long long>(r.cycles), r.gbps_per_chip,
              r.avg_msg_cycles, r.completed ? "yes" : "no");
  // Phase table, elided in the middle when a collective has many steps.
  const std::size_t n = r.phases.size();
  if (n > 1) {
    std::printf("  %-7s %-10s %-9s %-10s\n", "phase", "complete", "msgs",
                "flits");
    constexpr std::size_t kHead = 6, kTail = 3;
    for (std::size_t i = 0; i < n; ++i) {
      if (n > kHead + kTail + 1 && i == kHead)
        std::printf("  ... %zu more phases ...\n", n - kHead - kTail);
      if (n > kHead + kTail + 1 && i >= kHead && i < n - kTail) continue;
      const auto& ph = r.phases[i];
      std::printf("  %-7zu %-10llu %-9llu %-10llu\n", i,
                  static_cast<unsigned long long>(ph.completed),
                  static_cast<unsigned long long>(ph.messages),
                  static_cast<unsigned long long>(ph.flits));
    }
  }
  std::printf("\n");
  std::fflush(stdout);
}

const std::vector<std::string>& workload_csv_header() {
  static const std::vector<std::string> header = {
      "series", "workload",      "chips",          "messages", "packets",
      "flits",  "cycles",        "gbps_per_chip",  "avg_msg_cycles",
      "completed"};
  return header;
}

void append_workload_csv(CsvWriter& csv, const WorkloadRun& run) {
  const auto& r = run.result;
  csv.row(std::vector<std::string>{
      run.label, run.workload, std::to_string(r.chips),
      std::to_string(r.messages), std::to_string(r.packets),
      std::to_string(r.flits), std::to_string(r.cycles),
      CsvWriter::format_num(r.gbps_per_chip),
      CsvWriter::format_num(r.avg_msg_cycles), r.completed ? "1" : "0"});
}

std::vector<SweepSeries> run_scenarios(const std::vector<ScenarioSpec>& specs,
                                       unsigned threads) {
  std::vector<SweepSeries> out(specs.size());
  ThreadPool::parallel_for(
      specs.size(), threads == 0 ? 1 : threads, [&](std::size_t i) {
        ScenarioSpec s = specs[i];
        // Concurrent series already fill the cores (see point_config()).
        if (threads > 1 && specs.size() > 1)
          s.sim.shards = sim::resolve_shards(s.sim.shards, 1);
        out[i] = run_scenario(s);
      });
  return out;
}

}  // namespace sldf::core
