#include "core/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

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

long to_long(const std::string& key, const std::string& value) {
  long v = 0;
  if (!Cli::parse_long(value, v))
    throw std::invalid_argument("scenario key '" + key +
                                "' expects an integer, got '" + value + "'");
  return v;
}

double to_double(const std::string& key, const std::string& value) {
  double v = 0.0;
  if (!Cli::parse_double(value, v))
    throw std::invalid_argument("scenario key '" + key +
                                "' expects a number, got '" + value + "'");
  return v;
}

std::vector<double> to_rates(const std::string& value) {
  std::vector<double> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = Cli::trim(item);
    if (item.empty()) continue;
    out.push_back(to_double("rates", item));
  }
  return out;
}

std::vector<ChipId> to_chips(const std::string& value) {
  std::vector<ChipId> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = Cli::trim(item);
    if (item.empty()) continue;
    const long v = to_long("fault.chips", item);
    if (v < 0)
      throw std::invalid_argument(
          "scenario key 'fault.chips' expects non-negative chip ids");
    out.push_back(static_cast<ChipId>(v));
  }
  return out;
}

}  // namespace

void ScenarioSpec::set(const std::string& key, const std::string& value) {
  if (key.rfind("topo.", 0) == 0) {
    topo[key.substr(5)] = value;
    return;
  }
  if (key.rfind("traffic.", 0) == 0) {
    traffic_opts[key.substr(8)] = value;
    return;
  }
  if (key.rfind("workload.", 0) == 0) {
    workload_opts[key.substr(9)] = value;
    return;
  }
  // tenant<i>.<field>: auto-grows the tenant vector, so keys apply in any
  // order (KvMap iteration delivers tenant0.* before the `tenants` count).
  if (key.rfind("tenant", 0) == 0 && key.size() > 6 &&
      key[6] >= '0' && key[6] <= '9') {
    std::size_t pos = 6;
    while (pos < key.size() && key[pos] >= '0' && key[pos] <= '9') ++pos;
    if (pos >= key.size() || key[pos] != '.' || pos + 1 == key.size())
      throw std::invalid_argument("scenario key '" + key +
                                  "' expects tenant<i>.<field>");
    const auto idx =
        static_cast<std::size_t>(to_long(key, key.substr(6, pos - 6)));
    if (idx >= 64)
      throw std::invalid_argument("scenario key '" + key +
                                  "': tenant index must be < 64");
    const std::string field = key.substr(pos + 1);
    if (tenant.size() <= idx) tenant.resize(idx + 1);
    TenantKeys& t = tenant[idx];
    if (field == "workload") {
      t.workload = value;
    } else if (field == "placement") {
      t.placement = value;
    } else if (field == "chips") {
      t.chips = value;
    } else {
      t.opts[field] = value;
    }
    return;
  }
  // The fault.* family is typed here (not a pass-through map): the keys are
  // few and validation should fail at parse time, not at build time.
  if (key == "fault.rate") {
    const double r = to_double(key, value);
    if (r < 0.0 || r > 1.0)
      throw std::invalid_argument(
          "scenario key 'fault.rate' expects a fraction in [0, 1]");
    fault.rate = r;
    return;
  }
  if (key == "fault.kind") {
    fault.kind = topo::parse_fault_kind(value);
    return;
  }
  if (key == "fault.seed") {
    fault.seed = static_cast<std::uint64_t>(to_long(key, value));
    return;
  }
  if (key == "fault.chips") {
    fault.chips = to_chips(value);
    return;
  }
  if (key == "fault.events") {
    // Parse now so a malformed timeline fails at config-read time with the
    // typed FaultError message; the string is kept and re-resolved against
    // the finalized network in build_network().
    topo::parse_fault_events(value);
    fault.events = value;
    return;
  }
  if (key == "fault.schedule") {
    fault.schedule = value;  // file existence/contents checked at build time
    return;
  }
  if (key == "fault.rescue") {
    const long n = to_long(key, value);
    if (n != 0 && n != 1)
      throw std::invalid_argument(
          "scenario key 'fault.rescue' expects 0 or 1");
    fault.rescue = n != 0;
    return;
  }
  if (key == "fault.plane") {
    const long n = to_long(key, value);
    if (n < -1)
      throw std::invalid_argument(
          "scenario key 'fault.plane' expects a plane index >= 0, or -1 "
          "for all planes");
    fault.plane = static_cast<int>(n);
    return;
  }
  if (key == "plane.count") {
    const long n = to_long(key, value);
    if (n < 1)
      throw std::invalid_argument(
          "scenario key 'plane.count' expects a count >= 1");
    plane_count = static_cast<int>(n);
    return;
  }
  if (key == "plane.mix") {
    plane_mix.clear();
    std::stringstream ms(value);
    std::string item;
    while (std::getline(ms, item, ',')) {
      item = Cli::trim(item);
      if (item.empty())
        throw std::invalid_argument(
            "scenario key 'plane.mix' has an empty topology name");
      plane_mix.push_back(item);
    }
    if (plane_mix.empty())
      throw std::invalid_argument(
          "scenario key 'plane.mix' expects comma-separated topology names");
    return;
  }
  if (key == "plane.policy") {
    plane_policy = route::parse_plane_policy(value);
    return;
  }
  if (key == "wafer.count") {
    const long n = to_long(key, value);
    if (n < 1)
      throw std::invalid_argument(
          "scenario key 'wafer.count' expects a count >= 1");
    wafer_count = static_cast<int>(n);
    return;
  }
  if (key == "wafer.latency") {
    const long n = to_long(key, value);
    if (n < 1)
      throw std::invalid_argument(
          "scenario key 'wafer.latency' expects a cycle count >= 1");
    wafer_latency = static_cast<int>(n);
    return;
  }
  if (key == "wafer.width") {
    // A token fraction: `num/den` or a plain integer multiplier.
    long num = 0, den = 1;
    const auto slash = value.find('/');
    const bool ok =
        slash == std::string::npos
            ? Cli::parse_long(Cli::trim(value), num)
            : Cli::parse_long(Cli::trim(value.substr(0, slash)), num) &&
                  Cli::parse_long(Cli::trim(value.substr(slash + 1)), den);
    if (!ok || num < 1 || den < 1)
      throw std::invalid_argument(
          "scenario key 'wafer.width' expects a positive width `N` or "
          "fraction `N/D`, got '" + value + "'");
    wafer_width_num = static_cast<int>(num);
    wafer_width_den = static_cast<int>(den);
    return;
  }
  if (key == "trace.file") {
    trace_file = value;
    return;
  }
  if (key == "trace.seed") {
    trace_seed = static_cast<std::uint64_t>(to_long(key, value));
    return;
  }
  if (key == "tenants") {
    const long n = to_long(key, value);
    if (n < 0)
      throw std::invalid_argument(
          "scenario key 'tenants' expects a count >= 0");
    tenants = static_cast<int>(n);
    return;
  }
  if (key == "tenants.isolation") {
    const long n = to_long(key, value);
    if (n != 0 && n != 1)
      throw std::invalid_argument(
          "scenario key 'tenants.isolation' expects 0 or 1");
    tenants_isolation = n != 0;
    return;
  }
  if (key == "label") {
    label = value;
  } else if (key == "topology") {
    topology = value;
  } else if (key == "traffic") {
    traffic = value;
  } else if (key == "workload") {
    workload = value;
  } else if (key == "mode") {
    mode = route::parse_route_mode(value);
  } else if (key == "scheme") {
    scheme = route::parse_vc_scheme(value);
  } else if (key == "rates") {
    rates = to_rates(value);
  } else if (key == "max_rate") {
    max_rate = to_double(key, value);
  } else if (key == "points") {
    points = static_cast<int>(to_long(key, value));
  } else if (key == "stop_factor") {
    stop_latency_factor = to_double(key, value);
  } else if (key == "threads") {
    // Sweep-point parallelism: a count, or "auto"/0 for the usable cores.
    if (value == "auto") {
      threads = 0;
    } else {
      const long n = to_long(key, value);
      if (n < 0)
        throw std::invalid_argument(
            "scenario key 'threads' expects a count >= 0 or 'auto'");
      threads = static_cast<unsigned>(n);
    }
  } else if (key == "shards") {
    // Intra-simulation engine shards: a count, or "auto"/0 for the
    // SLDF_SHARDS environment variable or the usable cores behind the
    // per-cycle work gate (sim::resolve_shards). Orthogonal to `threads`:
    // threads parallelizes across sweep points, shards parallelizes inside
    // each simulation — results are bit-identical either way.
    if (value == "auto") {
      sim.shards = 0;
    } else {
      const long n = to_long(key, value);
      if (n < 0)
        throw std::invalid_argument(
            "scenario key 'shards' expects a count >= 0 or 'auto'");
      sim.shards = static_cast<int>(n);
    }
  } else if (key == "warmup") {
    sim.warmup = to_long(key, value);
  } else if (key == "measure") {
    sim.measure = to_long(key, value);
  } else if (key == "drain") {
    sim.drain = to_long(key, value);
  } else if (key == "pkt_len") {
    sim.pkt_len = static_cast<int>(to_long(key, value));
  } else if (key == "seed") {
    sim.seed = static_cast<std::uint64_t>(to_long(key, value));
  } else if (key == "max_src_queue") {
    sim.max_src_queue = static_cast<int>(to_long(key, value));
  } else {
    throw std::invalid_argument("unknown scenario key '" + key + "'");
  }
}

KvMap ScenarioSpec::to_kv() const {
  KvMap kv;
  kv["label"] = label;
  kv["topology"] = topology;
  kv["traffic"] = traffic;
  if (!workload.empty()) kv["workload"] = workload;
  kv["mode"] = route::to_string(mode);
  kv["scheme"] = route::to_string(scheme);
  if (!rates.empty()) {
    std::string joined;
    for (double r : rates) {
      if (!joined.empty()) joined += ",";
      joined += format_num(r);
    }
    kv["rates"] = joined;
  } else {
    kv["max_rate"] = format_num(max_rate);
    kv["points"] = std::to_string(points);
  }
  kv["stop_factor"] = format_num(stop_latency_factor);
  kv["threads"] = threads == 0 ? "auto" : std::to_string(threads);
  kv["shards"] = sim.shards == 0 ? "auto" : std::to_string(sim.shards);
  kv["warmup"] = std::to_string(sim.warmup);
  kv["measure"] = std::to_string(sim.measure);
  kv["drain"] = std::to_string(sim.drain);
  kv["pkt_len"] = std::to_string(sim.pkt_len);
  kv["seed"] = std::to_string(sim.seed);
  kv["max_src_queue"] = std::to_string(sim.max_src_queue);
  // Fault keys serialize only when set, so fault-free specs round-trip to
  // fault-free configs.
  if (fault.rate > 0.0) kv["fault.rate"] = format_num(fault.rate);
  if (fault.kind != topo::FaultKind::Any)
    kv["fault.kind"] = topo::to_string(fault.kind);
  if (fault.seed != topo::FaultSpec{}.seed)
    kv["fault.seed"] = std::to_string(fault.seed);
  if (!fault.chips.empty()) {
    std::string joined;
    for (const ChipId c : fault.chips) {
      if (!joined.empty()) joined += ",";
      joined += std::to_string(c);
    }
    kv["fault.chips"] = joined;
  }
  if (!fault.events.empty()) kv["fault.events"] = fault.events;
  if (!fault.schedule.empty()) kv["fault.schedule"] = fault.schedule;
  if (!fault.rescue) kv["fault.rescue"] = "0";
  if (fault.plane >= 0) kv["fault.plane"] = std::to_string(fault.plane);
  // Plane keys serialize only when engaged (count 0 = classic build path).
  if (plane_count > 0) {
    kv["plane.count"] = std::to_string(plane_count);
    kv["plane.policy"] = std::string(route::to_string(plane_policy));
    if (!plane_mix.empty()) {
      std::string joined;
      for (const std::string& t : plane_mix) {
        if (!joined.empty()) joined += ",";
        joined += t;
      }
      kv["plane.mix"] = joined;
    }
  }
  // Wafer keys serialize only when engaged (count 0 = classic build path).
  if (wafer_count > 0) {
    kv["wafer.count"] = std::to_string(wafer_count);
    const ScenarioSpec defaults;
    if (wafer_latency != defaults.wafer_latency)
      kv["wafer.latency"] = std::to_string(wafer_latency);
    if (wafer_width_num != defaults.wafer_width_num ||
        wafer_width_den != defaults.wafer_width_den)
      kv["wafer.width"] = wafer_width_den == 1
                              ? std::to_string(wafer_width_num)
                              : std::to_string(wafer_width_num) + "/" +
                                    std::to_string(wafer_width_den);
  }
  // Tenant/trace keys serialize only when set, mirroring the fault keys.
  if (tenants > 0) kv["tenants"] = std::to_string(tenants);
  if (!tenants_isolation) kv["tenants.isolation"] = "0";
  for (std::size_t i = 0; i < tenant.size(); ++i) {
    const std::string pfx = "tenant" + std::to_string(i) + ".";
    const TenantKeys& t = tenant[i];
    if (!t.workload.empty()) kv[pfx + "workload"] = t.workload;
    if (!t.placement.empty()) kv[pfx + "placement"] = t.placement;
    if (!t.chips.empty()) kv[pfx + "chips"] = t.chips;
    for (const auto& [k, v] : t.opts) kv[pfx + k] = v;
  }
  if (!trace_file.empty()) kv["trace.file"] = trace_file;
  if (trace_seed != ScenarioSpec{}.trace_seed)
    kv["trace.seed"] = std::to_string(trace_seed);
  for (const auto& [k, v] : topo) kv["topo." + k] = v;
  for (const auto& [k, v] : traffic_opts) kv["traffic." + k] = v;
  for (const auto& [k, v] : workload_opts) kv["workload." + k] = v;
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

const std::vector<ScenarioKeyDoc>& scenario_key_docs() {
  // The one table every rendering of the key vocabulary derives from:
  // scenario_keys() (flag recognition) and the generated README reference
  // (core::render_scenario_reference). Prefix families carry a '<' in the
  // key and are excluded from scenario_keys(). Defaults are rendered from
  // a default-constructed spec so they cannot drift from the code.
  static const std::vector<ScenarioKeyDoc> docs = [] {
    const ScenarioSpec d;
    const auto num = [](double v) { return format_num(v); };
    const auto integer = [](auto v) { return std::to_string(v); };
    return std::vector<ScenarioKeyDoc>{
        {"label", "Series label in tables/CSV", d.label},
        {"topology", "Topology registry name (see Topologies)", d.topology},
        {"topo.<param>",
         "Topology parameter override, e.g. `topo.g = 15` (see Topologies)",
         "preset values"},
        {"mode", "Routing: `minimal` \\| `valiant` \\| `adaptive`",
         std::string(route::to_string(d.mode))},
        {"scheme", "VC scheme: `baseline` \\| `reduced` \\| `reduced-safe`",
         std::string(route::to_string(d.scheme))},
        {"traffic", "Traffic registry name (see Traffic patterns)",
         d.traffic},
        {"traffic.<opt>",
         "Traffic pattern option, e.g. `traffic.scope = wgroup` (see "
         "Traffic patterns)",
         "pattern defaults"},
        {"workload",
         "Workload registry name; switches to one closed-loop "
         "message-level run (see Workloads)",
         "unset (rate sweep)"},
        {"workload.<opt>",
         "Workload generator/runner option, e.g. `workload.kib = 64` (see "
         "Workloads)",
         "workload defaults"},
        {"rates", "Explicit offered loads, comma-separated (rate sweeps)",
         "unset"},
        {"max_rate", "With `points`, linspace(0, max] when `rates` is unset",
         num(d.max_rate)},
        {"points", "Sweep points when `rates` is unset", integer(d.points)},
        {"stop_factor",
         "Early-stop when latency exceeds this x zero-load latency",
         num(d.stop_latency_factor)},
        {"threads",
         "Sweep-point parallelism within one series (`auto`/0 = usable "
         "cores)",
         integer(d.threads)},
        {"shards",
         "Intra-simulation engine shards — N threads per simulation, "
         "bit-identical results for every N (`auto`/0 = `SLDF_SHARDS` env, "
         "else the usable cores, used only on cycles with large router "
         "snapshots; 1 per worker when `threads` > 1)",
         "auto"},
        {"warmup", "Warmup cycles (Table IV: 5000)", integer(d.sim.warmup)},
        {"measure", "Measured cycles (Table IV: 10000)",
         integer(d.sim.measure)},
        {"drain", "Extra cycles to let measured packets land",
         integer(d.sim.drain)},
        {"pkt_len", "Flits per packet", integer(d.sim.pkt_len)},
        {"seed", "Base RNG seed", integer(d.sim.seed)},
        {"max_src_queue", "Per-node source-queue cap (packets)",
         integer(d.sim.max_src_queue)},
        {"fault.rate",
         "Fraction of candidate cables to fail (deterministic, seeded; see "
         "Resilience)",
         num(d.fault.rate)},
        {"fault.kind",
         "Failed-link class: `any` \\| `intra` \\| `local` \\| `global`",
         std::string(topo::to_string(d.fault.kind))},
        {"fault.seed", "Fault-set RNG seed (independent of `seed`)",
         integer(d.fault.seed)},
        {"fault.chips", "Chips to fail entirely, comma-separated ids",
         "unset"},
        {"fault.events",
         "Online fault timeline, `fail|repair@<cycle>:<kind>=<rate>` or "
         "`...:chip<N>`, `;`-separated (see Resilience)",
         "unset"},
        {"fault.schedule",
         "Fault-timeline file (`sldf-faults 1` format); exclusive with "
         "`fault.events`",
         "unset"},
        {"fault.rescue",
         "Retransmit packets torn by an online failure (`0`: drop and "
         "count them)",
         d.fault.rescue ? "1" : "0"},
        {"fault.plane",
         "Restrict cable failures to one plane of a multi-plane fabric "
         "(`-1` = all planes; `fault.chips` always spans planes)",
         "-1 (all planes)"},
        {"plane.count",
         "Independent fabric planes (rails) sharing the logical chips; "
         "packets pick a plane at injection (see Multi-plane fabrics)",
         "unset (classic single-fabric build)"},
        {"plane.mix",
         "Per-plane topology registry names, comma-separated (length = "
         "`plane.count`)",
         "`plane.count` copies of `topology`"},
        {"plane.policy",
         "Plane selection: `hash` \\| `rr` \\| `adaptive` \\| `collective`",
         std::string(route::to_string(d.plane_policy))},
        {"wafer.count",
         "Wafer-on-wafer stack depth: that many copies of `topology` bonded "
         "by vertical inter-wafer cables, one vertical hop max (see "
         "Wafer stacks)",
         "unset (classic single-fabric build)"},
        {"wafer.latency", "Vertical-bond channel latency, cycles",
         integer(d.wafer_latency)},
        {"wafer.width",
         "Vertical-bond token width, `N` or fraction `N/D` of a flit per "
         "cycle",
         integer(d.wafer_width_num)},
        {"tenants",
         "Concurrent tenant jobs; > 0 switches to one shared multi-tenant "
         "serving run (see Multi-tenancy)",
         "0 (single job)"},
        {"tenants.isolation",
         "Also run each tenant alone on its placement and report the "
         "interference ratio (`0` disables the baselines)",
         d.tenants_isolation ? "1" : "0"},
        {"tenant<i>.workload",
         "Tenant i's workload registry name (required for each tenant)",
         "unset"},
        {"tenant<i>.placement",
         "Tenant i's chip placement: `contiguous` \\| `scattered`",
         "contiguous"},
        {"tenant<i>.chips",
         "Tenant i's chips: a count to allocate, or explicit "
         "comma-separated ids",
         "unset"},
        {"tenant<i>.<opt>",
         "Workload option for tenant i, e.g. `tenant0.kib = 64` (see "
         "Workloads)",
         "workload defaults"},
        {"trace.file",
         "Trace file the `trace-replay` workload replays (see Multi-"
         "tenancy)",
         "unset"},
        {"trace.seed",
         "Seed for synthesized `request-reply` arrivals (independent of "
         "`seed`)",
         integer(d.trace_seed)},
    };
  }();
  return docs;
}

const std::vector<std::string>& scenario_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> out;
    for (const auto& d : scenario_key_docs())
      if (d.key.find('<') == std::string::npos) out.push_back(d.key);
    return out;
  }();
  return keys;
}

ScenarioSpec spec_from_cli(const Cli& cli, const ScenarioSpec& defaults,
                           std::vector<std::string>* unused) {
  ScenarioSpec s = defaults;
  for (const auto& [key, value] : cli.entries()) {
    const bool prefixed = key.rfind("topo.", 0) == 0 ||
                          key.rfind("traffic.", 0) == 0 ||
                          key.rfind("workload.", 0) == 0 ||
                          key.rfind("fault.", 0) == 0 ||
                          key.rfind("plane.", 0) == 0 ||
                          key.rfind("wafer.", 0) == 0 ||
                          key.rfind("trace.", 0) == 0 ||
                          key.rfind("tenant", 0) == 0;
    const auto& keys = scenario_keys();
    const bool known =
        prefixed || std::find(keys.begin(), keys.end(), key) != keys.end();
    if (!known) {
      if (unused) unused->push_back(key);
      continue;
    }
    s.set(key, value);
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

WorkloadRun run_workload_scenario(const ScenarioSpec& spec) {
  if (spec.workload.empty())
    throw std::invalid_argument(
        "run_workload_scenario: spec has no workload key");

  KvMap gen_opts;
  const workload::WorkloadRunConfig rc = workload_run_config(spec, &gen_opts);

  sim::Network net;
  build_network(net, spec);
  workload::WorkloadEnv env;
  env.flit_bytes = rc.flit_bytes;
  env.trace_file = spec.trace_file;
  env.trace_seed = spec.trace_seed;
  const workload::WorkloadGraph graph =
      workload::make_workload(spec.workload, net, gen_opts, env);

  WorkloadRun run;
  run.label = spec.label;
  run.workload = spec.workload;
  run.result = workload::run_workload(net, graph, rc);
  return run;
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
