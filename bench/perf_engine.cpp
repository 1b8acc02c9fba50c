#include "bench/perf_engine.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "core/scenario.hpp"
#include "trace/tenants.hpp"

namespace sldf::bench {

namespace {

/// Process-lifetime high-water mark: /proc/self/status VmHWM on Linux,
/// getrusage elsewhere. Only meaningful per preset after RssTracker::reset().
double vm_hwm_mb() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kb = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0.0) return kb / 1024.0;
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
#endif
  }
#endif
  return 0.0;
}

/// Per-preset peak-RSS measurement. The kernel's high-water mark is
/// process-lifetime, so reading it after each preset made every row after
/// the largest run silently inherit that run's peak (the pre-fix
/// BENCH_sim.json reported ~1.29 GB for every preset after radix32-sat).
/// reset() clears the mark by writing "5" to /proc/self/clear_refs, after
/// which VmHWM tracks only memory touched since — peak_mb() then reports a
/// true per-preset peak. When clear_refs is unavailable (non-Linux, locked-
/// down kernels) it falls back to the VmHWM *delta* since the last reset:
/// exact whenever the preset sets a new process peak, and 0 ("did not grow
/// the peak") instead of an inherited earlier peak when it does not.
class RssTracker {
 public:
  void reset() {
    reset_ok_ = false;
#if defined(__linux__)
    if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
      reset_ok_ = std::fwrite("5", 1, 1, f) == 1;
      if (std::fclose(f) != 0) reset_ok_ = false;
    }
#endif
    base_mb_ = vm_hwm_mb();
  }

  [[nodiscard]] double peak_mb() const {
    const double hwm = vm_hwm_mb();
    if (reset_ok_) return hwm;
    return hwm > base_mb_ ? hwm - base_mb_ : 0.0;
  }

 private:
  bool reset_ok_ = false;
  double base_mb_ = 0.0;
};

RssTracker& rss_tracker() {
  static RssTracker t;
  return t;
}

core::ScenarioSpec point_spec(const std::string& topology, double rate,
                              bool quick, std::uint64_t seed) {
  core::ScenarioSpec s;
  s.topology = topology;
  s.traffic = "uniform";
  s.rates = {rate};
  s.sim.seed = seed;
  // Presets pin shards so the serial/sharded pairs measure exactly what
  // their names say, independent of a stray SLDF_SHARDS in the env.
  s.sim.shards = 1;
  if (quick) {
    s.sim.warmup = 200;
    s.sim.measure = 500;
    s.sim.drain = 300;
  } else {
    s.sim.warmup = 500;
    s.sim.measure = 1200;
    s.sim.drain = 600;
  }
  return s;
}

/// The fig11a experiment (three radix-16 series, uniform traffic) with the
/// measurement window of configs/fig11a.conf, embedded so the bench does
/// not depend on the working directory.
std::vector<core::ScenarioSpec> fig11a_specs(std::uint64_t seed) {
  core::ScenarioSpec base;
  base.traffic = "uniform";
  base.max_rate = 1.0;
  base.points = 6;
  base.sim.warmup = 1000;
  base.sim.measure = 2200;
  base.sim.drain = 1200;
  base.sim.seed = seed;
  base.sim.shards = 1;

  std::vector<core::ScenarioSpec> specs;
  core::ScenarioSpec s = base;
  s.label = "SW-based";
  s.topology = "radix16-swdf";
  specs.push_back(s);
  s = base;
  s.label = "SW-less";
  s.topology = "radix16-swless";
  specs.push_back(s);
  s = base;
  s.label = "SW-less-2B";
  s.topology = "radix16-swless";
  s.topo["mesh_width"] = "2";
  specs.push_back(s);
  return specs;
}

/// Closed-loop workload preset: the fig14 ring-AllReduce TTC run on the
/// radix-16 switch-less W-group (configs/fig14.conf's SW-less series).
/// `cycles` is the completion time, so the preset records the workload
/// engine's trajectory alongside the rate-sweep presets.
core::ScenarioSpec allreduce_spec(bool quick, std::uint64_t seed) {
  core::ScenarioSpec s;
  s.topology = "radix16-swless";
  s.topo["g"] = "1";
  s.workload = "ring-allreduce";
  s.workload_opts["scope"] = "wgroup";
  s.workload_opts["kib"] = quick ? "16" : "64";
  s.workload_opts["chunks"] = "4";
  s.sim.seed = seed;
  s.sim.shards = 1;
  return s;
}

/// Resilience preset: the fig16a throughput point on the radix-16
/// switch-less network with 10% of the global cables failed (fault-aware
/// minimal routing, nested seeded fault set — see configs/fig16.conf), so
/// the degraded-operation engine path is tracked run over run too.
core::ScenarioSpec resilience_spec(bool quick, std::uint64_t seed) {
  core::ScenarioSpec s = point_spec("radix16-swless", 0.9, quick, seed);
  s.topo["g"] = quick ? "5" : "11";
  s.fault.rate = 0.1;
  s.fault.kind = topo::FaultKind::Global;
  s.fault.seed = 7;
  return s;
}

/// Online-resilience preset: the same fig16a point but with the faults
/// arriving as a *timeline* mid-run (fail 10% of globals at the end of
/// warmup, repair half of them mid-measurement) — tracks the fault-step
/// sweep, packet rescue, and online-reroute engine paths.
core::ScenarioSpec resilience_online_spec(bool quick, std::uint64_t seed) {
  core::ScenarioSpec s = point_spec("radix16-swless", 0.9, quick, seed);
  s.topo["g"] = quick ? "5" : "11";
  s.fault.seed = 7;
  const Cycle fail_at = s.sim.warmup;
  const Cycle repair_at = s.sim.warmup + s.sim.measure / 2;
  s.fault.events = "fail@" + std::to_string(fail_at) +
                   ":global=0.1;repair@" + std::to_string(repair_at) +
                   ":global=0.05";
  return s;
}

/// Multi-tenant serving preset: the acceptance-mix 3-tenant scenario
/// (ring-AllReduce + windowed all-to-all + seeded request/reply on
/// disjoint placements, one shared simulation plus per-tenant isolation
/// baselines) — tracks the merged-DAG runner and interference accounting.
core::ScenarioSpec tenants_spec(bool quick, std::uint64_t seed) {
  core::ScenarioSpec s;
  s.label = "tenants-mix3";
  s.topology = "tiny-swless";
  s.sim.seed = seed;
  s.sim.shards = 1;
  s.set("tenants", "3");
  const char* chips = quick ? "8" : "16";
  s.set("tenant0.workload", "ring-allreduce");
  s.set("tenant0.chips", chips);
  s.set("tenant0.scope", "system");
  s.set("tenant0.kib", quick ? "16" : "64");
  s.set("tenant1.workload", "all-to-all");
  s.set("tenant1.chips", chips);
  s.set("tenant1.scope", "system");
  s.set("tenant1.kib", quick ? "4" : "16");
  s.set("tenant1.window", "2");
  s.set("tenant1.placement", "scattered");
  s.set("tenant2.workload", "request-reply");
  s.set("tenant2.chips", chips);
  s.set("tenant2.requests", quick ? "32" : "128");
  return s;
}

/// Multi-plane preset: the tiny switch-less fabric instantiated twice as
/// independent planes (hash plane selection), uniform traffic at 0.5 —
/// tracks the PlaneSet build path, twin remapping, and the per-plane
/// counter plumbing run over run.
core::ScenarioSpec planes_spec(bool quick, std::uint64_t seed) {
  core::ScenarioSpec s = point_spec("tiny-swless", 0.5, quick, seed);
  s.label = "planes-k2";
  s.plane_count = 2;
  s.plane_policy = route::PlanePolicy::Hash;
  return s;
}

/// Wafer-stack preset: two radix-16 switch-less wafers bonded into one
/// stack (all-pairs vertical columns, doubled VC space, one-vertical-hop
/// routing), uniform traffic at 0.5 — tracks the wafer dispatcher, the
/// vertical-bond engine path, and the per-wafer counter plumbing.
core::ScenarioSpec wafer_stack_spec(bool quick, std::uint64_t seed) {
  core::ScenarioSpec s = point_spec("radix16-swless", 0.5, quick, seed);
  s.label = "wafer2-radix16";
  s.wafer_count = 2;
  return s;
}

/// Folds one per-point RSS sample into the result's min/max/aggregate.
void fold_rss(PerfResult& r, double rss, bool first) {
  if (first || rss < r.rss_min_mb) r.rss_min_mb = rss;
  if (first || rss > r.rss_max_mb) r.rss_max_mb = rss;
  r.peak_rss_mb = r.rss_max_mb;
}

/// Folds one run's engine telemetry into the preset's sum.
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
}

PerfResult run_tenants_preset(const std::string& preset,
                              const core::ScenarioSpec& spec) {
  PerfResult r;
  r.preset = preset;
  rss_tracker().reset();
  const auto t0 = std::chrono::steady_clock::now();
  const trace::MultiTenantResult run = trace::run_tenant_scenario(spec);
  const auto t1 = std::chrono::steady_clock::now();
  r.points = 1;
  // Total simulated work: the shared run's makespan plus every isolation
  // baseline (the interference denominators are real simulations too).
  r.cycles = run.cycles;
  for (const auto& t : run.tenants) r.cycles += t.isolated_ttc;
  r.flit_hops = run.flit_hops;
  r.delivered = run.packets_delivered;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (r.wall_s > 0.0) {
    r.cycles_per_sec = static_cast<double>(r.cycles) / r.wall_s;
    r.flit_hops_per_sec = static_cast<double>(r.flit_hops) / r.wall_s;
  }
  fold_rss(r, rss_tracker().peak_mb(), true);
  return r;
}

PerfResult run_workload_preset(const std::string& preset,
                               const core::ScenarioSpec& spec) {
  PerfResult r;
  r.preset = preset;
  rss_tracker().reset();
  const auto t0 = std::chrono::steady_clock::now();
  const core::WorkloadRun run = core::run_workload_scenario(spec);
  const auto t1 = std::chrono::steady_clock::now();
  r.points = 1;
  r.cycles = run.result.cycles;
  r.flit_hops = run.result.flit_hops;
  r.delivered = run.result.packets_delivered;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (r.wall_s > 0.0) {
    r.cycles_per_sec = static_cast<double>(r.cycles) / r.wall_s;
    r.flit_hops_per_sec = static_cast<double>(r.flit_hops) / r.wall_s;
  }
  fold_rss(r, rss_tracker().peak_mb(), true);
  return r;
}

PerfResult run_specs(const std::string& preset,
                     const std::vector<core::ScenarioSpec>& specs,
                     bool phase_timers) {
  PerfResult r;
  r.preset = preset;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& spec : specs) {
    // Sweep points run one spec each so the RSS tracker can be reset
    // around every point. The split replicates run_scenario's own sweep
    // semantics exactly — per-point seed = base seed + point index, and
    // the early-stop rule against the series' zero-load latency — so the
    // per-point SimResults (and hence all the counters below) are
    // bit-identical to handing run_scenario the whole series.
    const std::vector<double> rates = spec.effective_rates();
    double zero_load = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      core::ScenarioSpec pt_spec = spec;
      pt_spec.rates = {rates[i]};
      pt_spec.sim.seed = spec.sim.seed + i;
      pt_spec.sim.phase_timers = phase_timers;
      rss_tracker().reset();
      const core::SweepSeries series = core::run_scenario(pt_spec);
      fold_rss(r, rss_tracker().peak_mb(), r.points == 0);
      const sim::SimResult& res = series.points.at(0).res;
      ++r.points;
      r.cycles += res.cycles_run;
      r.flit_hops += res.flit_hops;
      r.delivered += res.delivered_total;
      add_phases(r.phases, res.phases);
      if (i == 0) zero_load = res.avg_latency;
      if (spec.stop_latency_factor > 0 && zero_load > 0 &&
          res.avg_latency > zero_load * spec.stop_latency_factor)
        break;  // saturated: run_scenario's series would end here too
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (r.wall_s > 0.0) {
    r.cycles_per_sec = static_cast<double>(r.cycles) / r.wall_s;
    r.flit_hops_per_sec = static_cast<double>(r.flit_hops) / r.wall_s;
  }
  return r;
}

/// One preset: its docs row, whether --quick includes it, and its runner.
/// The execution order of run_perf_suite is the order of this table, and
/// the docs table renders from it — one definition, no drift.
struct PresetDef {
  PresetInfo info;
  bool in_quick;
  std::function<PerfResult(const SuiteOptions&)> run;
};

const std::vector<PresetDef>& preset_defs() {
  static const std::vector<PresetDef> defs = [] {
    std::vector<PresetDef> d;
    const auto point = [](const char* name, const char* topology,
                          double rate, int shards) {
      return [name, topology, rate, shards](const SuiteOptions& o) {
        core::ScenarioSpec s = point_spec(topology, rate, o.quick, o.seed);
        s.sim.shards = shards;
        return run_specs(name, {s}, o.phases);
      };
    };
    d.push_back({{"radix16-low", "quick+full",
                  "latency-regime engine throughput: radix-16 switch-less, "
                  "uniform, offered load 0.1, serial engine"},
                 true,
                 point("radix16-low", "radix16-swless", 0.1, 1)});
    d.push_back({{"radix16-trickle", "quick+full",
                  "idle-dominated engine path: radix-16 switch-less at "
                  "trace-trickle load (offered 1e-5) over a long window — "
                  "cycles/sec is dominated by idle-cycle elision jumping "
                  "between isolated packets"},
                 true,
                 [](const SuiteOptions& o) {
                   core::ScenarioSpec s =
                       point_spec("radix16-swless", 1e-5, o.quick, o.seed);
                   // Long, almost-empty window: the full scan engine pays
                   // every cycle, the event-driven engine only the ~0.3%
                   // with work in flight.
                   s.sim.warmup = o.quick ? 500 : 2000;
                   s.sim.measure = o.quick ? 4000 : 40000;
                   s.sim.drain = o.quick ? 1000 : 3000;
                   return run_specs("radix16-trickle", {s}, o.phases);
                 }});
    d.push_back({{"radix16-sat", "quick+full",
                  "saturation-regime engine throughput: radix-16 "
                  "switch-less, uniform, offered load 0.9, serial engine"},
                 true,
                 point("radix16-sat", "radix16-swless", 0.9, 1)});
    d.push_back({{"radix16-sat-sh2", "quick+full",
                  "the radix16-sat point on the sharded engine (shards=2): "
                  "same simulation bit-for-bit, two threads every "
                  "cycle — cycles/sec vs radix16-sat is the intra-sim "
                  "speedup"},
                 true,
                 point("radix16-sat-sh2", "radix16-swless", 0.9, 2)});
    d.push_back({{"allreduce-ttc", "quick+full",
                  "closed-loop workload engine: fig14 ring-AllReduce "
                  "time-to-completion on one radix-16 W-group (`cycles` is "
                  "the completion time)"},
                 true,
                 [](const SuiteOptions& o) {
                   return run_workload_preset("allreduce-ttc",
                                              allreduce_spec(o.quick, o.seed));
                 }});
    d.push_back({{"resilience-f10", "quick+full",
                  "degraded-fabric engine path: fig16a saturation point "
                  "with 10% of global cables failed, fault-aware routing"},
                 true,
                 [](const SuiteOptions& o) {
                   return run_specs("resilience-f10",
                                    {resilience_spec(o.quick, o.seed)},
                                    o.phases);
                 }});
    d.push_back({{"resilience-online", "quick+full",
                  "online-fault engine path: the resilience-f10 point with "
                  "the faults arriving as a mid-run timeline (fail 10% of "
                  "globals, repair half later) — fault-step sweep, packet "
                  "rescue, and live rerouting"},
                 true,
                 [](const SuiteOptions& o) {
                   return run_specs("resilience-online",
                                    {resilience_online_spec(o.quick, o.seed)},
                                    o.phases);
                 }});
    d.push_back({{"tenants-mix3", "quick+full",
                  "multi-tenant serving path: 3 co-located jobs "
                  "(ring-AllReduce + all-to-all + request/reply) as one "
                  "merged-DAG run plus isolation baselines (`cycles` sums "
                  "the shared makespan and the baselines)"},
                 true,
                 [](const SuiteOptions& o) {
                   return run_tenants_preset("tenants-mix3",
                                             tenants_spec(o.quick, o.seed));
                 }});
    d.push_back({{"planes-k2", "quick+full",
                  "multi-plane engine path: the tiny switch-less fabric as "
                  "two independent planes with hash per-packet plane "
                  "selection, uniform traffic at offered load 0.5"},
                 true,
                 [](const SuiteOptions& o) {
                   return run_specs("planes-k2", {planes_spec(o.quick, o.seed)},
                                    o.phases);
                 }});
    d.push_back({{"wafer2-radix16", "quick+full",
                  "wafer-stack engine path: two radix-16 switch-less "
                  "wafers bonded by vertical columns (2V+1 VC classes, one "
                  "vertical hop per cross-wafer packet), uniform traffic "
                  "at offered load 0.5"},
                 true,
                 [](const SuiteOptions& o) {
                   return run_specs("wafer2-radix16",
                                    {wafer_stack_spec(o.quick, o.seed)},
                                    o.phases);
                 }});
    d.push_back({{"radix32-low", "full",
                  "latency-regime throughput at the paper's radix-32 scale, "
                  "serial engine"},
                 false,
                 point("radix32-low", "radix32-swless", 0.1, 1)});
    d.push_back({{"radix32-sat", "full",
                  "saturation-regime throughput at the radix-32 scale, "
                  "serial engine"},
                 false,
                 point("radix32-sat", "radix32-swless", 0.9, 1)});
    d.push_back({{"radix32-sat-sh2", "full",
                  "the radix32-sat point on the sharded engine (shards=2): "
                  "the single-large-point scaling lever at the paper's "
                  "full-wafer scale"},
                 false,
                 point("radix32-sat-sh2", "radix32-swless", 0.9, 2)});
    d.push_back({{"fig11a-sweep", "full",
                  "end-to-end figure reproduction: the three-series "
                  "radix-16 fig11a sweep (the repo's headline perf number)"},
                 false,
                 [](const SuiteOptions& o) {
                   return run_specs("fig11a-sweep", fig11a_specs(o.seed),
                                    o.phases);
                 }});
    return d;
  }();
  return defs;
}

}  // namespace

const std::vector<PresetInfo>& preset_infos() {
  static const std::vector<PresetInfo> infos = [] {
    std::vector<PresetInfo> out;
    for (const auto& d : preset_defs()) out.push_back(d.info);
    return out;
  }();
  return infos;
}

std::string render_preset_table() {
  std::string out;
  out += "| Preset | Modes | Measures |\n| --- | --- | --- |\n";
  for (const auto& p : preset_infos())
    out += "| `" + p.name + "` | " + p.modes + " | " + p.what + " |\n";
  return out;
}

std::vector<PerfResult> run_perf_suite(const SuiteOptions& opts) {
  std::vector<PerfResult> out;
  bool found = opts.preset.empty();
  for (const auto& d : preset_defs()) {
    if (!opts.preset.empty()) {
      if (d.info.name != opts.preset) continue;
      found = true;
    } else if (opts.quick && !d.in_quick) {
      continue;
    }
    std::fprintf(stderr, "sldf-bench: running %s ...\n",
                 d.info.name.c_str());
    out.push_back(d.run(opts));
  }
  if (!found)
    throw std::invalid_argument("unknown preset '" + opts.preset +
                                "' (see --list)");
  return out;
}

void write_bench_json(const std::string& path,
                      const std::vector<PerfResult>& results, bool quick) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << "{\n  \"bench\": \"sldf-bench\",\n  \"schema\": 1,\n";
  f << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  f << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PerfResult& r = results[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"preset\": \"%s\", \"points\": %d, "
                  "\"cycles\": %llu, \"flit_hops\": %llu, "
                  "\"delivered_packets\": %llu, \"wall_s\": %.3f, "
                  "\"cycles_per_sec\": %.0f, \"flit_hops_per_sec\": %.0f, "
                  "\"peak_rss_mb\": %.1f, \"rss_min_mb\": %.1f, "
                  "\"rss_max_mb\": %.1f}%s\n",
                  r.preset.c_str(), r.points,
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.flit_hops),
                  static_cast<unsigned long long>(r.delivered), r.wall_s,
                  r.cycles_per_sec, r.flit_hops_per_sec, r.peak_rss_mb,
                  r.rss_min_mb, r.rss_max_mb,
                  i + 1 < results.size() ? "," : "");
    f << buf;
  }
  f << "  ]\n}\n";
}

}  // namespace sldf::bench
