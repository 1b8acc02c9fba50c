#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "topo/fabric.hpp"
#include "workload/registry.hpp"

namespace sldf::benchmark {

// ------------------------------------------------------------ workloads ---

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"sat-r16",
       "Fig 11 saturation on both radix-16 fabrics (1312 chips): dense "
       "active sets, VA/SA contention, above the deep-prefetch gate",
       // The window is the `radix16-sat` row's, so the SW-less series at
       // seed 1 is that row of BENCH_sim.json.
       R"(# configs/fig11a.conf fabrics at one near-saturation load.
traffic = uniform
rates = 0.9
warmup = 500
measure = 1200
drain = 600

[series SW-less]
topology = radix16-swless

[series SW-based]
topology = radix16-swdf
)",
       {"radix16-sat", 2300, 25344540, 304102}},
      {"low-r32",
       "full-wafer radix-32 SW-less (18560 chips) at low load: sparse "
       "activity over a working set larger than the host's L3",
       // Step cost is flat from cycle 50 on at this load, so a 100-cycle
       // warmup and 200-cycle measure run the same per-cycle regime as a
       // 200/500 window at half the time; README.md has the measurement.
       R"(label = SW-less
topology = radix32-swless
traffic = uniform
rates = 0.1
warmup = 100
measure = 200
drain = 300
)",
       {}},
      {"allreduce-w16",
       "Fig 14 closed-loop ring-AllReduce on one W-group (40-224 "
       "routers): the message-level workload engine on tiny fabrics",
       R"(# configs/fig14.conf with a larger payload.
workload = ring-allreduce
workload.scope = wgroup
workload.kib = 1024
workload.chunks = 4
topo.g = 1
pkt_len = 4

[series SW-based]
topology = radix16-swdf

[series SW-less]
topology = radix16-swless

[series SW-less-2B]
topology = radix16-swless
topo.mesh_width = 2
)",
       {}},
      {"faults-online",
       "Fig 16 resilience with live fail/repair steps on radix-16 SW-less "
       "g=11: fault-tolerant build, detour routing, packet rescue",
       R"(label = SW-less
topology = radix16-swless
topo.g = 11
traffic = uniform
rates = 0.9
warmup = 1000
measure = 12000
drain = 2000
fault.seed = 7
fault.events = fail@1000:global=0.1;repair@4000:global=0.05;fail@7000:local=0.05;repair@10000:local=0
)",
       {}},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<core::ScenarioSpec> workload_specs(const std::string& text,
                                               std::uint64_t seed) {
  std::vector<core::ScenarioSpec> specs = core::parse_scenario_text(text);
  for (core::ScenarioSpec& s : specs) s.set("seed", std::to_string(seed));
  return specs;
}

// --------------------------------------------------------------- digest ---

namespace {

/// FNV-1a over the raw bytes of every result field, in declaration order.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void vec(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (const std::uint64_t x : v) u64(x);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::uint64_t digest_of(const sim::SimResult& r) {
  Digest d;
  for (const double x : {r.offered, r.accepted, r.avg_latency, r.p50_latency,
                         r.p99_latency, r.min_latency, r.max_latency})
    d.f64(x);
  for (const std::uint64_t x :
       {r.generated_measured, r.delivered_measured, r.delivered_total,
        r.suppressed, static_cast<std::uint64_t>(r.drained)})
    d.u64(x);
  for (const double h : r.avg_hops) d.f64(h);
  d.f64(r.avg_hops_total);
  for (const std::uint64_t x :
       {static_cast<std::uint64_t>(r.cycles_run), r.flit_hops,
        r.dropped_packets, r.dropped_flits, r.rescued_packets,
        r.generated_packets, r.inflight_packets, r.generated_flits,
        r.ejected_flits, r.lost_flits, r.inflight_flits})
    d.u64(x);
  for (const auto* v : {&r.plane_generated, &r.plane_delivered,
                        &r.plane_dropped, &r.plane_inflight,
                        &r.wafer_generated, &r.wafer_delivered,
                        &r.wafer_dropped, &r.wafer_inflight})
    d.vec(*v);
  return d.value();
}

std::uint64_t digest_of(const workload::WorkloadResult& r) {
  Digest d;
  d.str(r.workload);
  for (const std::uint64_t x :
       {static_cast<std::uint64_t>(r.completed),
        static_cast<std::uint64_t>(r.cycles),
        static_cast<std::uint64_t>(r.chips), r.messages, r.packets,
        r.packets_delivered, r.flits, r.flit_hops, r.failed_messages,
        r.orphaned_messages, r.dropped_packets, r.rescued_packets})
    d.u64(x);
  d.f64(r.avg_msg_cycles);
  d.f64(r.max_msg_cycles);
  d.f64(r.gbps_per_chip);
  d.u64(r.phases.size());
  for (const workload::PhaseResult& p : r.phases) {
    d.u64(static_cast<std::uint64_t>(p.completed));
    d.u64(p.messages);
    d.u64(p.flits);
  }
  d.u64(r.msgs.size());
  for (const workload::MsgRecord& m : r.msgs) {
    d.u64(static_cast<std::uint64_t>(m.ready));
    d.u64(static_cast<std::uint64_t>(m.done));
    d.u64(static_cast<std::uint64_t>(m.completed));
  }
  return d.value();
}

/// The conservation ledger of an open-loop run ("" when it closes).
std::string ledger_error(const sim::SimResult& r) {
  if (r.generated_packets !=
      r.delivered_total + r.dropped_packets + r.inflight_packets)
    return "packet ledger open: generated " +
           std::to_string(r.generated_packets) + " != delivered " +
           std::to_string(r.delivered_total) + " + dropped " +
           std::to_string(r.dropped_packets) + " + inflight " +
           std::to_string(r.inflight_packets);
  if (r.generated_flits != r.ejected_flits + r.lost_flits + r.inflight_flits)
    return "flit ledger open: generated " +
           std::to_string(r.generated_flits) + " != ejected " +
           std::to_string(r.ejected_flits) + " + lost " +
           std::to_string(r.lost_flits) + " + inflight " +
           std::to_string(r.inflight_flits);
  return "";
}

/// Completion and the packet ledger of a closed-loop run ("" when both hold).
std::string ledger_error(const workload::WorkloadResult& r) {
  if (!r.completed) return "closed-loop run did not complete";
  if (r.packets != r.packets_delivered + r.dropped_packets)
    return "packet ledger open: injected " + std::to_string(r.packets) +
           " != delivered " + std::to_string(r.packets_delivered) +
           " + dropped " + std::to_string(r.dropped_packets);
  std::uint64_t phase_flits = 0;
  for (const workload::PhaseResult& p : r.phases) phase_flits += p.flits;
  if (phase_flits != r.flits)
    return "flit ledger open: phases carry " + std::to_string(phase_flits) +
           " flits, messages " + std::to_string(r.flits);
  return "";
}

ModelStats model_of(const sim::SimResult& r) {
  ModelStats m;
  m.cycles = r.cycles_run;
  m.flit_hops = r.flit_hops;
  m.delivered_packets = r.delivered_total;
  m.accepted = r.accepted;
  m.p99_latency = r.p99_latency;
  m.rescued_packets = r.rescued_packets;
  m.dropped_packets = r.dropped_packets;
  m.digest = digest_of(r);
  return m;
}

ModelStats model_of(const workload::WorkloadResult& r) {
  ModelStats m;
  m.cycles = r.cycles;
  m.flit_hops = r.flit_hops;
  m.delivered_packets = r.packets_delivered;
  m.rescued_packets = r.rescued_packets;
  m.dropped_packets = r.dropped_packets;
  m.digest = digest_of(r);
  return m;
}

sim::SimConfig open_loop_config(const core::ScenarioSpec& spec) {
  const std::vector<double> rates = spec.effective_rates();
  if (rates.size() != 1)
    throw std::invalid_argument("series '" + spec.label +
                                "' must set exactly one rate");
  sim::SimConfig sc = spec.sim;
  sc.inj_rate_per_chip = rates.front();
  return sc;
}

// ----------------------------------------------------------- series run ---

/// Host-time accumulators of the traced pass, summed over its series.
struct TraceAcc {
  double build_s = 0.0, traffic_s = 0.0, graph_s = 0.0;
  double ctor_s = 0.0, step_s = 0.0, drain_s = 0.0, run_s = 0.0;
  double teardown_s = 0.0;
  std::uint64_t skipped = 0;
  std::vector<double> step_ns;
  std::vector<double> fault_step_ns;
  std::uint64_t messages = 0, packets = 0;
  std::uint64_t routers = 0, channels = 0, fifos = 0;
  bool closed_loop = false;
};

/// Closes a span when it goes out of scope, so a throwing call still
/// leaves the tracer's nesting intact.
struct SpanGuard {
  Tracer* tr;
  int id;
  ~SpanGuard() {
    if (tr) tr->close(id);
  }
};

/// Times `f`, as a span named `name` when a tracer is given.
template <typename F>
double timed(Tracer* tr, const char* name, const std::string& series, F&& f) {
  const SpanGuard span{tr, tr ? tr->open(name, series) : -1};
  const Clock::time_point t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// The warmup+measure loop of Simulator::run(), replayed from outside so
/// every step() is timed; the caller then calls run() for the drain.
void traced_window(sim::Simulator& sim, const sim::SimConfig& sc,
                   const sim::Network& net, TraceAcc& acc) {
  std::vector<Cycle> fault_at;
  if (const sim::FaultSchedule* fs = net.fault_schedule())
    for (const sim::FaultStep& st : fs->steps) fault_at.push_back(st.at);
  const Cycle horizon = sc.warmup + sc.measure;
  while (sim.now() < horizon) {
    if (sc.idle_skip) {
      const Cycle before = sim.now();
      sim.try_skip_idle(horizon);
      acc.skipped += sim.now() - before;
      if (sim.now() >= horizon) break;
    }
    const bool fault_step = std::find(fault_at.begin(), fault_at.end(),
                                      sim.now()) != fault_at.end();
    const Clock::time_point t0 = Clock::now();
    sim.step();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    acc.step_ns.push_back(ns);
    if (fault_step) acc.fault_step_ns.push_back(ns);
  }
}

/// A series ready to run: its network and its traffic pattern (open loop)
/// or message graph (closed loop). Members are destroyed pattern and graph
/// first, network last.
struct SetUp {
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<sim::TrafficSource> traffic;
  workload::WorkloadGraph graph;
  workload::WorkloadRunConfig rc;
  double build_s = 0.0;
  double make_s = 0.0;  ///< traffic_factory or make_workload.

  void tear_down() {
    traffic.reset();
    graph = {};
    net.reset();
  }
};

/// Everything before the first simulated cycle, timed as set-up.
SetUp set_up(const core::ScenarioSpec& spec, Tracer* tr) {
  SetUp s;
  s.net = std::make_unique<sim::Network>();
  s.build_s = timed(tr, "build.network", spec.label,
                    [&] { core::build_network(*s.net, spec); });
  if (spec.workload.empty()) {
    s.make_s = timed(tr, "traffic.make", spec.label, [&] {
      s.traffic = core::traffic_factory(spec)(*s.net);
    });
  } else {
    core::KvMap gen_opts;
    s.rc = core::workload_run_config(spec, &gen_opts);
    workload::WorkloadEnv env;
    env.flit_bytes = s.rc.flit_bytes;
    env.trace_file = spec.trace_file;
    env.trace_seed = spec.trace_seed;
    s.make_s = timed(tr, "workload.graph", spec.label, [&] {
      s.graph = workload::make_workload(spec.workload, *s.net, gen_opts, env);
    });
  }
  return s;
}

/// Runs one series. With a tracer every public call becomes a span and the
/// open-loop engine runs through traced_window(); without one the same
/// calls run back to back and only the setup boundary is read.
SeriesRun run_series(const core::ScenarioSpec& spec, Tracer* tr,
                     TraceAcc* acc) {
  SeriesRun out;
  out.label = spec.label;
  const SpanGuard series_span{tr, tr ? tr->open("series", spec.label) : -1};
  try {
    SetUp s = set_up(spec, tr);
    sim::Network& net = *s.net;
    out.setup_s = s.build_s + s.make_s;
    if (acc) {
      acc->build_s += s.build_s;
      acc->routers += net.num_routers();
      acc->channels += net.num_channels();
      acc->fifos += net.fifos().num_fifos();
    }
    if (spec.workload.empty()) {
      const sim::SimConfig sc = open_loop_config(spec);
      sim::SimResult res;
      if (!tr) {
        const Clock::time_point t0 = Clock::now();
        res = sim::run_sim(net, sc, *s.traffic);
        out.engine_s = seconds_since(t0);
      } else {
        std::unique_ptr<sim::Simulator> sim;
        const double ctor_s = timed(tr, "sim.ctor", spec.label, [&] {
          net.reset_dynamic_state();
          sim = std::make_unique<sim::Simulator>(net, sc, *s.traffic);
        });
        const double step_s = timed(tr, "sim.step", spec.label, [&] {
          traced_window(*sim, sc, net, *acc);
        });
        const double drain_s =
            timed(tr, "sim.drain", spec.label, [&] { res = sim->run(); });
        out.engine_s = ctor_s + step_s + drain_s;
        acc->traffic_s += s.make_s;
        acc->ctor_s += ctor_s;
        acc->step_s += step_s;
        acc->drain_s += drain_s;
        acc->run_s += out.engine_s;
        acc->teardown_s += timed(tr, "teardown", spec.label, [&] {
          sim.reset();
          s.tear_down();
        });
      }
      out.model = model_of(res);
      out.error = ledger_error(res);
    } else {
      workload::WorkloadResult res;
      out.engine_s = timed(tr, "workload.run", spec.label, [&] {
        res = workload::run_workload(net, s.graph, s.rc);
      });
      if (acc) {
        acc->closed_loop = true;
        acc->graph_s += s.make_s;
        acc->run_s += out.engine_s;
        acc->messages += res.messages;
        acc->packets += res.packets;
        acc->teardown_s +=
            timed(tr, "teardown", spec.label, [&] { s.tear_down(); });
      }
      out.model = model_of(res);
      out.error = ledger_error(res);
    }
  } catch (const std::exception& e) {
    out.error = std::string("threw: ") + e.what();
  }
  return out;
}

/// A kB field of /proc/self/status (VmHWM, VmRSS) in MB; 0 if unreadable.
double status_mb(const char* field) {
  double kb = -1.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    const std::size_t n = std::strlen(field);
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, field, n) == 0 && line[n] == ':') {
        std::sscanf(line + n + 1, "%lf", &kb);
        break;
      }
    }
    std::fclose(f);
  }
  return kb < 0.0 ? 0.0 : kb / 1024.0;
}

double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[i];
}

Repetition repetition(const std::vector<core::ScenarioSpec>& specs,
                      Tracer* tr, TraceAcc* acc) {
  Repetition rep;
  reset_peak_rss();
  const Clock::time_point t0 = Clock::now();
  for (const core::ScenarioSpec& spec : specs) {
    rep.series.push_back(run_series(spec, tr, acc));
    rep.setup_s += rep.series.back().setup_s;
    rep.flit_hops += rep.series.back().model.flit_hops;
  }
  rep.wall_s = seconds_since(t0);
  rep.peak_rss_mb = status_mb("VmHWM");
  return rep;
}

}  // namespace

Repetition run_repetition(const std::vector<core::ScenarioSpec>& specs) {
  return repetition(specs, nullptr, nullptr);
}

double run_setup_pass(const std::vector<core::ScenarioSpec>& specs) {
  // A repetition starts from a trimmed heap (reset_peak_rss), so its set-up
  // pays for fresh pages; a pass must too to give comparable samples.
  malloc_trim(0);
  double total = 0.0;
  for (const core::ScenarioSpec& spec : specs) {
    const SetUp s = set_up(spec, nullptr);
    total += s.build_s + s.make_s;
  }
  return total;
}

std::uint64_t workload_digest(const Repetition& rep) {
  Digest d;
  for (const SeriesRun& s : rep.series) d.u64(s.model.digest);
  return d.value();
}

// ----------------------------------------------------------------- rss ---

bool reset_peak_rss() {
  // Hand freed heap back first, so the mark starts from live memory rather
  // than from pages an earlier repetition or workload left in the arenas.
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite("5", 1, 1, f) == 1;
  return std::fclose(f) == 0 && ok;
}

// -------------------------------------------------------------- tracer ---

int Tracer::open(const std::string& name, const std::string& series) {
  Span s;
  s.name = name;
  s.workload = workload_;
  s.series = series;
  s.start = now();
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::close(int id) {
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end = now();
}

double Tracer::now() const { return seconds_since(origin_); }

// --------------------------------------------------------------- traced ---

TracedRun run_traced(const std::vector<core::ScenarioSpec>& specs,
                     Tracer& tracer) {
  TraceAcc acc;
  const int id = tracer.open("repetition");
  TracedRun out;
  out.rep = repetition(specs, &tracer, &acc);
  tracer.close(id);

  const std::uint64_t flit_hops = out.rep.flit_hops;
  auto add = [&](const char* name, double v, const char* unit) {
    out.layers.push_back(Layer{name, v, unit});
  };
  add("build.network_s", acc.build_s, "s");
  if (acc.closed_loop) {
    add("workload.graph_s", acc.graph_s, "s");
    add("workload.messages", static_cast<double>(acc.messages), "count");
    add("workload.packets", static_cast<double>(acc.packets), "count");
    if (acc.packets > 0)
      add("workload.ns_per_packet",
          acc.run_s * 1e9 / static_cast<double>(acc.packets), "ns");
  } else {
    add("traffic.make_s", acc.traffic_s, "s");
    add("sim.ctor_s", acc.ctor_s, "s");
    add("sim.steps", static_cast<double>(acc.step_ns.size()), "count");
    add("sim.step_s", acc.step_s, "s");
    add("sim.step_ns_p50", quantile_of(acc.step_ns, 0.5), "ns");
    add("sim.step_ns_p99", quantile_of(acc.step_ns, 0.99), "ns");
    add("sim.cycles_skipped", static_cast<double>(acc.skipped), "count");
    add("sim.drain_s", acc.drain_s, "s");
    if (!acc.fault_step_ns.empty()) {
      double sum = 0.0;
      for (const double ns : acc.fault_step_ns) sum += ns;
      std::uint64_t rescued = 0, dropped = 0;
      for (const SeriesRun& s : out.rep.series) {
        rescued += s.model.rescued_packets;
        dropped += s.model.dropped_packets;
      }
      add("fault.steps", static_cast<double>(acc.fault_step_ns.size()),
          "count");
      add("fault.step_ns",
          sum / static_cast<double>(acc.fault_step_ns.size()), "ns");
      add("fault.rescued_packets", static_cast<double>(rescued), "count");
      add("fault.dropped_packets", static_cast<double>(dropped), "count");
    }
  }
  add("sim.run_s", acc.run_s, "s");
  if (flit_hops > 0)
    add("sim.ns_per_flit_hop",
        acc.run_s * 1e9 / static_cast<double>(flit_hops), "ns");
  add("teardown_s", acc.teardown_s, "s");
  add("net.routers", static_cast<double>(acc.routers), "count");
  add("net.channels", static_cast<double>(acc.channels), "count");
  add("net.fifos", static_cast<double>(acc.fifos), "count");
  return out;
}

std::vector<Layer> build_layers(const std::vector<core::ScenarioSpec>& specs,
                                Tracer& tracer) {
  double wire_s = 0.0, bind_s = 0.0, finalize_s = 0.0, mem_mb = 0.0;
  const int id = tracer.open("build.throwaway");
  for (const core::ScenarioSpec& spec : specs) {
    // The classic single-fabric build (TopologyRegistry::build, i.e.
    // wire + install_fabric) split at its three stages.
    const core::TopoConfig cfg = spec.topo_config();
    const double rss0 = status_mb("VmRSS");
    sim::Network net;
    topo::WiredFabric f;
    wire_s += timed(&tracer, "topo.wire", spec.label, [&] {
      f = core::TopologyRegistry::instance().wire(spec.topology, net, cfg);
    });
    bind_s += timed(&tracer, "route.bind", spec.label,
                    [&] { f.routing->bind_topo(*f.info, f.num_vcs); });
    finalize_s += timed(&tracer, "sim.finalize", spec.label, [&] {
      net.set_topo_info(std::move(f.info));
      net.set_routing(std::move(f.routing));
      net.finalize(f.num_vcs, f.vc_buf);
    });
    // Largest network, not the sum: a later series may reuse pages the
    // allocator kept from an earlier one.
    mem_mb = std::max(mem_mb, status_mb("VmRSS") - rss0);
  }
  tracer.close(id);
  return {{"topo.wire_s", wire_s, "s"},
          {"route.bind_s", bind_s, "s"},
          {"sim.finalize_s", finalize_s, "s"},
          {"mem.network_mb", mem_mb, "MB"}};
}

}  // namespace sldf::benchmark
