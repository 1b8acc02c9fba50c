// Engine setup and the run loop: construction and init(), the shard team,
// run() with its result, and the checkpoint field walk.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "sim/checkpoint.hpp"
#include "sim/transitions.hpp"

namespace sldf::sim {

namespace {

/// The smallest timing wheel for `net`: a power of two above the maximum
/// channel latency. Any larger power of two behaves identically (slot
/// index = cycle & mask uniquely maps every in-flight event to its target
/// cycle), so a larger recycled or restored wheel is fine.
std::size_t min_wheel_slots(const Network& net) {
  std::size_t max_lat = 1;
  for (std::size_t i = 0; i < net.num_channels(); ++i)
    max_lat = std::max<std::size_t>(max_lat,
                                    net.chan(static_cast<ChanId>(i)).latency);
  return std::bit_floor(max_lat) << 1;
}

/// Sizes/resets `ctx` for `net` and returns the wheel mask.
std::size_t prepare_context(SimContext& ctx, Network& net) {
  std::size_t w = min_wheel_slots(net);
  if (ctx.wheel.size() < w)
    ctx.wheel.resize(w);
  else
    w = ctx.wheel.size();  // already a power of two (only sized here)
  for (auto& slot : ctx.wheel) slot.clear();  // keeps slot capacity

  ctx.pool.reset();
  ctx.active.assign((net.num_routers() + 63) / 64, 0);
  ctx.ract.assign(net.num_routers(), 0);
  ctx.ivc_pending.assign((net.fifos().num_fifos() + 63) / 64, 0);
  ctx.port_pending.assign((net.num_out_ports() + 63) / 64, 0);
  ctx.ovc_waiters.assign(static_cast<std::size_t>(net.num_out_ports()) *
                             static_cast<std::size_t>(net.num_vcs()),
                         kNoWaiter);
  ctx.ivc_wait_next.assign(net.fifos().num_fifos(), kNoWaiter);
  ctx.ivc_pkt.assign(net.fifos().num_fifos(), kInvalidPacket);
  return w - 1;
}

/// The `SLDF_SHARDS` override: a positive integer, or 0 when unset or
/// malformed (ignored).
int env_shards() {
  const char* env = std::getenv("SLDF_SHARDS");
  if (env == nullptr) return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  return (end != env && *end == '\0' && v >= 1 && v <= 0xffff)
             ? static_cast<int>(v)
             : 0;
}

/// This host's last-level cache in bytes, or 0 when libc does not know it.
std::size_t host_llc_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  static const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return llc > 0 ? static_cast<std::size_t>(llc) : 0;
#else
  return 0;
#endif
}

}  // namespace

bool deep_prefetch_pays(std::size_t num_fifos, std::size_t llc_bytes) {
  if (llc_bytes == 0) llc_bytes = kFallbackLlcBytes;
  return num_fifos * kWalkBytesPerFifo > llc_bytes;
}

int resolve_shards(int requested, unsigned cores) {
  if (requested >= 1) return requested;
  if (const int env = env_shards()) return env;
  return static_cast<int>(std::clamp<unsigned>(cores, 1, 0xffff));
}

/// The per-cycle worker team of a sharded engine. One thread per shard
/// beyond shard 0 (which the driving thread runs itself). Between phases a
/// worker spins for up to kSpinBudget before parking on a C++20 atomic
/// wait: a parallel cycle's serial stretches (generation, the commit) are
/// shorter than that, so its two hand-offs never pay a futex wake-up,
/// while a run of serial cycles below the work gate parks the team.
class Simulator::ShardTeam {
 public:
  ShardTeam(Simulator& sim, int nshards) : sim_(sim) {
    workers_.reserve(static_cast<std::size_t>(nshards - 1));
    for (int k = 1; k < nshards; ++k)
      workers_.emplace_back([this, k] { worker(k); });
  }
  ShardTeam(const ShardTeam&) = delete;
  ShardTeam& operator=(const ShardTeam&) = delete;

  ~ShardTeam() {
    stop_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (auto& t : workers_) t.join();
  }

  /// Runs `phase` across all shards and returns when every shard is done.
  /// The epoch release publishes the driving thread's writes (and the
  /// phase) to the workers; the done-count acquire publishes the shards'
  /// writes back to the driving thread.
  void run_phase(ShardPhase phase) {
    phase_ = phase;
    done_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    (sim_.*phase)(0);
    const auto need = static_cast<int>(workers_.size());
    int spins = 0;
    while (done_.load(std::memory_order_acquire) != need) {
      cpu_relax();
      if (++spins > 1024) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }

 private:
  static constexpr std::chrono::microseconds kSpinBudget{5000};

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  void worker(int k) {
    // The team is constructed at epoch 0, so that is the last epoch this
    // worker has (vacuously) processed — reading the counter here instead
    // would drop a phase signalled before the thread got scheduled.
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t e;
      auto since = std::chrono::steady_clock::now();
      int spins = 0;
      while ((e = epoch_.load(std::memory_order_acquire)) == seen) {
        cpu_relax();
        if (++spins < 256) continue;
        spins = 0;
        // Cede the core now and then: until the scheduler spreads the team
        // (or while the host takes a core away), a spinner can share a
        // core with the very thread it waits for.
        std::this_thread::yield();
        if (std::chrono::steady_clock::now() - since > kSpinBudget) {
          epoch_.wait(seen, std::memory_order_acquire);
          since = std::chrono::steady_clock::now();
        }
      }
      seen = e;
      if (stop_.load(std::memory_order_relaxed)) return;
      (sim_.*phase_)(k);
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  Simulator& sim_;
  ShardPhase phase_ = nullptr;  ///< Published by the epoch release.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> done_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

Simulator::Simulator(Network& net, const SimConfig& cfg, TrafficSource& traffic)
    : net_(net), cfg_(cfg), traffic_(traffic), rng_(cfg.seed),
      owned_ctx_(std::make_unique<SimContext>()), ctx_(owned_ctx_.get()) {
  init();
}

Simulator::Simulator(Network& net, const SimConfig& cfg, TrafficSource& traffic,
                     SimContext& ctx)
    : net_(net), cfg_(cfg), traffic_(traffic), rng_(cfg.seed), ctx_(&ctx) {
  init();
}

Simulator::~Simulator() = default;

void Simulator::init() {
  if (!net_.finalized())
    throw std::logic_error("Simulator: network not finalized");
  if (!net_.routing())
    throw std::logic_error("Simulator: network has no routing algorithm");
  if (net_.num_chips() == 0)
    throw std::logic_error("Simulator: network has no chips");

  // Offered load is defined over the LOGICAL chip space: on a multi-plane
  // network only the plane-0 terminals draw generation clocks (packets fan
  // out to other planes at injection), so the per-node rate divides by the
  // logical terminal count — using terminals().size() here would silently
  // cut offered load by the plane count.
  const double nodes_per_chip =
      static_cast<double>(net_.logical_terminals().size()) /
      static_cast<double>(net_.num_chips());
  per_node_pkt_rate_ = cfg_.inj_rate_per_chip / nodes_per_chip /
                       static_cast<double>(cfg_.pkt_len);

  num_planes_ = net_.num_planes();
  plane_policy_ = net_.plane_policy();
  plane_generated_.assign(static_cast<std::size_t>(num_planes_), 0);
  plane_delivered_.assign(static_cast<std::size_t>(num_planes_), 0);
  plane_dropped_.assign(static_cast<std::size_t>(num_planes_), 0);
  num_wafers_ = net_.num_wafers();
  wafer_generated_.assign(static_cast<std::size_t>(num_wafers_), 0);
  wafer_delivered_.assign(static_cast<std::size_t>(num_wafers_), 0);
  wafer_dropped_.assign(static_cast<std::size_t>(num_wafers_), 0);

  wheel_mask_ = prepare_context(*ctx_, net_);

  ctx_->terms.resize(net_.terminals().size());
  ctx_->term_of_node.assign(net_.num_routers(), -1);
  for (std::size_t i = 0; i < ctx_->terms.size(); ++i) {
    TerminalState& t = ctx_->terms[i];
    t.node = net_.terminals()[i];
    ctx_->term_of_node[static_cast<std::size_t>(t.node)] =
        static_cast<std::int32_t>(i);
    // Only logical (plane-0) terminals carry generation clocks; plane>0
    // twins receive remapped packets at injection and must NOT draw from
    // the RNG, so the plane-0 stream matches a single-fabric run bit for
    // bit.
    const bool generates = net_.plane_of_node(t.node) == 0;
    t.next_gen = (generates && per_node_pkt_rate_ > 0.0)
                     ? rng_.geometric_skip(per_node_pkt_rate_)
                     : ~0ULL;
    // Dead terminals (fault mask) never generate. The skip above still
    // draws from the RNG so live terminals see the same stream whether or
    // not faults are present elsewhere.
    if (!net_.node_live(t.node)) t.next_gen = ~0ULL;
    t.queue.clear();
    t.inj_base = net_.in_vc_index(t.node, net_.router(t.node).inj_port, 0);
    t.inj_vc = 0;
    t.pushed = 0;
  }
  rr_plane_.assign(ctx_->terms.size(), 0);
  check_terminal_layout();
  rebuild_gen_state();
  // The walk prefetches only when its working set outsizes the host LLC
  // (deep_prefetch_pays()); on smaller fabrics every line is resident.
  deep_prefetch_ =
      deep_prefetch_pays(net_.fifos().num_fifos(), host_llc_bytes());
  phases_.deep_prefetch = deep_prefetch_;

  // Online fault timeline: steps are applied at the top of step() as now_
  // reaches them. A schedule without a captured baseline would leak online
  // transitions into the next run's reset, so insist on the pairing.
  fault_sched_ = net_.fault_schedule();
  next_fault_ = 0;
  if (fault_sched_ != nullptr && !net_.has_fault_baseline())
    throw std::logic_error(
        "Simulator: network has a fault schedule but no captured fault "
        "baseline (topo::inject_faults sets up both)");

  // Sharded engine setup. More shards than chips cannot be chip-aligned
  // and would only add empty phases, so the resolved count is clamped.
  // The team and its scratch start lazily, on the first parallel cycle.
  shards_ = std::min<int>(resolve_shards(cfg_.shards),
                          static_cast<int>(net_.num_chips()));
  gated_ = cfg_.shards == 0 && env_shards() == 0;
  parallel_ = shards_ > 1 && !gated_;
  if (shards_ > 1) {
    shard_bounds_ = net_.shard_bounds(shards_);
    term_bounds_.resize(shard_bounds_.size());
    for (std::size_t k = 0; k < shard_bounds_.size(); ++k)
      term_bounds_[k] = static_cast<std::uint32_t>(
          std::lower_bound(ctx_->terms.begin(), ctx_->terms.end(),
                           shard_bounds_[k],
                           [](const TerminalState& t, std::uint32_t b) {
                             return static_cast<std::uint32_t>(t.node) < b;
                           }) -
          ctx_->terms.begin());
  }
}

void Simulator::check_terminal_layout() const {
  const auto& terms = ctx_->terms;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (i > 0 && terms[i].node <= terms[i - 1].node)
      throw std::logic_error(
          "Simulator: terminals do not ascend by node id");
    if (net_.plane_of_node(terms[i].node) != 0) continue;
    for (int pl = 1; pl < num_planes_; ++pl)
      if (ctx_->term_of_node[static_cast<std::size_t>(
              net_.plane_twin(terms[i].node, pl))] <=
          static_cast<std::int32_t>(i))
        throw std::logic_error(
            "Simulator: a plane twin precedes its plane-0 terminal");
  }
}

void Simulator::run_team(ShardPhase phase) {
  if (!team_) {
    if (ctx_->shard_scratch.size() < static_cast<std::size_t>(shards_))
      ctx_->shard_scratch.resize(static_cast<std::size_t>(shards_));
    // Each shard's boundary words, over its routers [lo, hi), their input
    // VCs and output ports (the per-router offsets have an entry at the
    // router count) and its terminals.
    for (std::size_t k = 0; k < static_cast<std::size_t>(shards_); ++k) {
      const auto lo = static_cast<NodeId>(shard_bounds_[k]);
      const auto hi = static_cast<NodeId>(shard_bounds_[k + 1]);
      ShardScratch& sc = ctx_->shard_scratch[k];
      sc.active_words = ShardWords::of(shard_bounds_[k], shard_bounds_[k + 1]);
      sc.ivc_words = ShardWords::of(net_.in_vc_index(lo, 0, 0),
                                    net_.in_vc_index(hi, 0, 0));
      sc.port_words = ShardWords::of(net_.out_port_index(lo, 0),
                                     net_.out_port_index(hi, 0));
      sc.inj_words = ShardWords::of(term_bounds_[k], term_bounds_[k + 1]);
    }
    team_ = std::make_unique<ShardTeam>(*this, shards_);
  }
  team_->run_phase(phase);
}

SimResult Simulator::run() {
  // One stride towards `limit`: skip idle cycles, then step one cycle if
  // any is left. Skipped cycles are provably no-ops (see try_skip_idle),
  // so a skipping run reaches every limit with bit-identical state.
  const auto advance = [this](Cycle limit) {
    try_skip_idle(limit);
    if (now_ < limit) step();
  };
  const Cycle horizon = cfg_.warmup + cfg_.measure;
  while (now_ < horizon) advance(horizon);
  // Drain: let measured packets land (background traffic keeps flowing).
  // Idle stretches count against the drain budget exactly like stepped
  // cycles. Fault-dropped measured packets are accounted as terminal, so a
  // lossy timeline never spins the drain loop waiting for packets that no
  // longer exist.
  const Cycle drain_end = now_ + cfg_.drain;
  while (now_ < drain_end &&
         delivered_measured_ + dropped_measured_ < generated_measured_)
    advance(drain_end);

  SimResult res;
  res.offered = cfg_.inj_rate_per_chip;
  res.accepted = static_cast<double>(accepted_flits_) /
                 static_cast<double>(cfg_.measure) /
                 static_cast<double>(net_.num_chips());
  if (delivered_measured_ > 0) {
    // Both integers are far below 2^53, so each converts exactly and the
    // one division rounds correctly.
    res.avg_latency = static_cast<double>(lat_sum_) /
                      static_cast<double>(delivered_measured_);
    res.min_latency = static_cast<double>(lat_min_);
    res.max_latency = static_cast<double>(lat_max_);
  }
  res.p50_latency = lat_hist_.quantile(0.5);
  res.p99_latency = lat_hist_.quantile(0.99);
  res.generated_measured = generated_measured_;
  res.delivered_measured = delivered_measured_;
  res.delivered_total = delivered_total_;
  res.suppressed = suppressed_;
  res.drained =
      delivered_measured_ + dropped_measured_ == generated_measured_;
  res.cycles_run = now_;
  res.flit_hops = flit_hops_;
  res.dropped_packets = dropped_packets_;
  res.dropped_flits = dropped_flits_;
  res.rescued_packets = rescued_packets_;
  // Conservation ledger + per-plane split. Live packets are found by
  // scanning the pool (free-list ids marked, the rest are in flight).
  res.generated_packets = generated_packets_;
  res.generated_flits = generated_flits_;
  res.ejected_flits = ejected_flits_;
  res.lost_flits = lost_flits_;
  res.plane_generated = plane_generated_;
  res.plane_delivered = plane_delivered_;
  res.plane_dropped = plane_dropped_;
  res.plane_inflight.assign(static_cast<std::size_t>(num_planes_), 0);
  res.wafer_generated = wafer_generated_;
  res.wafer_delivered = wafer_delivered_;
  res.wafer_dropped = wafer_dropped_;
  res.wafer_inflight.assign(static_cast<std::size_t>(num_wafers_), 0);
  {
    const PacketPool& pool = ctx_->pool;
    std::vector<char> is_free(pool.capacity(), 0);
    for (const PacketId id : pool.free_list())
      is_free[static_cast<std::size_t>(id)] = 1;
    for (std::size_t i = 0; i < pool.capacity(); ++i) {
      if (is_free[i]) continue;
      const Packet& p = pool[static_cast<PacketId>(i)];
      ++res.inflight_packets;
      res.inflight_flits +=
          static_cast<std::uint64_t>(p.len) - p.flits_ejected;
      ++res.plane_inflight[static_cast<std::size_t>(
          net_.plane_of_node(p.src))];
      ++res.wafer_inflight[static_cast<std::size_t>(
          net_.wafer_of_node(p.src))];
    }
  }
  double total = 0.0;
  if (delivered_measured_ > 0) {
    for (int h = 0; h < kNumLinkTypes; ++h) {
      res.avg_hops[h] =
          hop_sum_[h] / static_cast<double>(delivered_measured_);
      total += res.avg_hops[h];
    }
  }
  res.avg_hops_total = total;
  res.phases = phases_;
  return res;
}

void Simulator::checkpoint(CheckpointIo& io) {
  // Format magic ("sldfckp3" little-endian; version 3 carries the active
  // routers as a bitmap and latency as integer tallies) and shape/config
  // fingerprint: a restore against a different network or config must fail
  // loudly instead of corrupting state.
  io.expect(0x736c6466636b7033ULL, "format magic");
  io.expect(net_.num_routers(), "router count");
  io.expect(net_.num_channels(), "channel count");
  io.expect(net_.fifos().num_fifos(), "fifo count");
  io.expect(net_.num_out_ports(), "port count");
  io.expect(ctx_->terms.size(), "terminal count");
  io.expect(cfg_.seed, "seed");
  io.expect(cfg_.warmup, "warmup");
  io.expect(cfg_.measure, "measure");
  io.expect(cfg_.drain, "drain");
  io.expect(static_cast<std::uint64_t>(cfg_.pkt_len), "pkt_len");
  io.expect(std::bit_cast<std::uint64_t>(cfg_.inj_rate_per_chip), "inj_rate");

  io.pod(now_);
  rng_.checkpoint(io);
  lat_hist_.checkpoint(io);
  for (std::uint64_t* n :
       {&lat_sum_, &lat_min_, &lat_max_, &accepted_flits_,
        &generated_measured_, &delivered_measured_, &delivered_total_,
        &suppressed_, &flit_hops_, &dropped_packets_, &dropped_flits_,
        &dropped_measured_, &rescued_packets_, &generated_packets_,
        &generated_flits_, &ejected_flits_, &lost_flits_})
    io.pod(*n);
  for (auto* v : {&plane_generated_, &plane_delivered_, &plane_dropped_,
                  &wafer_generated_, &wafer_delivered_, &wafer_dropped_})
    io.fixed(*v, "plane/wafer tally");
  io.fixed(rr_plane_, "plane cursor");
  io.pod(next_fault_);
  io.pod(hop_sum_);

  SimContext& c = *ctx_;
  c.pool.checkpoint(io);
  // Restore trusts no id in the stream: a packet id must name a live pool
  // slot, a wheel event a router and one of that router's input VCs or
  // credit lanes, and a buffered flit a live packet.
  std::vector<std::uint8_t> live(io.loading() ? c.pool.capacity() : 0, 1);
  for (std::size_t i = 0; io.loading() && i < c.pool.free_list().size(); ++i)
    live[c.pool.free_list()[i]] = 0;
  const auto check_packet = [&](PacketId id, const char* where) {
    if (id >= live.size() || live[id] == 0)
      throw std::runtime_error(std::string("checkpoint: ") + where +
                               " names a free or unknown packet");
  };
  for (TerminalState& t : c.terms) {
    io.pod(t.next_gen);
    t.queue.checkpoint(io);
    for (std::size_t q = 0; io.loading() && q < t.queue.size(); ++q)
      check_packet(t.queue.at(q), "source queue");
    io.pod(t.inj_vc);
    io.pod(t.pushed);
  }
  io.fixed(c.active, "active routers");
  if (io.loading() && !c.active.empty() &&
      (c.active.back() & ~range_mask(static_cast<std::uint32_t>(
                                         c.active.size() - 1),
                                     0, static_cast<std::uint32_t>(
                                            net_.num_routers()))) != 0)
    throw std::runtime_error("checkpoint: active bit past the last router");
  io.fixed(c.ract, "router activity");
  // A saved wheel may outsize this engine's (a recycled context); any
  // power of two at or above the minimum is a valid wheel.
  const std::size_t slots = io.count(c.wheel.size(), sizeof(c.wheel[0]));
  if (io.loading()) {
    if (!std::has_single_bit(slots) || slots < min_wheel_slots(net_))
      throw std::runtime_error("checkpoint: invalid timing-wheel size");
    c.wheel.resize(slots);
    wheel_mask_ = slots - 1;
  }
  const auto nvc = static_cast<std::uint32_t>(net_.num_vcs());
  for (auto& slot : c.wheel) {
    io.vec(slot);
    for (std::size_t i = 0; io.loading() && i < slot.size(); ++i) {
      const WheelEvent& ev = slot[i];
      const bool flit = ev.flit.carries_packet();
      if (static_cast<std::size_t>(ev.node) >= net_.num_routers())
        throw std::runtime_error(
            "checkpoint: wheel event at an unknown router");
      // A flit lands in an input VC of its router, a credit on a VC lane of
      // one of its router's output ports (unsigned: an index below the
      // router's base wraps past its count).
      const std::uint32_t port = ev.vc_flat >> Network::kPortLaneBits;
      const std::uint32_t lane =
          (ev.vc_flat & Network::kLaneMask) - Network::kOvcLane0;
      const std::uint32_t in0 = net_.in_port_index(ev.node, 0) * nvc;
      const std::uint32_t out0 = net_.out_port_index(ev.node, 0);
      if (flit ? ev.vc_flat - in0 >= net_.num_in_ports_of(ev.node) * nvc
               : (port - out0 >= net_.num_out_ports_of(ev.node) || lane >= nvc))
        throw std::runtime_error("checkpoint: wheel event outside its router");
      if (flit) check_packet(ev.flit.pkt(), "wheel flit");
    }
  }
  io.fixed(c.ivc_pending, "VC pending mask");
  io.fixed(c.port_pending, "port pending mask");
  io.fixed(c.ovc_waiters, "VC waiter head");
  io.fixed(c.ivc_wait_next, "VC waiter link");
  io.fixed(c.ivc_pkt, "VC packet");
  for (std::size_t i = 0; io.loading() && i < c.ivc_pkt.size(); ++i)
    if (c.ivc_pkt[i] != kInvalidPacket) check_packet(c.ivc_pkt[i], "VC owner");

  net_.checkpoint(io);
  const FlitFifoArena& fifos = net_.fifos();
  for (std::size_t ix = 0; io.loading() && ix < fifos.num_fifos(); ++ix) {
    if (fifos.size(ix) > fifos.capacity())
      throw std::runtime_error("checkpoint: FIFO holds more flits than a VC");
    for (std::uint32_t k = 0; k < fifos.size(ix); ++k)
      check_packet(fifos.at(ix, k).pkt(), "buffered flit");
  }
}

void Simulator::save_checkpoint(std::ostream& out) const {
  CheckpointIo io(out);
  // Saving only reads the fields, so the const save shares the one walk.
  const_cast<Simulator*>(this)->checkpoint(io);
  if (!out) throw std::runtime_error("checkpoint: write failed");
}

void Simulator::restore_checkpoint(std::istream& in) {
  CheckpointIo io(in);
  checkpoint(io);
  // The event-driven generation structures are derived state: never
  // serialized, always reconstructed from the restored terminals.
  rebuild_gen_state();
  last_walk_ = WalkCount{};
  for (const std::uint64_t w : ctx_->active)
    last_walk_.kept += static_cast<std::size_t>(std::popcount(w));
}

SimResult run_sim(Network& net, const SimConfig& cfg, TrafficSource& traffic) {
  SimContext ctx;
  return run_sim(ctx, net, cfg, traffic);
}

SimResult run_sim(SimContext& ctx, Network& net, const SimConfig& cfg,
                  TrafficSource& traffic) {
  net.reset_dynamic_state();
  Simulator sim(net, cfg, traffic, ctx);
  return sim.run();
}

}  // namespace sldf::sim
