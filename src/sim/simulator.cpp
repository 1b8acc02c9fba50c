#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "route/plane_select.hpp"
#include "sim/checkpoint.hpp"

namespace sldf::sim {

namespace {

/// Bitmask ops (pending VCs and ports, active routers). Shard compute
/// phases touch only their own routers' bits, but two shards' router, VC
/// and port index ranges can share one 64-bit boundary word, so the
/// `Atomic` instantiations use relaxed RMW (distinct-bit ORs/ANDs commute
/// — the final word value is independent of interleaving, keeping the
/// engine deterministic). The serial engine and the serial phases of a
/// sharded cycle use the plain instantiations.
template <bool Atomic = false>
inline void set_bit(std::vector<std::uint64_t>& w, std::uint32_t i) {
  if constexpr (Atomic) {
    std::atomic_ref<std::uint64_t>(w[i >> 6])
        .fetch_or(1ULL << (i & 63), std::memory_order_relaxed);
  } else {
    w[i >> 6] |= 1ULL << (i & 63);
  }
}
template <bool Atomic = false>
inline void clear_bit(std::vector<std::uint64_t>& w, std::uint32_t i) {
  if constexpr (Atomic) {
    std::atomic_ref<std::uint64_t>(w[i >> 6])
        .fetch_and(~(1ULL << (i & 63)), std::memory_order_relaxed);
  } else {
    w[i >> 6] &= ~(1ULL << (i & 63));
  }
}

/// The bits of word `w` whose indices fall inside [begin, end).
inline std::uint64_t range_mask(std::uint32_t w, std::uint32_t begin,
                                std::uint32_t end) {
  std::uint64_t m = ~0ULL;
  if (w == (begin >> 6)) m &= ~0ULL << (begin & 63);
  if (w == ((end - 1) >> 6)) m &= ~0ULL >> (63 - ((end - 1) & 63));
  return m;
}

/// Extracts the bits of word `w` of `words` that fall inside [begin, end).
/// `Atomic` loads tolerate a neighbour shard concurrently flipping *its*
/// bits of a shared boundary word; the masking discards them.
template <bool Atomic = false>
inline std::uint64_t masked_word(const std::vector<std::uint64_t>& words,
                                 std::uint32_t w, std::uint32_t begin,
                                 std::uint32_t end) {
  std::uint64_t bits;
  if constexpr (Atomic) {
    bits = std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(words[w]))
               .load(std::memory_order_relaxed);
  } else {
    bits = words[w];
  }
  return bits & range_mask(w, begin, end);
}

/// Clears the `mask` bits of word `w` and returns the ones that were set.
template <bool Atomic = false>
inline std::uint64_t take_bits(std::vector<std::uint64_t>& words,
                               std::uint32_t w, std::uint64_t mask) {
  if constexpr (Atomic) {
    return std::atomic_ref<std::uint64_t>(words[w])
               .fetch_and(~mask, std::memory_order_relaxed) &
           mask;
  } else {
    const std::uint64_t bits = words[w] & mask;
    words[w] &= ~mask;
    return bits;
  }
}

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

/// Heap ordering for SimContext::gen_heap: std::push_heap and friends build
/// a max-heap, so comparing with "fires later" keeps the EARLIEST pending
/// generation arrival at front().
inline bool gen_event_after(const GenEvent& a, const GenEvent& b) {
  return a.when > b.when;
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

/// Host-time stopwatch of SimConfig::phase_timers: lap() charges the time
/// since the previous lap to one accumulator. Switched off it reads no
/// clock.
class PhaseClock {
 public:
  explicit PhaseClock(bool on) : on_(on) {
    if (on_) t_ = Clock::now();
  }
  void lap(double& acc) {
    if (!on_) return;
    const Clock::time_point t = Clock::now();
    acc += std::chrono::duration<double>(t - t_).count();
    t_ = t;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool on_;
  Clock::time_point t_{};
};

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
        "baseline (call capture_fault_baseline() after static injection)");

  // Sharded engine setup. More shards than chips cannot be chip-aligned
  // and would only add empty phases, so the resolved count is clamped.
  // The team and its scratch start lazily, on the first parallel cycle.
  shards_ = std::min<int>(resolve_shards(cfg_.shards),
                          static_cast<int>(net_.num_chips()));
  gate_ = (cfg_.shards == 0 && env_shards() == 0) ? kShardGateRouters : 0;
  parallel_ = shards_ > 1 && gate_ == 0;
  if (shards_ > 1) shard_bounds_ = net_.shard_bounds(shards_);
}

int Simulator::pick_plane(std::size_t ti, NodeId src, NodeId dst,
                          std::uint32_t rail_hint, bool collective) {
  if (num_planes_ <= 1) return 0;
  return route::select_plane(
      static_cast<route::PlanePolicy>(plane_policy_), num_planes_,
      net_.chip_of(src), net_.chip_of(dst), rail_hint, collective,
      rr_plane_[ti],
      [&](int pl) { return term_at(net_.plane_twin(src, pl)).queue.size(); });
}

void Simulator::admit_packet(TerminalState& t, NodeId dst, int plane,
                             int len, Cycle t_gen, bool measured,
                             std::uint32_t tag) {
  const PacketId pid = ctx_->pool.acquire();
  Packet& p = ctx_->pool[pid];
  p.src = t.node;
  p.dst = dst;
  p.len = static_cast<std::uint16_t>(len);
  p.t_gen = t_gen;
  p.tag = tag;
  p.measured = measured ? 1 : 0;
  if (measured) ++generated_measured_;
  ++generated_packets_;
  generated_flits_ += p.len;
  ++plane_generated_[static_cast<std::size_t>(plane)];
  ++wafer_generated_[static_cast<std::size_t>(net_.wafer_of_node(t.node))];
  net_.routing()->init_packet(net_, p, rng_);
  t.queue.push_back(pid);
  if (t.queue.size() == 1)
    inj_mark(static_cast<std::size_t>(&t - ctx_->terms.data()));
}

void Simulator::gen_and_inject_terminal(std::size_t ti) {
  const Cycle gen_end = cfg_.warmup + cfg_.measure;
  PacketPool& pool = ctx_->pool;
  FlitFifoArena& fifos = net_.fifos();
  TerminalState& t = ctx_->terms[ti];
  // --- generation (geometric-skip Bernoulli source) ---
  while (t.next_gen <= now_) {
    const Cycle when = t.next_gen;
    const auto skip = rng_.geometric_skip(per_node_pkt_rate_);
    t.next_gen = advance_next_gen(when, skip);
    if (cfg_.idle_skip && t.next_gen != ~0ULL) gen_heap_push(t.next_gen, ti);
    if (when >= gen_end + cfg_.drain) break;  // past simulation horizon
    if (static_cast<int>(t.queue.size()) >= cfg_.max_src_queue) {
      ++suppressed_;
      continue;
    }
    const NodeId dst = traffic_.dest(net_, t.node, rng_);
    // Dead destinations (fault mask) suppress generation like a pattern
    // returning kInvalidNode; traffic sources stay fault-oblivious.
    if (dst == kInvalidNode || !net_.node_live(dst)) continue;
    // Plane selection: open-loop traffic carries no rail hint, so the
    // collective policy degrades to hash inside select_plane(). The
    // packet is remapped to the chosen plane's twin terminals and the
    // TWIN's source queue takes the backpressure check (the logical
    // queue was already checked above, which keeps the K=1 path
    // bit-identical).
    const int plane = pick_plane(ti, t.node, dst, 0, false);
    TerminalState* tq = &t;
    NodeId pdst = dst;
    if (plane != 0) {
      tq = &term_at(net_.plane_twin(t.node, plane));
      pdst = net_.plane_twin(dst, plane);
      if (static_cast<int>(tq->queue.size()) >= cfg_.max_src_queue) {
        ++suppressed_;
        continue;
      }
      if (!net_.node_live(tq->node) || !net_.node_live(pdst)) continue;
    }
    admit_packet(*tq, pdst, plane, cfg_.pkt_len, when,
                 when >= cfg_.warmup && when < gen_end, kNoTag);
  }
  // --- injection: one flit per cycle into the injection port ---
  if (t.queue.empty()) return;
  const PacketId pid = t.queue.front();
  Packet& p = pool[pid];
  if (t.pushed == 0) t.inj_vc = static_cast<VcIx>(p.vc_class);
  const std::uint32_t ix = t.inj_base + static_cast<std::uint32_t>(t.inj_vc);
  if (!fifos.full(ix)) {
    const Flit f(pid, t.pushed == 0, t.pushed + 1 == p.len);
    fifos.push(ix, f);
    if (fifos.size(ix) == 1) {
      const std::uint32_t meta = fifos.meta(ix);
      if (Network::ivc_state_of(meta) == IvcState::Idle)
        set_bit(ctx_->ivc_pending, ix);  // fresh head flit: needs RC/VA
      else  // refilled a streaming VC: wake its output port for SA
        set_bit(ctx_->port_pending,
                net_.out_port_index(t.node, static_cast<PortIx>(
                                                Network::ivc_port_of(meta))));
      mark_work(t.node);
    }
    activate_router_buffered(t.node);
    if (++t.pushed == p.len) {
      t.queue.pop_front();
      t.pushed = 0;
      if (t.queue.empty()) inj_unmark(ti);
    }
  }
}

void Simulator::generate_and_inject_scan() {
  const std::size_t n = ctx_->terms.size();
  for (std::size_t ti = 0; ti < n; ++ti) gen_and_inject_terminal(ti);
}

void Simulator::generate_and_inject_sparse() {
  // Pop every generation arrival due this cycle into the gen_due scratch
  // bitmask (stale heap entries — fault deaths, re-arms — are discarded
  // here; see GenEvent).
  auto& heap = ctx_->gen_heap;
  while (!heap.empty() && heap.front().when <= now_) {
    std::pop_heap(heap.begin(), heap.end(), gen_event_after);
    const GenEvent e = heap.back();
    heap.pop_back();
    if (ctx_->terms[e.term].next_gen == e.when)
      set_bit(ctx_->gen_due, e.term);
  }
  // Walk the union of due-generation and injection-pending terminals in
  // ascending index order — exactly the subset of terminals the full scan
  // does anything at. The word is re-read after every processed terminal:
  // generation can queue a packet onto a plane twin at a HIGHER index
  // (which the full scan would reach later this same cycle, so it must be
  // visited), while a twin at a LOWER index stays masked out by `done`
  // (the full scan already passed it).
  const std::size_t nw = ctx_->inj_pending.size();
  for (std::size_t w = 0; w < nw; ++w) {
    if ((ctx_->inj_pending[w] | ctx_->gen_due[w]) == 0) continue;
    std::uint64_t done = 0;
    for (;;) {
      const std::uint64_t bits =
          (ctx_->inj_pending[w] | ctx_->gen_due[w]) & ~done;
      if (!bits) break;
      const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
      done |= b >= 63 ? ~0ULL : (1ULL << (b + 1)) - 1;
      ctx_->gen_due[w] &= ~(1ULL << b);
      gen_and_inject_terminal(w * 64 + b);
    }
  }
}

void Simulator::generate_and_inject() {
  if (cfg_.idle_skip)
    generate_and_inject_sparse();
  else
    generate_and_inject_scan();
}

void Simulator::gen_heap_push(Cycle when, std::size_t ti) {
  ctx_->gen_heap.push_back(GenEvent{when, static_cast<std::uint32_t>(ti)});
  std::push_heap(ctx_->gen_heap.begin(), ctx_->gen_heap.end(),
                 gen_event_after);
}

void Simulator::inj_mark(std::size_t ti) {
  set_bit(ctx_->inj_pending, static_cast<std::uint32_t>(ti));
  ++inj_terms_;
}

void Simulator::inj_unmark(std::size_t ti) {
  clear_bit(ctx_->inj_pending, static_cast<std::uint32_t>(ti));
  --inj_terms_;
}

void Simulator::rebuild_gen_state() {
  const std::size_t n = ctx_->terms.size();
  ctx_->inj_pending.assign((n + 63) / 64, 0);
  ctx_->gen_due.assign(ctx_->inj_pending.size(), 0);
  ctx_->gen_heap.clear();
  inj_terms_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TerminalState& t = ctx_->terms[i];
    if (!t.queue.empty()) inj_mark(i);
    if (cfg_.idle_skip && t.next_gen != ~0ULL)
      ctx_->gen_heap.push_back(
          GenEvent{t.next_gen, static_cast<std::uint32_t>(i)});
  }
  std::make_heap(ctx_->gen_heap.begin(), ctx_->gen_heap.end(),
                 gen_event_after);
}

Cycle Simulator::next_event_cycle(Cycle limit) {
  // Anything already scheduled for this cycle pins time in place: routers
  // with buffered/pending work keep their active bit, and a non-empty
  // source queue injects a flit every cycle.
  if (last_walk_.kept != 0 || inj_terms_ != 0) return now_;
  Cycle next = limit;
  // Earliest live generation arrival (stale entries are discarded as they
  // surface, so this also garbage-collects the heap while idling).
  auto& heap = ctx_->gen_heap;
  while (!heap.empty()) {
    const GenEvent& e = heap.front();
    if (ctx_->terms[e.term].next_gen == e.when) {
      next = std::min(next, e.when);
      break;
    }
    std::pop_heap(heap.begin(), heap.end(), gen_event_after);
    heap.pop_back();
  }
  // Next fault-timeline transition.
  if (fault_sched_ != nullptr && next_fault_ < fault_sched_->steps.size())
    next = std::min(next, fault_sched_->steps[next_fault_].at);
  // First non-empty timing-wheel slot. Every in-flight event lands within
  // one wheel revolution of now (slot = cycle & mask is injective there),
  // so the scan can stop at the first occupied slot.
  const std::size_t nslots = wheel_mask_ + 1;
  for (std::size_t k = 0; k < nslots; ++k) {
    if (!ctx_->wheel[(now_ + k) & wheel_mask_].empty()) {
      next = std::min(next, now_ + k);
      break;
    }
  }
  return next < now_ ? now_ : next;
}

Cycle Simulator::try_skip_idle(Cycle limit) {
  if (!cfg_.idle_skip || limit <= now_) return now_;
  const Cycle before = now_;
  now_ = next_event_cycle(limit);
  if (now_ != before) {
    ++phases_.skips;
    phases_.cycles_skipped += now_ - before;
  }
  return now_;
}

bool Simulator::inject_packet(NodeId src, NodeId dst, int len,
                              std::uint32_t tag, std::uint32_t rail_hint) {
  const std::int32_t ti = ctx_->term_of_node[static_cast<std::size_t>(src)];
  if (ti < 0)
    throw std::invalid_argument("inject_packet: source is not a terminal");
  const int plane =
      pick_plane(static_cast<std::size_t>(ti), src, dst, rail_hint, true);
  TerminalState& t = term_at(net_.plane_twin(src, plane));
  if (static_cast<int>(t.queue.size()) >= cfg_.max_src_queue) return false;
  admit_packet(t, net_.plane_twin(dst, plane), plane, len, now_, true, tag);
  return true;
}

template <bool Sharded>
void Simulator::deliver_impl(std::uint32_t lo, std::uint32_t hi,
                             ShardScratch* ss) {
  auto& slot = ctx_->wheel[now_ & wheel_mask_];
  FlitFifoArena& fifos = net_.fifos();
  const std::size_t n = slot.size();
  constexpr std::size_t kPf = 8;  // prefetch distance (events are 16 bytes)
  // One branch-free pass splits the slot into flit and credit index lists
  // (a shard keeps only its own routers' events): the flit/credit and
  // shard tests are coin flips, so testing them per pass mispredicts.
  std::vector<std::uint32_t>& idx = Sharded ? ss->deliver_idx
                                            : ctx_->deliver_idx;
  if (idx.size() < 2 * n) idx.resize(2 * n);
  std::uint32_t* const fl = idx.data();
  std::uint32_t* const cr = idx.data() + n;
  std::size_t nf = 0;
  std::size_t nc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const WheelEvent& ev = slot[i];
    bool mine = true;
    if constexpr (Sharded)
      mine = static_cast<std::uint32_t>(ev.node) - lo < hi - lo;
    const bool flit = ev.flit.carries_packet();
    fl[nf] = cr[nc] = static_cast<std::uint32_t>(i);
    nf += mine & flit;
    nc += mine & !flit;
  }
  // Pass 1: flit arrivals.
  for (std::size_t j = 0; j < nf; ++j) {
    if (j + kPf < nf)  // vc_flat indexes the VC arrays
      __builtin_prefetch(fifos.word_addr(slot[fl[j + kPf]].vc_flat));
    const WheelEvent& ev = slot[fl[j]];
    assert(!fifos.full(ev.vc_flat) && "credit protocol violated");
    fifos.push(ev.vc_flat, ev.flit);
    if (fifos.size(ev.vc_flat) == 1) {
      const std::uint32_t meta = fifos.meta(ev.vc_flat);
      if (Network::ivc_state_of(meta) == IvcState::Idle) {
        // Fresh head: needs RC/VA.
        set_bit<Sharded>(ctx_->ivc_pending, ev.vc_flat);
        // RC will read this packet next cycle — pull its line in now.
        __builtin_prefetch(&ctx_->pool[ev.flit.pkt()]);
        mark_work(ev.node);
      } else {
        // Refilled an Active VC: its output port may have been parked on
        // an empty FIFO — wake it for SA.
        assert(Network::ivc_state_of(meta) == IvcState::Active);
        set_bit<Sharded>(ctx_->port_pending,
                         net_.out_port_index(
                             ev.node,
                             static_cast<PortIx>(Network::ivc_port_of(meta))));
        mark_work(ev.node);
      }
    }
    ctx_->ract[static_cast<std::size_t>(ev.node)] += 2;  // +1 buffered flit
    set_bit<Sharded>(ctx_->active, static_cast<std::uint32_t>(ev.node));
  }
  // Pass 2: credit returns. A credit can unblock the output port that owns
  // the VC, so wake it if it has requesters. A credit event's `vc_flat` is
  // `(pflat << kPortLaneBits) | u16-lane`; the whole port record shares one
  // cache line, so the count check is free after the credit bump.
  auto& ps = net_.port_state();
  const std::uint32_t stride = net_.port_stride();
  for (std::size_t j = 0; j < nc; ++j) {
    if (j + kPf < nc)  // vc_flat addresses a port record
      __builtin_prefetch(
          &ps[static_cast<std::size_t>(slot[cr[j + kPf]].vc_flat >>
                                       Network::kPortLaneBits) *
              stride]);
    const WheelEvent& ev = slot[cr[j]];
    const std::uint32_t pflat = ev.vc_flat >> Network::kPortLaneBits;
    std::uint32_t* rec = &ps[static_cast<std::size_t>(pflat) * stride];
    reinterpret_cast<std::uint16_t*>(rec)[ev.vc_flat & Network::kLaneMask] +=
        2;  // ++credits (bit 0 of the lane is the busy flag)
    if ((rec[0] & 0xff) != 0) {
      set_bit<Sharded>(ctx_->port_pending, pflat);
      mark_work(ev.node);
    }
    set_bit<Sharded>(ctx_->active, static_cast<std::uint32_t>(ev.node));
  }
  if constexpr (!Sharded) slot.clear();
}

void Simulator::commit_tail(PacketId pid) {
  Packet& p = ctx_->pool[pid];
  ++delivered_total_;
  ++plane_delivered_[static_cast<std::size_t>(net_.plane_of_node(p.src))];
  ++wafer_delivered_[static_cast<std::size_t>(net_.wafer_of_node(p.src))];
  if (p.measured) {
    ++delivered_measured_;
    // Tail delivery is committed at the cycle it happened (the sharded
    // commit pass runs before now_ advances), so the latency is now - t_gen
    // without a stored ejection stamp.
    const Cycle lat = now_ - p.t_gen;
    lat_sum_ += lat;
    lat_min_ = std::min(lat_min_, lat);
    lat_max_ = std::max(lat_max_, lat);
    lat_hist_.add(static_cast<double>(lat));
    for (int h = 0; h < kNumLinkTypes; ++h)
      hop_sum_[h] += static_cast<double>(p.hops[h]);
  }
  // The listener may inject (pool.acquire) — don't touch `p` after it.
  if (listener_) listener_->on_packet_delivered(p, now_);
  ctx_->pool.release(pid);
}

void Simulator::handle_eject(const Flit& f) {
  Packet& p = ctx_->pool[f.pkt()];
  ++p.flits_ejected;
  ++ejected_flits_;
  const bool in_window =
      now_ >= cfg_.warmup && now_ < cfg_.warmup + cfg_.measure;
  if (in_window) ++accepted_flits_;
  if (f.tail()) commit_tail(f.pkt());
}

void Simulator::apply_fault_steps() {
  while (next_fault_ < fault_sched_->steps.size() &&
         fault_sched_->steps[next_fault_].at <= now_)
    apply_fault_step(fault_sched_->steps[next_fault_++]);
}

void Simulator::drop_packet(PacketId pid) {
  Packet& p = ctx_->pool[pid];
  ++dropped_packets_;
  dropped_flits_ += p.len;
  // Conservation: only the not-yet-ejected flits are lost; the ejected
  // prefix was already counted into ejected_flits_.
  lost_flits_ += static_cast<std::uint64_t>(p.len) - p.flits_ejected;
  ++plane_dropped_[static_cast<std::size_t>(net_.plane_of_node(p.src))];
  ++wafer_dropped_[static_cast<std::size_t>(net_.wafer_of_node(p.src))];
  if (p.measured) ++dropped_measured_;
  // The listener may inject (pool.acquire) — don't touch `p` after it.
  if (listener_) listener_->on_packet_dropped(p, now_);
  ctx_->pool.release(pid);
}

// Applies one fault-timeline transition at a cycle boundary. The dying
// links physically stop moving flits (port-record rewrite via
// disable_channel); every packet the transition tears apart — flits in
// flight on a dying channel, buffered in a dying router, or wormholing
// across a dying link — is surgically removed from the engine (FIFOs,
// wheel, VC/arbitration state, with credits returned upstream so the flow
// control invariant survives into a later repair) and then either rescued
// (re-queued at its source with a fresh fault-aware route) or dropped
// (counted + reported to the listener). Runs serially on every engine
// path, so results stay bit-identical across shard counts.
void Simulator::apply_fault_step(const FaultStep& fs) {
  FlitFifoArena& fifos = net_.fifos();
  auto& ps = net_.port_state();
  const auto nvc = static_cast<std::uint32_t>(net_.num_vcs());
  const std::uint32_t stride = net_.port_stride();

  // --- (1) mark node deaths first, so liveness predicates below see them.
  for (const NodeId n : fs.fail_nodes) {
    net_.set_node_alive(n, false);
    const std::int32_t ti = ctx_->term_of_node[static_cast<std::size_t>(n)];
    if (ti >= 0) ctx_->terms[static_cast<std::size_t>(ti)].next_gen = ~0ULL;
  }
  std::vector<std::uint8_t> chan_dying(net_.num_channels(), 0);
  std::vector<std::uint8_t> port_dying(net_.num_out_ports(), 0);
  for (const ChanId c : fs.fail_chans) {
    chan_dying[static_cast<std::size_t>(c)] = 1;
    const Channel& ch = net_.chan(c);
    port_dying[net_.out_port_index(ch.src, ch.src_port)] = 1;
  }

  // --- (2) collect the affected packet set R.
  std::vector<std::uint8_t> affected(ctx_->pool.capacity(), 0);
  std::vector<PacketId> rlist;
  const auto add_r = [&](PacketId pid) {
    if (!affected[pid]) {
      affected[pid] = 1;
      rlist.push_back(pid);
    }
  };
  const auto dst_dead = [&](PacketId pid) {
    return !net_.node_live(ctx_->pool[pid].dst);
  };
  // 2a. in flight on a dying channel, or bound for a dead destination.
  for (const auto& slot : ctx_->wheel) {
    for (const WheelEvent& ev : slot) {
      if (!ev.flit.carries_packet()) continue;  // credits keep flowing
      const std::uint32_t p =
          (ev.vc_flat - net_.in_vc_index(ev.node, 0, 0)) / nvc;
      const ChanId c =
          net_.router(ev.node).in[static_cast<std::size_t>(p)].in_chan;
      if ((c != kInvalidChan && chan_dying[static_cast<std::size_t>(c)]) ||
          dst_dead(ev.flit.pkt()))
        add_r(ev.flit.pkt());
    }
  }
  // 2b. buffered in a dying router; owning a VC there; or torn across a
  // dying link (part of the packet already left over it).
  for (std::size_t r = 0; r < net_.num_routers(); ++r) {
    const auto rid = static_cast<NodeId>(r);
    const bool rdead = !net_.node_live(rid);
    const std::uint32_t ibase = net_.in_vc_index(rid, 0, 0);
    const std::uint32_t vend = ibase + net_.num_in_ports_of(rid) * nvc;
    const std::uint32_t pbegin = net_.out_port_index(rid, 0);
    for (std::uint32_t ix = ibase; ix < vend; ++ix) {
      const auto sz = static_cast<std::uint32_t>(fifos.size(ix));
      for (std::uint32_t k = 0; k < sz; ++k) {
        const Flit& f = fifos.at(ix, k);
        if (rdead || dst_dead(f.pkt())) add_r(f.pkt());
      }
      const std::uint32_t meta = fifos.meta(ix);
      if (Network::ivc_state_of(meta) == IvcState::Idle) continue;
      const PacketId owner = ctx_->ivc_pkt[ix];
      assert(owner != kInvalidPacket && "non-Idle VC without an owner");
      if (rdead || dst_dead(owner)) {
        add_r(owner);
        continue;
      }
      if (Network::ivc_state_of(meta) == IvcState::Active &&
          port_dying[pbegin + Network::ivc_port_of(meta)]) {
        // Untorn = the whole remaining packet is still buffered here (its
        // first flit never crossed, so the head flit is still at the
        // front); those are re-routed in place below.
        const bool untorn = !fifos.empty(ix) && fifos.front(ix).head();
        if (!untorn) add_r(owner);
      }
    }
  }
  // 2c. still queued at a now-dead source, or bound for a dead node.
  for (const TerminalState& t : ctx_->terms) {
    for (std::size_t q = 0; q < t.queue.size(); ++q) {
      const PacketId pid = t.queue.at(q);
      if (!net_.node_live(t.node) || dst_dead(pid)) add_r(pid);
    }
  }

  // --- (3) removal sweep + VC/arbitration teardown (deterministic order:
  // wheel slots ascending, then routers/ports/VCs ascending).
  for (auto& slot : ctx_->wheel) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < slot.size(); ++i) {
      const WheelEvent& ev = slot[i];
      if (!ev.flit.carries_packet() || !affected[ev.flit.pkt()]) {
        slot[w++] = slot[i];
        continue;
      }
      // Return the in-flight flit's credit to the upstream output VC so
      // the channel regains full capacity on repair.
      const std::uint32_t p =
          (ev.vc_flat - net_.in_vc_index(ev.node, 0, 0)) / nvc;
      const ChanId c =
          net_.router(ev.node).in[static_cast<std::size_t>(p)].in_chan;
      const Channel& ch = net_.chan(c);
      const std::uint32_t up = net_.out_port_index(ch.src, ch.src_port);
      std::uint32_t* rec = net_.port_rec(up);
      Network::ovc16(rec)[ev.vc_flat - rec[Network::kDstVcBase]] += 2;
      if ((rec[0] & 0xff) != 0) {
        set_bit(ctx_->port_pending, up);
        mark_work(ch.src);
        activate_router(ch.src);
      }
    }
    slot.resize(w);
  }

  const auto unlink_waiter = [&](std::uint32_t ovcflat, std::uint32_t ix) {
    std::uint32_t cur = ctx_->ovc_waiters[ovcflat];
    if (cur == ix) {
      ctx_->ovc_waiters[ovcflat] = ctx_->ivc_wait_next[ix];
      return;
    }
    while (cur != kNoWaiter) {
      const std::uint32_t nx = ctx_->ivc_wait_next[cur];
      if (nx == ix) {
        ctx_->ivc_wait_next[cur] = ctx_->ivc_wait_next[ix];
        return;
      }
      cur = nx;
    }
  };
  const auto remove_requester = [&](std::uint32_t* rec, std::uint32_t p,
                                    std::uint32_t v) {
    std::uint16_t* reqs = Network::ovc16(rec) + nvc;
    const std::uint32_t nreq = rec[0] & 0xff;
    std::uint32_t rr = (rec[0] >> 8) & 0xff;
    const auto enc = static_cast<std::uint16_t>((p << 8) | v);
    std::uint32_t k = 0;
    while (k < nreq && reqs[k] != enc) ++k;
    assert(k < nreq && "Active VC missing from its port's requesters");
    for (std::uint32_t j = k; j + 1 < nreq; ++j) reqs[j] = reqs[j + 1];
    const std::uint32_t left = nreq - 1;
    if (left == 0) {
      rec[0] &= 0xffff0000u;  // count/rr = 0, token bucket untouched
      return;
    }
    if (rr > k) --rr;
    if (rr >= left) rr = 0;
    rec[0] = (rec[0] & 0xffff0000u) | left | (rr << 8);
  };

  std::vector<Flit> keep;
  for (std::size_t r = 0; r < net_.num_routers(); ++r) {
    const auto rid = static_cast<NodeId>(r);
    const std::uint32_t ibase = net_.in_vc_index(rid, 0, 0);
    const std::uint32_t nin = net_.num_in_ports_of(rid);
    const std::uint32_t pbegin = net_.out_port_index(rid, 0);
    for (std::uint32_t p = 0; p < nin; ++p) {
      const Network::CreditReturn cr = net_.credit_return_by_port()
          [net_.in_port_index(rid, static_cast<PortIx>(p))];
      for (std::uint32_t v = 0; v < nvc; ++v) {
        const std::uint32_t ix = ibase + p * nvc + v;
        // Remove this VC's flits of affected packets, returning their
        // buffer credits upstream (none for injection ports).
        const auto sz = static_cast<std::uint32_t>(fifos.size(ix));
        bool removed_any = false;
        keep.clear();
        for (std::uint32_t k = 0; k < sz; ++k) {
          const Flit f = fifos.at(ix, k);
          if (!affected[f.pkt()]) {
            keep.push_back(f);
            continue;
          }
          removed_any = true;
          ctx_->ract[r] -= 2;  // one fewer buffered flit
          if (cr.src != kInvalidNode) {
            const std::uint32_t up = cr.credit_port();
            std::uint32_t* urec =
                &ps[static_cast<std::size_t>(up) * stride];
            Network::ovc16(urec)[v] += 2;
            if ((urec[0] & 0xff) != 0) {
              set_bit(ctx_->port_pending, up);
              mark_work(cr.src);
              activate_router(cr.src);
            }
          }
        }
        if (removed_any) {
          fifos.clear_ring(ix);
          for (const Flit& f : keep) fifos.push(ix, f);
        }
        const std::uint32_t meta = fifos.meta(ix);
        const IvcState st = Network::ivc_state_of(meta);
        if (st == IvcState::Idle) {
          // Only the pending bit can be stale: the owning head flit of a
          // waiting VC may just have been removed.
          if (removed_any && fifos.empty(ix))
            clear_bit(ctx_->ivc_pending, ix);
          continue;
        }
        const PacketId owner = ctx_->ivc_pkt[ix];
        const std::uint32_t pflat = pbegin + Network::ivc_port_of(meta);
        const std::uint32_t ovc = Network::ivc_vc_of(meta);
        const bool dying_port = port_dying[pflat] != 0;
        if (!affected[owner] && !dying_port) continue;
        // Tear down this VC's claim: it is either owned by a destroyed
        // packet, or (untorn case) must re-route away from a dying port.
        std::uint32_t* rec = net_.port_rec(pflat);
        if (st == IvcState::Active) {
          Network::ovc16(rec)[ovc] &= 0xfffe;  // release the output VC
          if (!dying_port) {
            remove_requester(rec, p, v);
            // Wake parked waiters so one of them can claim the freed VC.
            std::uint32_t wix = ctx_->ovc_waiters[pflat * nvc + ovc];
            if (wix != kNoWaiter) {
              ctx_->ovc_waiters[pflat * nvc + ovc] = kNoWaiter;
              while (wix != kNoWaiter) {
                set_bit(ctx_->ivc_pending, wix);
                const std::uint32_t nx = ctx_->ivc_wait_next[wix];
                ctx_->ivc_wait_next[wix] = kNoWaiter;
                wix = nx;
              }
              mark_work(rid);
              activate_router(rid);
            }
            if ((rec[0] & 0xff) == 0)
              clear_bit(ctx_->port_pending, pflat);
          }
        } else {  // Routed: parked on a waiter chain, or pending re-scan
          if (!dying_port) unlink_waiter(pflat * nvc + ovc, ix);
          ctx_->ivc_wait_next[ix] = kNoWaiter;
        }
        fifos.set_meta(
            ix, Network::pack_ivc(kInvalidPort, kInvalidVc, IvcState::Idle));
        ctx_->ivc_pkt[ix] = kInvalidPacket;
        if (!fifos.empty(ix)) {
          set_bit(ctx_->ivc_pending, ix);  // re-route survivors next cycle
          mark_work(rid);
          activate_router(rid);
        } else {
          clear_bit(ctx_->ivc_pending, ix);
        }
      }
    }
  }
  // Dying output ports: every requester/waiter pointing at them was reset
  // above, so zero the arbitration state and unpark them.
  for (const ChanId c : fs.fail_chans) {
    const Channel& ch = net_.chan(c);
    const std::uint32_t pflat = net_.out_port_index(ch.src, ch.src_port);
    std::uint32_t* rec = net_.port_rec(pflat);
    rec[0] &= 0xffff0000u;  // count/rr = 0 (disable_channel clears tokens)
    for (std::uint32_t v = 0; v < nvc; ++v) {
      Network::ovc16(rec)[v] &= 0xfffe;
      ctx_->ovc_waiters[pflat * nvc + v] = kNoWaiter;
    }
    clear_bit(ctx_->port_pending, pflat);
  }
  for (const NodeId n : fs.fail_nodes)
    ctx_->ract[static_cast<std::size_t>(n)] = 0;  // no flits, no work

  // --- (4) kill the links (port records stop moving flits).
  for (const ChanId c : fs.fail_chans) net_.disable_channel(c);

  // --- (5) rescue or drop the affected packets, in PacketId order.
  std::sort(rlist.begin(), rlist.end());
  const bool rescue = fault_sched_->rescue;
  for (const PacketId pid : rlist) {
    Packet& pk = ctx_->pool[pid];
    const std::int32_t ti =
        ctx_->term_of_node[static_cast<std::size_t>(pk.src)];
    assert(ti >= 0 && "packet source is not a terminal");
    TerminalState& t = ctx_->terms[static_cast<std::size_t>(ti)];
    std::ptrdiff_t pos = -1;
    for (std::size_t q = 0; q < t.queue.size(); ++q) {
      if (t.queue.at(q) == pid) {
        pos = static_cast<std::ptrdiff_t>(q);
        break;
      }
    }
    const bool can_rescue =
        rescue && net_.node_live(pk.src) && net_.node_live(pk.dst) &&
        (pos >= 0 ||
         static_cast<int>(t.queue.size()) < cfg_.max_src_queue);
    if (can_rescue) {
      // Source retransmission: reset the routing state, re-plan against
      // the updated mask, and (re)start injection from flit 0. t_gen is
      // kept, so the rescue delay shows up in the packet's latency.
      ++rescued_packets_;
      pk.target = kInvalidNode;
      pk.exit_chan = kInvalidChan;
      pk.mid_wgroup = -1;
      pk.phase = pk.next_phase = RoutePhase::SrcCGroup;
      pk.vc_class = pk.next_class = 0;
      // Conservation: the retransmission re-sends the already-ejected
      // prefix, so those flits are owed to the network a second time.
      generated_flits_ += pk.flits_ejected;
      pk.flits_ejected = 0;
      net_.routing()->init_packet(net_, pk, rng_);
      if (pos == 0) {
        t.pushed = 0;
      } else if (pos < 0) {
        t.queue.push_back(pid);
        if (t.queue.size() == 1) inj_mark(static_cast<std::size_t>(ti));
      }
    } else {
      if (pos >= 0) {
        const std::size_t qsz = t.queue.size();
        for (std::size_t q = 0; q < qsz; ++q) {
          const PacketId qp = t.queue.front();
          t.queue.pop_front();
          if (qp != pid) t.queue.push_back(qp);
        }
        if (pos == 0) t.pushed = 0;
        if (t.queue.empty()) inj_unmark(static_cast<std::size_t>(ti));
      }
      drop_packet(pid);
    }
  }

  // --- (6) repairs: restore token width, revive terminals.
  for (const NodeId n : fs.repair_nodes) {
    net_.set_node_alive(n, true);
    const std::int32_t ti = ctx_->term_of_node[static_cast<std::size_t>(n)];
    if (ti >= 0) {
      TerminalState& t = ctx_->terms[static_cast<std::size_t>(ti)];
      t.pushed = 0;
      t.inj_vc = 0;
      // Generation re-arms only on logical (plane-0) terminals; a revived
      // plane>0 twin just resumes forwarding remapped packets. The RNG is
      // not drawn for twins, matching the init()-time convention.
      if (per_node_pkt_rate_ > 0.0 && net_.plane_of_node(n) == 0) {
        const auto skip = rng_.geometric_skip(per_node_pkt_rate_);
        t.next_gen = advance_next_gen(now_, skip);
        if (cfg_.idle_skip && t.next_gen != ~0ULL)
          gen_heap_push(t.next_gen, static_cast<std::size_t>(ti));
      } else {
        t.next_gen = ~0ULL;
      }
    }
  }
  for (const ChanId c : fs.repair_chans) net_.enable_channel(c, now_);

  net_.bump_fault_epoch();
}

template <bool Sharded>
void Simulator::process_router_impl(NodeId rid, ShardScratch* ss) {
  (void)ss;  // unused by the serial instantiation
  // True when this call leaves any pending bit set for this router (so the
  // work flag must stay armed for next cycle).
  bool leftover = false;
  const auto nvc = static_cast<std::uint32_t>(net_.num_vcs());
  FlitFifoArena& fifos = net_.fifos();
  const std::uint32_t ibase = net_.in_vc_index(rid, 0, 0);
  const std::uint32_t pbegin = net_.out_port_index(rid, 0);

  // --- RC + VA over pending input VCs (non-empty, not yet Active) ---
  // The bitmask scan visits VCs in ascending (port, vc) order — exactly the
  // order of a full nested scan — so VA arbitration is unchanged.
  const std::uint32_t vend = ibase + net_.num_in_ports_of(rid) * nvc;
  if (vend > ibase) {
    for (std::uint32_t w = ibase >> 6; w <= (vend - 1) >> 6; ++w) {
      std::uint64_t bits =
          masked_word<Sharded>(ctx_->ivc_pending, w, ibase, vend);
      while (bits) {
        const std::uint32_t ix =
            (w << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        assert(!fifos.empty(ix));
        const std::uint32_t pi = (ix - ibase) / nvc;
        const std::uint32_t vi = (ix - ibase) % nvc;
        std::uint32_t meta = fifos.meta(ix);
        if (Network::ivc_state_of(meta) == IvcState::Idle) {
          const Flit& f = fifos.front(ix);
          assert(f.head() && "non-head flit at idle VC");
          Packet& pkt = ctx_->pool[f.pkt()];
          const RouteDecision d = net_.routing()->route(
              net_, rid, static_cast<PortIx>(pi), pkt);
          assert(d.out_port >= 0 &&
                 d.out_port < static_cast<PortIx>(net_.num_out_ports_of(rid)));
          assert(d.out_vc >= 0 && d.out_vc < static_cast<VcIx>(nvc));
          meta = Network::pack_ivc(d.out_port, d.out_vc, IvcState::Routed);
          fifos.set_meta(ix, meta);
          ctx_->ivc_pkt[ix] = f.pkt();  // VC ownership, for the fault sweep
        }
        // Routed: try VA (claim the chosen output VC).
        const std::uint32_t pflat = pbegin + Network::ivc_port_of(meta);
        std::uint32_t* rec = net_.port_rec(pflat);
        std::uint16_t& ow = Network::ovc16(rec)[Network::ivc_vc_of(meta)];
        if (!(ow & 1)) {
          ow |= 1;  // busy
          // Always wake the port: a parked (stalled) port may be grantable
          // through this new requester even while the others are blocked.
          set_bit<Sharded>(ctx_->port_pending, pflat);
          std::uint16_t* reqs = Network::ovc16(rec) + nvc;
          reqs[rec[0] & 0xff] = static_cast<std::uint16_t>((pi << 8) | vi);
          ++rec[0];  // ++count (u8, max nvc requesters — never carries)
          fifos.set_meta(ix, (meta & ~0xffu) |
                                 static_cast<std::uint32_t>(IvcState::Active));
          clear_bit<Sharded>(ctx_->ivc_pending, ix);
        } else {
          // Busy: park on the output VC's waiter chain instead of
          // re-polling every cycle. The tail flit that frees the VC
          // re-arms the pending bit, and the next cycle's ascending scan
          // retries — the first cycle a poll loop could have succeeded.
          const std::uint32_t ovcflat =
              pflat * nvc + Network::ivc_vc_of(meta);
          ctx_->ivc_wait_next[ix] = ctx_->ovc_waiters[ovcflat];
          ctx_->ovc_waiters[ovcflat] = ix;
          clear_bit<Sharded>(ctx_->ivc_pending, ix);
        }
      }
    }
  }

  // --- SA + ST over output ports with requesters ---
  const std::uint32_t pend = pbegin + net_.num_out_ports_of(rid);
  for (std::uint32_t w = pbegin >> 6;
       pend > pbegin && w <= (pend - 1) >> 6; ++w) {
    std::uint64_t pbits =
        masked_word<Sharded>(ctx_->port_pending, w, pbegin, pend);
    while (pbits) {
      const std::uint32_t pflat =
          (w << 6) + static_cast<std::uint32_t>(std::countr_zero(pbits));
      pbits &= pbits - 1;
      bool port_left = true;  // bit still set when the grant loop ends?
      std::uint32_t* rec = net_.port_rec(pflat);
      std::uint16_t* ov = Network::ovc16(rec);
      std::uint16_t* reqs = ov + nvc;
      assert((rec[0] & 0xff) > 0);
      const std::uint32_t link_meta = rec[Network::kLinkMeta];
      const auto dst = static_cast<NodeId>(rec[Network::kDstNode]);
      const bool is_eject = (dst == kInvalidNode);
      int budget = 1;  // ejection: one flit per cycle per node
      if (!is_eject) {
        // Token-bucket refresh, on the bucket half of word 0.
        const std::uint32_t wnum = (link_meta >> 16) & 0xff;
        const std::uint32_t wden = link_meta >> 24;
        const auto now32 = static_cast<std::uint32_t>(now_);
        const std::uint32_t elapsed = now32 - rec[Network::kTokenCycle];
        if (elapsed > 0) {
          const std::uint64_t add =
              static_cast<std::uint64_t>(elapsed) * wnum + (rec[0] >> 16);
          const std::uint32_t cap = wnum + wden;
          rec[0] = (rec[0] & 0xffffu) |
                   (static_cast<std::uint32_t>(add > cap ? cap : add) << 16);
          rec[Network::kTokenCycle] = now32;
        }
        budget = static_cast<int>((rec[0] >> 16) / (link_meta >> 24));
      }
      for (int grant = 0; grant < budget; ++grant) {
        const std::uint32_t nreq = rec[0] & 0xff;
        const std::uint32_t rr = (rec[0] >> 8) & 0xff;
        std::uint32_t chosen = nreq;
        std::uint32_t ix = 0;
        std::uint32_t out_vc = 0;
        for (std::uint32_t k = 0; k < nreq; ++k) {
          std::uint32_t idx = rr + k;
          if (idx >= nreq) idx -= nreq;  // rr < nreq, so one wrap suffices
          const std::uint16_t enc = reqs[idx];
          const std::uint32_t cand =
              ibase + static_cast<std::uint32_t>(enc >> 8) * nvc +
              static_cast<std::uint32_t>(enc & 0xff);
          if (fifos.empty(cand)) continue;
          const std::uint32_t cand_vc = Network::ivc_vc_of(fifos.meta(cand));
          if (!is_eject && (ov[cand_vc] >> 1) == 0) continue;
          chosen = idx;
          ix = cand;
          out_vc = cand_vc;
          // The grant below needs this requester's credit-return entry.
          __builtin_prefetch(
              &net_.credit_return_by_port()[net_.in_port_index(rid, 0) +
                                            (enc >> 8)]);
          break;
        }
        if (chosen == nreq) {
          // Fruitless scan: nothing observable happened, so the port can be
          // parked until an event (credit return, FIFO refill, new
          // requester) makes a grant possible again. Sub-flit/cycle
          // channels (width < 1) stay live: time alone refills their
          // token bucket.
          if (is_eject || ((link_meta >> 16) & 0xff) >= (link_meta >> 24)) {
            clear_bit<Sharded>(ctx_->port_pending, pflat);
            port_left = false;
          }
          break;
        }
        const std::uint16_t enc = reqs[chosen];
        const std::uint32_t pi = enc >> 8;
        const std::uint32_t vi = enc & 0xff;

        const Flit f = fifos.pop(ix);
        ctx_->ract[static_cast<std::size_t>(rid)] -= 2;  // --buffered
        const Network::CreditReturn cr =
            net_.credit_return_by_port()[net_.in_port_index(rid, 0) + pi];
        if (cr.src != kInvalidNode) {
          // A default Flit (no packet) marks a credit event; vc_flat is
          // the upstream port's u16 credit lane (see kPortLaneBits).
          const auto slot =
              static_cast<std::uint32_t>((now_ + cr.latency()) & wheel_mask_);
          const WheelEvent ev{
              (cr.credit_port() << Network::kPortLaneBits) |
                  (Network::kOvcLane0 + vi),
              cr.src, Flit{}};
          if constexpr (Sharded)
            ss->events.push_back(PendingEvent{slot, ev});
          else
            ctx_->wheel[slot].push_back(ev);
        }
        if (is_eject) {
          if constexpr (Sharded) {
            // Packet-local and order-insensitive parts happen here; the
            // order-sensitive rest (listener, pool release) is deferred so
            // the commit pass replays it in router order.
            Packet& p = ctx_->pool[f.pkt()];
            ++p.flits_ejected;
            ++ss->ejected_flits;
            if (now_ >= cfg_.warmup && now_ < cfg_.warmup + cfg_.measure)
              ++ss->accepted_flits;
            if (f.tail()) ss->tails.push_back(f.pkt());
          } else {
            handle_eject(f);
          }
        } else {
          if constexpr (Sharded)
            ++ss->flit_hops;
          else
            ++flit_hops_;
          ov[out_vc] -= 2;                     // --credits
          rec[0] -= (link_meta >> 24) << 16;   // consume width_den tokens
          if (f.head()) {
            Packet& pkt = ctx_->pool[f.pkt()];
            ++pkt.hops[static_cast<int>((link_meta >> 8) & 0xff)];
          }
          const auto slot = static_cast<std::uint32_t>(
              (now_ + (link_meta & 0xff)) & wheel_mask_);
          const WheelEvent ev{rec[Network::kDstVcBase] + out_vc, dst, f};
          if constexpr (Sharded)
            ss->events.push_back(PendingEvent{slot, ev});
          else
            ctx_->wheel[slot].push_back(ev);
        }
        if (f.tail()) {
          ov[out_vc] &= 0xfffe;  // release the output VC
          // Wake every VC parked on this output VC (see the VA else-branch).
          std::uint32_t wix = ctx_->ovc_waiters[pflat * nvc + out_vc];
          if (wix != kNoWaiter) {
            ctx_->ovc_waiters[pflat * nvc + out_vc] = kNoWaiter;
            leftover = true;
            do {
              set_bit<Sharded>(ctx_->ivc_pending, wix);
              const std::uint32_t nx = ctx_->ivc_wait_next[wix];
              ctx_->ivc_wait_next[wix] = kNoWaiter;
              wix = nx;
            } while (wix != kNoWaiter);
          }
          fifos.set_meta(
              ix, Network::pack_ivc(kInvalidPort, kInvalidVc, IvcState::Idle));
          ctx_->ivc_pkt[ix] = kInvalidPacket;
          if (!fifos.empty(ix)) {
            set_bit<Sharded>(ctx_->ivc_pending, ix);  // next head is waiting
            __builtin_prefetch(&ctx_->pool[fifos.front(ix).pkt()]);  // RC
            leftover = true;
          }
          const std::uint32_t left = nreq - 1;
          for (std::uint32_t k = chosen; k < left; ++k)
            reqs[k] = reqs[k + 1];
          if (left > 0) {
            rec[0] = (rec[0] & 0xffff0000u) | left |
                     ((chosen == left ? 0 : chosen) << 8);
          } else {
            rec[0] &= 0xffff0000u;
            clear_bit<Sharded>(ctx_->port_pending, pflat);
            port_left = false;
            break;  // no requesters left for the remaining budget
          }
        } else {
          const std::uint32_t nrr = chosen + 1 == nreq ? 0 : chosen + 1;
          rec[0] = (rec[0] & 0xffff0000u) | nreq | (nrr << 8);
        }
      }
      if (port_left && (rec[0] & 0xff) != 0) leftover = true;
    }
  }
  if (!leftover) ctx_->ract[static_cast<std::size_t>(rid)] &= ~1u;
}

template <bool Sharded>
void Simulator::prefetch_sa_candidates(std::uint32_t rid) {
  if (!(ctx_->ract[rid] & 1)) return;  // no pipeline work: nothing to fetch
  const auto r = static_cast<NodeId>(rid);
  const FlitFifoArena& fifos = net_.fifos();
  const auto nvc = static_cast<std::uint32_t>(net_.num_vcs());
  const std::uint32_t ibase = net_.in_vc_index(r, 0, 0);
  const std::uint32_t pb = net_.out_port_index(r, 0);
  const std::uint32_t pend = pb + net_.num_out_ports_of(r);
  int left = 12;  // cap: don't flood the load/fill buffers
  for (std::uint32_t w = pb >> 6; pend > pb && w <= (pend - 1) >> 6; ++w) {
    std::uint64_t bits =
        masked_word<Sharded>(ctx_->port_pending, w, pb, pend);
    while (bits && left > 0) {
      const std::uint32_t pflat =
          (w << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const std::uint32_t* rec = net_.port_rec(pflat);
      const std::uint16_t* reqs = Network::ovc16(rec) + nvc;
      const std::uint32_t nreq = rec[0] & 0xff;
      for (std::uint32_t k = 0; k < nreq && left > 0; ++k, --left)
        __builtin_prefetch(fifos.word_addr(
            ibase + (static_cast<std::uint32_t>(reqs[k]) >> 8) * nvc +
            (reqs[k] & 0xffu)));
    }
  }
}

template <bool Sharded>
WalkCount Simulator::walk_impl(std::uint32_t lo, std::uint32_t hi,
                               ShardScratch* ss) {
  // Within a cycle routers interact only through the timing wheel, so the
  // walk itself sets no bit but the keep-alive of the router it just ran,
  // and the bits of words it has not reached yet are stable.
  WalkCount count;
  const std::uint32_t wend = lo < hi ? ((hi - 1) >> 6) + 1 : 0;
  const auto next_word = [&](std::uint32_t w) {
    while (w < wend && masked_word<Sharded>(ctx_->active, w, lo, hi) == 0)
      ++w;
    return w;
  };
  for (std::uint32_t w = next_word(lo >> 6), wnext = 0; w < wend;
       w = wnext) {
    std::uint64_t bits =
        take_bits<Sharded>(ctx_->active, w, range_mask(w, lo, hi));
    count.walked += static_cast<std::size_t>(std::popcount(bits));
    wnext = next_word(w + 1);
    std::uint64_t kept = 0;
    while (bits) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const std::uint32_t rid = (w << 6) + static_cast<std::uint32_t>(b);
      if (deep_prefetch_) {  // the next active router's SA candidates
        if (bits)
          prefetch_sa_candidates<Sharded>(
              (w << 6) + static_cast<std::uint32_t>(std::countr_zero(bits)));
        else if (wnext < wend)
          prefetch_sa_candidates<Sharded>(
              (wnext << 6) +
              static_cast<std::uint32_t>(std::countr_zero(
                  masked_word<Sharded>(ctx_->active, wnext, lo, hi))));
      }
      // Only routers with pending RC/VA or SA work run the pipeline (the
      // work flag is a superset of the pending bits, so a skipped call
      // would have been a pure no-op).
      if (ctx_->ract[rid] & 1)
        process_router_impl<Sharded>(static_cast<NodeId>(rid), ss);
      // Keep the router active while any input VC holds flits.
      if (ctx_->ract[rid] > 1) kept |= 1ULL << b;
    }
    if (!kept) continue;
    count.kept += static_cast<std::size_t>(std::popcount(kept));
    if constexpr (Sharded)
      std::atomic_ref<std::uint64_t>(ctx_->active[w])
          .fetch_or(kept, std::memory_order_relaxed);
    else
      ctx_->active[w] |= kept;
  }
  return count;
}

void Simulator::run_team(ShardPhase phase) {
  if (!team_) {
    if (ctx_->shard_scratch.size() < static_cast<std::size_t>(shards_))
      ctx_->shard_scratch.resize(static_cast<std::size_t>(shards_));
    team_ = std::make_unique<ShardTeam>(*this, shards_);
  }
  team_->run_phase(phase);
}

void Simulator::deliver_shard(int k) {
  deliver_impl<true>(shard_bounds_[static_cast<std::size_t>(k)],
                     shard_bounds_[static_cast<std::size_t>(k) + 1],
                     &ctx_->shard_scratch[static_cast<std::size_t>(k)]);
}

void Simulator::walk_shard(int k) {
  ShardScratch& sc = ctx_->shard_scratch[static_cast<std::size_t>(k)];
  sc.events.clear();
  sc.tails.clear();
  sc.flit_hops = sc.accepted_flits = sc.ejected_flits = 0;
  sc.walk = walk_impl<true>(shard_bounds_[static_cast<std::size_t>(k)],
                            shard_bounds_[static_cast<std::size_t>(k) + 1],
                            &sc);
}

void Simulator::commit_shards() {
  // Integer tallies first, so a PacketListener fired from commit_tail()
  // below observes the cycle's full counts (the documented sharded-engine
  // observability; the sums are order-insensitive).
  last_walk_ = WalkCount{};
  for (int k = 0; k < shards_; ++k) {
    const ShardScratch& sc = ctx_->shard_scratch[static_cast<std::size_t>(k)];
    flit_hops_ += sc.flit_hops;
    accepted_flits_ += sc.accepted_flits;
    ejected_flits_ += sc.ejected_flits;
    last_walk_.walked += sc.walk.walked;
    last_walk_.kept += sc.walk.kept;
  }
  // Wheel pushes and tail commits touch disjoint state, so each shard's
  // two buffers go in whole.
  for (int k = 0; k < shards_; ++k) {
    const ShardScratch& sc = ctx_->shard_scratch[static_cast<std::size_t>(k)];
    for (const PendingEvent& pe : sc.events)
      ctx_->wheel[pe.slot].push_back(pe.ev);
    for (const PacketId pid : sc.tails) commit_tail(pid);
  }
}

// One cycle. The engine's one intra-cycle order is ascending router id,
// and a parallel cycle differs from a serial one only in *where* the
// delivery and router phases run, never in what they do:
//
//   1. Delivery. Each shard drains the slot's events addressed to its own
//      routers, flits then credits (their state is shard-local; shared
//      boundary words of the pending and active bitmaps take atomic bit
//      ops). Setting a bit is idempotent, so the active set does not
//      depend on who delivered first.
//   2. Generation stays serial, after delivery: the RNG stream, injection
//      decisions and (adaptive) injection-time credit reads observe the
//      identical engine state.
//   3. Router walk. Every shard walks the active bits of its own
//      contiguous router range in ascending id. Per-router work is
//      shard-local (routing reads only immutable topology, the packet, and
//      the router's own SoA slices); the only cross-router effects — wheel
//      pushes and tail deliveries — are buffered per shard, and keep-alive
//      bits go straight back into the bitmap.
//   4. Commit. The driving thread appends shard 0's buffered events and
//      tails, then shard 1's, and so on: shards own ascending id ranges, so
//      this concatenation is the serial walk's wheel-slot event order,
//      listener-callback order and packet-pool free-list order.
//
// Hence fixed-seed results (and checkpoints) are bit-identical for every
// shard count and for every gate decision.
void Simulator::step() {
  PhaseClock clock(cfg_.phase_timers);
  // Fault timeline transitions happen at the cycle boundary, before any
  // engine phase — and always serially, so every shard count observes the
  // identical post-event state.
  if (fault_sched_ != nullptr && next_fault_ < fault_sched_->steps.size() &&
      fault_sched_->steps[next_fault_].at <= now_) {
    apply_fault_steps();
    clock.lap(phases_.fault_s);
  }
  if (parallel_ && !ctx_->wheel[now_ & wheel_mask_].empty()) {
    run_team(&Simulator::deliver_shard);
    ctx_->wheel[now_ & wheel_mask_].clear();
  } else {
    deliver_impl<false>(0, 0, nullptr);
  }
  clock.lap(phases_.deliver_s);
  generate_and_inject();
  clock.lap(phases_.generate_s);

  if (parallel_) {
    ++phases_.parallel_cycles;
    run_team(&Simulator::walk_shard);
    clock.lap(phases_.walk_s);
    commit_shards();
    clock.lap(phases_.commit_s);
  } else {
    ++phases_.serial_cycles;
    last_walk_ = walk_impl<false>(
        0, static_cast<std::uint32_t>(net_.num_routers()), nullptr);
    clock.lap(phases_.walk_s);
  }
  phases_.routers_walked += last_walk_.walked;
  parallel_ = shards_ > 1 && last_walk_.walked >= gate_;
  ++now_;
}

SimResult Simulator::run() {
  const Cycle horizon = cfg_.warmup + cfg_.measure;
  // Skipped cycles are provably no-ops (see try_skip_idle), so a skipping
  // run reaches the horizon with bit-identical state and the same now_.
  while (now_ < horizon) {
    if (cfg_.idle_skip) {
      try_skip_idle(horizon);
      if (now_ >= horizon) break;
    }
    step();
  }
  // Drain: let measured packets land (background traffic keeps flowing).
  // Fault-dropped measured packets are accounted as terminal, so a lossy
  // timeline never spins the drain loop waiting for packets that no
  // longer exist.
  Cycle drained_cycles = 0;
  while (drained_cycles < cfg_.drain &&
         delivered_measured_ + dropped_measured_ < generated_measured_) {
    if (cfg_.idle_skip) {
      // Idle stretches count against the drain budget exactly as if they
      // had been stepped through one cycle at a time.
      const Cycle before = now_;
      try_skip_idle(before + (cfg_.drain - drained_cycles));
      drained_cycles += now_ - before;
      if (drained_cycles >= cfg_.drain) break;
    }
    step();
    ++drained_cycles;
  }

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
  for (TerminalState& t : c.terms) {
    io.pod(t.next_gen);
    t.queue.checkpoint(io);
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
  for (auto& slot : c.wheel) io.vec(slot);
  io.fixed(c.ivc_pending, "VC pending mask");
  io.fixed(c.port_pending, "port pending mask");
  io.fixed(c.ovc_waiters, "VC waiter head");
  io.fixed(c.ivc_wait_next, "VC waiter link");
  io.fixed(c.ivc_pkt, "VC packet");

  net_.checkpoint(io);
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
