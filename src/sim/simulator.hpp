// The cycle-driven simulation engine: traffic generation, injection,
// channel delivery, router pipeline (RC/VA/SA/ST), ejection, measurement.
//
// Methodology follows the paper's Table IV defaults: 4-flit packets,
// 32-flit per-VC input buffers, 1 flit/cycle base links, 1-cycle short-reach
// and 8-cycle long-reach delays, 5000 warmup + 10000 measured cycles.
//
// Hot-path layout: all per-VC state lives in the Network's flat arrays
// (see network.hpp); in-flight flits and credits share one timing-wheel
// event record; and every growable container the engine touches per cycle
// (wheel slots, source queues, packet pool) lives in a SimContext that can
// be reused across runs, so steady-state simulation performs no heap
// allocation.
#pragma once

#include <iosfwd>
#include <memory>
#include <vector>

#include "common/ring.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "sim/network.hpp"

namespace sldf::sim {

/// Supplies a destination node for each generated packet.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;
  /// Returns the destination *node* for a packet injected at `src`, or
  /// kInvalidNode to suppress generation at this source this time.
  virtual NodeId dest(const Network& net, NodeId src, Rng& rng) = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Packet-completion hook for closed-loop (message-level) traffic. The
/// callback fires when the tail flit of a packet is consumed at its
/// destination, before the packet returns to the pool — `p` is only valid
/// for the duration of the call. Callbacks fire in deterministic engine
/// order (ejection processing order within the cycle).
class PacketListener {
 public:
  virtual ~PacketListener() = default;
  virtual void on_packet_delivered(const Packet& p, Cycle now) = 0;
  /// Fires when a fault event destroys a packet that cannot (or may not)
  /// be rescued: dead source/destination, rescue disabled, or a full
  /// source queue. `p` is only valid for the duration of the call. The
  /// default is a no-op so open-loop listeners stay oblivious.
  virtual void on_packet_dropped(const Packet& p, Cycle now) {
    (void)p;
    (void)now;
  }
};

struct SimConfig {
  double inj_rate_per_chip = 0.1;  ///< Offered load, flits/cycle/chip.
  int pkt_len = 4;                 ///< Flits per packet (Table IV).
  Cycle warmup = 5000;
  Cycle measure = 10000;
  Cycle drain = 5000;          ///< Extra cycles to let measured packets land.
  std::uint64_t seed = 1;
  int max_src_queue = 256;     ///< Per-node source-queue cap (packets).
  /// Event-driven fast paths: generation driven by a `next_gen` min-heap
  /// (instead of a full terminal scan every cycle) and idle-cycle elision
  /// (run()/try_skip_idle() jump over provably empty cycles). Results are
  /// bit-identical either way — the switch exists so tests can A/B the
  /// fast paths against the reference cycle-by-cycle scan engine.
  bool idle_skip = true;
  /// Intra-simulation engine shards: N > 1 partitions one network's routers
  /// into N chip-aligned shards (Network::shard_bounds) processed by N
  /// threads every cycle; 1 runs the serial engine; 0 = auto: the
  /// `SLDF_SHARDS` environment variable (every cycle parallel, like an
  /// explicit N), else the usable cores behind a per-cycle work gate — a
  /// cycle runs on the shard team only when the cycle before it walked at
  /// least kShardGateRouters routers, so small fabrics never start a
  /// thread (see resolve_shards()). Fixed-seed SimResults are
  /// bit-identical across every shard count; see docs/ARCHITECTURE.md,
  /// "Threading & determinism model".
  int shards = 0;
  /// Accumulate host time per engine phase into SimResult::phases (a few
  /// clock reads per cycle). Changes no simulation counter.
  bool phase_timers = false;
};

/// Where one run's engine time went. The cycle counts are always kept; the
/// `*_s` host-time fields only with SimConfig::phase_timers. Telemetry, not
/// simulation output: the parallel/serial split depends on the shard count
/// and the times on the host, so equality checks and result digests leave
/// this struct out.
struct EnginePhases {
  double fault_s = 0.0;     ///< Fault-timeline steps.
  double deliver_s = 0.0;   ///< Timing-wheel delivery (parallel or serial).
  double generate_s = 0.0;  ///< Generation + injection (always serial).
  double walk_s = 0.0;      ///< Router pipeline over the active set.
  /// Driving-thread-only work of a parallel cycle: the commit that appends
  /// the shards' buffered wheel events and tails in shard order.
  double commit_s = 0.0;
  std::uint64_t parallel_cycles = 0;  ///< Walks run on the shard team.
  std::uint64_t serial_cycles = 0;    ///< Walks run by the driving thread.
  std::uint64_t routers_walked = 0;   ///< Active-set sizes, summed.
  std::uint64_t skips = 0;            ///< Idle-elision jumps.
  std::uint64_t cycles_skipped = 0;   ///< Cycles those jumps covered.
  /// The walk ran its lookahead prefetch (deep_prefetch_pays()).
  bool deep_prefetch = false;
};

struct SimResult {
  double offered = 0.0;        ///< Configured rate (flits/cycle/chip).
  double accepted = 0.0;       ///< Ejected flits/cycle/chip in the window.
  double avg_latency = 0.0;    ///< Generation -> tail ejection, cycles.
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double min_latency = 0.0;
  double max_latency = 0.0;
  std::uint64_t generated_measured = 0;
  std::uint64_t delivered_measured = 0;
  std::uint64_t delivered_total = 0;
  std::uint64_t suppressed = 0;  ///< Packets dropped by the source-queue cap.
  bool drained = false;          ///< All measured packets delivered by the end.
  double avg_hops[kNumLinkTypes] = {};  ///< Per delivered measured packet.
  double avg_hops_total = 0.0;
  Cycle cycles_run = 0;
  /// Flits forwarded onto channels over the whole run (excludes ejection):
  /// the engine-throughput numerator of `sldf`'s `totals` line.
  std::uint64_t flit_hops = 0;
  // --- online-resilience accounting (fault event timelines only) ---
  std::uint64_t dropped_packets = 0;  ///< Destroyed by fault events, unrescued.
  std::uint64_t dropped_flits = 0;    ///< Flits those packets carried.
  std::uint64_t rescued_packets = 0;  ///< Re-queued at their source instead.
  // --- conservation ledger (tests/test_fixtures.hpp audits it) ---
  // Invariants at any cycle boundary, so at the end of a run:
  //   generated_packets == delivered_total + dropped_packets
  //                        + inflight_packets
  //   generated_flits   == ejected_flits + lost_flits + inflight_flits
  // (a rescue re-credits the already-ejected flits it retransmits into
  // generated_flits, so the flit ledger stays balanced).
  std::uint64_t generated_packets = 0;  ///< Pool acquisitions (all traffic).
  std::uint64_t inflight_packets = 0;   ///< Live pool packets at run end.
  std::uint64_t generated_flits = 0;    ///< Flits owed to the network.
  std::uint64_t ejected_flits = 0;      ///< Flits consumed at destinations.
  std::uint64_t lost_flits = 0;         ///< Unejected flits of dropped pkts.
  std::uint64_t inflight_flits = 0;     ///< Unejected flits of live pkts.
  // --- per-plane accounting (size num_planes(); one entry single-plane) ---
  std::vector<std::uint64_t> plane_generated;
  std::vector<std::uint64_t> plane_delivered;
  std::vector<std::uint64_t> plane_dropped;
  std::vector<std::uint64_t> plane_inflight;
  // --- per-wafer accounting (size num_wafers(); one entry single-wafer).
  // Packets are attributed to their SOURCE wafer, like the plane split, so
  // summing any vector over wafers reproduces the global counter. ---
  std::vector<std::uint64_t> wafer_generated;
  std::vector<std::uint64_t> wafer_delivered;
  std::vector<std::uint64_t> wafer_dropped;
  std::vector<std::uint64_t> wafer_inflight;
  /// Engine telemetry, excluded from result equality (see EnginePhases).
  EnginePhases phases;
};

/// One timing-wheel record: a flit arriving at an input VC, or (when
/// `!flit.carries_packet()`) a credit returning to an output VC. For flit
/// arrivals `vc_flat` is the destination input VC's flat index; for
/// credits it is `(upstream pflat << kPortLaneBits) | u16 credit lane`.
/// `node` is the router to activate.
struct WheelEvent {
  std::uint32_t vc_flat = 0;
  NodeId node = kInvalidNode;
  Flit flit;
};

struct TerminalState {
  NodeId node = kInvalidNode;
  Cycle next_gen = 0;
  RingQueue<PacketId> queue;  ///< Packets waiting to enter the network.
  std::uint32_t inj_base = 0;  ///< Flat index of the injection port's VC 0.
  VcIx inj_vc = 0;            ///< VC fifo the current head packet uses.
  std::uint16_t pushed = 0;   ///< Flits of the head packet already pushed.
};

/// Advances a terminal generation clock: the arrival after `when` with
/// `skip` failure cycles in between is `when + 1 + skip`, saturating at
/// ~0ULL ("never") when that sum would wrap. The guard threshold is
/// deliberately conservative by one (`skip == ~0ULL - when - 1`, whose sum
/// would be exactly ~0ULL, already saturates) so that the sentinel value
/// can never be produced by a legitimate arrival time.
constexpr Cycle advance_next_gen(Cycle when, std::uint64_t skip) {
  return (skip >= ~0ULL - when - 1) ? ~0ULL : when + 1 + skip;
}

/// One pending generation arrival in SimContext::gen_heap: terminal
/// `term`'s clock fires at cycle `when`. Entries are lazily invalidated —
/// an entry is live only while `terms[term].next_gen == when` still holds
/// (fault deaths and re-arms leave stale entries to be discarded on pop).
struct GenEvent {
  Cycle when = 0;
  std::uint32_t term = 0;
};

/// One wheel event whose commit the sharded engine deferred to the serial
/// commit pass, tagged with its target slot (already cycle-masked).
struct PendingEvent {
  std::uint32_t slot = 0;
  WheelEvent ev;
};

/// Routers one walk visited, and how many of them it left active for the
/// next cycle.
struct WalkCount {
  std::size_t walked = 0;
  std::size_t kept = 0;
};

/// Per-shard scratch (sharded engine only). Cache-line aligned so shards
/// never false-share their counters; all vectors keep their high-water
/// capacities across cycles and runs.
struct alignas(64) ShardScratch {
  std::vector<std::uint32_t> deliver_idx;  ///< Delivery split scratch.
  std::vector<PendingEvent> events;  ///< Deferred wheel pushes, in order.
  std::vector<PacketId> tails;       ///< Delivered tail packets, in order.
  std::uint64_t flit_hops = 0;       ///< Order-insensitive counters, summed
  std::uint64_t accepted_flits = 0;  ///< into the globals at commit.
  std::uint64_t ejected_flits = 0;   ///< Same (conservation ledger).
  WalkCount walk;                    ///< This shard's part of the walk.
};

/// Reusable engine storage. A context handed to consecutive runs (e.g. the
/// points of a sweep) keeps its high-water-mark capacities, so later runs
/// allocate nothing. A default-constructed context works for any network;
/// the Simulator (re)sizes it on construction.
struct SimContext {
  PacketPool pool;
  std::vector<TerminalState> terms;
  /// One bit per router: walk it this cycle. Delivery, injection and fault
  /// steps set bits; the walk takes them in ascending router id (the
  /// engine's one intra-cycle order) and sets them again for routers that
  /// still buffer flits.
  std::vector<std::uint64_t> active;
  /// Per router, one word: buffered-flit count << 1 | has-pending-work
  /// flag (bit 0). The work flag is a superset of "any pending bit set for
  /// this router": events set it, process_router() clears it when it
  /// leaves no pending bits behind.
  std::vector<std::uint32_t> ract;
  std::vector<std::vector<WheelEvent>> wheel;  ///< Timing-wheel slots.
  /// Serial delivery scratch: the slot's flit and credit event indices.
  std::vector<std::uint32_t> deliver_idx;
  /// One bit per input VC: non-empty and not yet Active, i.e. needs RC/VA.
  /// Scanned in ascending index order, so arbitration matches a full scan.
  std::vector<std::uint64_t> ivc_pending;
  /// One bit per output port: `requesters` non-empty, i.e. SA has work.
  std::vector<std::uint64_t> port_pending;
  /// VA waiter chains: a Routed input VC blocked on a busy output VC parks
  /// here instead of re-polling every cycle. ovc_waiters[out-VC] heads an
  /// intrusive list linked through ivc_wait_next[input-VC]; the tail flit
  /// releasing the VC re-arms every waiter's pending bit, which the next
  /// cycle scans in ascending order — exactly when and how a poll loop
  /// would have succeeded. kNoWaiter marks an empty link.
  std::vector<std::uint32_t> ovc_waiters;
  std::vector<std::uint32_t> ivc_wait_next;
  /// Packet owning each non-Idle input VC (kInvalidPacket otherwise).
  /// Written at RC, cleared when the tail flit pops. The fault sweep uses
  /// it to identify the packet behind an Active VC whose FIFO has drained
  /// (its flits are in flight downstream), and checkpoints carry it.
  std::vector<PacketId> ivc_pkt;
  /// Node -> index into `terms` (-1 for non-terminal nodes); the lookup
  /// behind the closed-loop inject_packet() path.
  std::vector<std::int32_t> term_of_node;
  // ---- event-driven generation (SimConfig::idle_skip only) ----
  /// Min-heap (std::push_heap/pop_heap, earliest `when` first) of pending
  /// generation arrivals, lazily invalidated (see GenEvent). Derived state:
  /// never checkpointed, rebuilt from `terms` on restore.
  std::vector<GenEvent> gen_heap;
  /// One bit per terminal index: source queue non-empty (injection has
  /// work). Derived state, rebuilt on restore.
  std::vector<std::uint64_t> inj_pending;
  /// Scratch bitmask of terminals whose generation clock fires this cycle
  /// (always zero between cycles).
  std::vector<std::uint64_t> gen_due;
  // ---- sharded engine (created on the first parallel cycle) ----
  std::vector<ShardScratch> shard_scratch;  ///< One per shard.
};

inline constexpr std::uint32_t kNoWaiter = 0xffffffffu;

/// The per-cycle work gate of `shards = auto`: a cycle runs on the shard
/// team only when the cycle before it walked at least this many routers
/// (consecutive active sets are close in size). Below it a parallel
/// cycle's fixed costs (two team hand-offs, the commit, atomic bit
/// traffic) outweigh the split work. Measured on a 2-core host;
/// docs/PERFORMANCE.md has the crossover table.
inline constexpr std::size_t kShardGateRouters = 3072;

/// The router walk's working set per input VC: three 64-byte hot lines
/// (FIFO control word, output-port record, flit ring).
inline constexpr std::size_t kWalkBytesPerFifo = 192;
/// Last-level cache assumed when libc reports none (0 or -1): 32 MiB, a
/// mid-size server L3.
inline constexpr std::size_t kFallbackLlcBytes = std::size_t{32} << 20;

/// The deep-prefetch gate: true when a walk over `num_fifos` input VCs
/// (kWalkBytesPerFifo each) outsizes an LLC of `llc_bytes`, 0 meaning
/// unknown (kFallbackLlcBytes). Below that every line the walk's
/// prefetcher would fetch is already cache-resident. Simulator::init()
/// passes the host's sysconf(_SC_LEVEL3_CACHE_SIZE).
bool deep_prefetch_pays(std::size_t num_fifos, std::size_t llc_bytes);

/// Maps the shard-count convention to a concrete count >= 1: an explicit
/// `requested >= 1` is returned as-is; `requested == 0` (auto) reads the
/// `SLDF_SHARDS` environment variable (a positive integer; anything else
/// is ignored) and falls back to `cores`. The env hook lets an unmodified
/// test or tool suite be re-run entirely on the sharded engine
/// (`SLDF_SHARDS=2 ctest ...` — the CI does exactly this), which is only
/// sound because fixed-seed results are shard-count-invariant.
int resolve_shards(int requested, unsigned cores = usable_cores());

/// The cycle engine. Every cycle runs three phases in a fixed order:
///
///   1. delivery — drain the current timing-wheel slot: flit arrivals into
///      input-VC FIFOs, then credit returns to output ports.
///   2. generate_and_inject() — rate-driven packet generation (one global
///      RNG, terminals in index order) and one-flit-per-cycle injection.
///   3. router pipeline — RC/VA/SA/ST for every active router with pending
///      work, in ascending router id (exact event-driven subset of a full
///      scan).
///
/// With more than one shard, phases 1 and 3 of a parallel cycle run on a
/// shard team, each shard over its own contiguous router range, and the
/// driving thread appends the shards' buffered walk output in shard order,
/// which is ascending router id again (see step() in simulator.cpp and
/// docs/ARCHITECTURE.md, "Threading & determinism model"); phase 2 stays
/// serial. Fixed-seed results are bit-identical for every shard count, so
/// `shards` is purely a wall-clock knob.
class Simulator {
 public:
  /// Owns a private SimContext (one-shot runs, tests).
  Simulator(Network& net, const SimConfig& cfg, TrafficSource& traffic);
  /// Reuses `ctx` (sweeps); the context is reset for this run.
  Simulator(Network& net, const SimConfig& cfg, TrafficSource& traffic,
            SimContext& ctx);
  /// Joins the shard team (sharded runs only).
  ~Simulator();

  /// Runs warmup + measurement + drain and returns the aggregated result.
  SimResult run();

  /// Advances exactly one cycle (exposed for white-box tests and for
  /// closed-loop drivers, which interleave inject_packet() with step()).
  void step();
  [[nodiscard]] Cycle now() const { return now_; }

  /// Idle-cycle elision: when the active-router bitmap, the injection-pending
  /// bitmask, the terminal `next_gen` heap, the timing wheel, and the fault
  /// timeline all agree that nothing can happen before some cycle T > now,
  /// jumps simulation time directly to min(T, `limit`) and returns the new
  /// now(). Otherwise (work pending this cycle, or cfg.idle_skip is off)
  /// returns now() unchanged. The skipped cycles are provably no-ops, so a
  /// skipping run is bit-identical to a stepping run; run() calls this
  /// between step()s, and closed-loop drivers may call it with the next
  /// cycle they themselves have work at (e.g. a timed release) as `limit`.
  Cycle try_skip_idle(Cycle limit);

  // ---- closed-loop (message-level) interface ----
  /// Registers the packet-completion hook (nullptr disables it).
  void set_listener(PacketListener* listener) { listener_ = listener; }

  /// Creates a `len`-flit packet src -> dst carrying `tag` and appends it to
  /// the source terminal's queue, bypassing rate-driven generation (use
  /// inj_rate_per_chip = 0 for purely closed-loop runs). Returns false —
  /// and creates nothing — when the queue is at max_src_queue, so callers
  /// can retry next cycle; the refusal is the closed-loop backpressure
  /// signal, not an error. `src` must be a terminal node. On a multi-plane
  /// network `src`/`dst` are logical (plane-0) nodes; the packet is remapped
  /// to its selected plane's twin terminals before queueing. `rail_hint`
  /// feeds the collective-aware plane policy (callers pass a phase or rail
  /// index; ignored by the other policies and on single-plane networks).
  bool inject_packet(NodeId src, NodeId dst, int len, std::uint32_t tag,
                     std::uint32_t rail_hint = 0);

  /// Running engine counters (valid mid-run; run() also reports them).
  /// Sharded runs update them at each cycle's commit, so mid-cycle
  /// observers (PacketListener callbacks fire during the commit) see the
  /// cycle's full counts rather than the serial engine's partial ones —
  /// the one documented observability difference between the two paths.
  [[nodiscard]] std::uint64_t flit_hops() const { return flit_hops_; }
  [[nodiscard]] std::uint64_t delivered_total() const {
    return delivered_total_;
  }
  [[nodiscard]] std::uint64_t accepted_flits() const {
    return accepted_flits_;
  }
  [[nodiscard]] std::uint64_t dropped_packets() const {
    return dropped_packets_;
  }
  [[nodiscard]] std::uint64_t rescued_packets() const {
    return rescued_packets_;
  }

  // ---- checkpoint / resume ----
  /// Serializes the complete dynamic simulation state (engine counters,
  /// RNG stream, stats accumulators, context, and the network's dynamic
  /// state) at the current cycle boundary. Call between step()s — never
  /// mid-cycle. A Simulator constructed over the same network and config
  /// can restore_checkpoint() and continue bit-identically to a run that
  /// was never interrupted (including a later run()).
  void save_checkpoint(std::ostream& out) const;
  /// Inverse of save_checkpoint(). Throws std::runtime_error when the
  /// stream is truncated/corrupt or was saved against a different
  /// network/config shape.
  void restore_checkpoint(std::istream& in);

  /// Resolved shard count this engine runs with (>= 1; clamped to the
  /// network's chip count).
  [[nodiscard]] int shards() const { return shards_; }
  /// Whether the shard team's threads exist (they start lazily, on the
  /// first cycle that runs in parallel).
  [[nodiscard]] bool team_started() const { return team_ != nullptr; }
  /// Engine telemetry so far (run() also reports it in SimResult::phases).
  [[nodiscard]] const EnginePhases& phases() const { return phases_; }
  /// Test seam: overrides init()'s deep-prefetch gate, so the prefetch
  /// stays under test on fabrics that fit in cache. Call before the first
  /// step(); prefetches change no counter.
  void force_deep_prefetch(bool on) {
    deep_prefetch_ = on;
    phases_.deep_prefetch = on;
  }

 private:
  class ShardTeam;
  using ShardPhase = void (Simulator::*)(int);

  void init();
  /// Generation + injection over the terminals whose generation clock
  /// fires this cycle (gen_heap) or whose source queue is non-empty
  /// (inj_pending), in ascending terminal order — the exact subset of
  /// terminals a full scan would do anything at. Without cfg.idle_skip
  /// every terminal counts as due: the reference full scan tests A/B the
  /// event-driven subset against.
  void generate_and_inject();
  /// Generation + one-flit injection for terminal `ti`.
  void gen_and_inject_terminal(std::size_t ti);
  /// Plane for a packet logical `src` (terminal `ti`) -> `dst`:
  /// select_plane() with the twin source queues' depths as the load probe;
  /// 0 on a single-plane network.
  int pick_plane(std::size_t ti, NodeId src, NodeId dst,
                 std::uint32_t rail_hint, bool collective);
  /// The admission tail shared by generation and inject_packet(): acquires
  /// a packet from `t`'s node to `dst`, counts it, routes it (init_packet)
  /// and queues it at `t`.
  void admit_packet(TerminalState& t, NodeId dst, int plane, int len,
                    Cycle t_gen, bool measured, std::uint32_t tag);
  /// The source-queue state of terminal node `n`.
  TerminalState& term_at(NodeId n) {
    return ctx_->terms[static_cast<std::size_t>(
        ctx_->term_of_node[static_cast<std::size_t>(n)])];
  }
  /// Drains the current wheel slot: flit arrivals first, then credits.
  /// The `Sharded` instantiation delivers only the events addressed to
  /// routers [lo, hi) (shard-local state, atomic bit ops on the words it
  /// may share with a neighbour shard).
  template <bool Sharded>
  void deliver_impl(std::uint32_t lo, std::uint32_t hi, ShardScratch* ss);
  /// Cycle of the next fault-timeline step (~0 when none is left): the one
  /// due test of step() and of idle elision.
  [[nodiscard]] Cycle next_fault_at() const {
    return fault_sched_ != nullptr && next_fault_ < fault_sched_->steps.size()
               ? fault_sched_->steps[next_fault_].at
               : ~Cycle{0};
  }
  void apply_fault_step(const FaultStep& fs);
  /// Drops one fault-affected packet: counts it, reports it to the
  /// listener and frees it (see apply_fault_step).
  void drop_packet(PacketId pid);
  /// The router pipeline (RC/VA/SA/ST) for one router. `Sharded`
  /// instantiations buffer every cross-router effect (wheel pushes, tail
  /// deliveries, order-sensitive stats) into `ss` and use atomic bit ops
  /// on the pending masks (shards sharing a 64-bit boundary word);
  /// the serial instantiation is the original in-place hot path.
  template <bool Sharded>
  void process_router_impl(NodeId rid, ShardScratch* ss);
  /// The router walk over active routers [lo, hi) in ascending id: takes
  /// each active bit, runs the pipeline on routers with pending work, and
  /// sets the bit again for routers that still buffer flits. The serial
  /// engine walks [0, num_routers); a shard walks its own range.
  template <bool Sharded>
  WalkCount walk_impl(std::uint32_t lo, std::uint32_t hi, ShardScratch* ss);
  /// Prefetches the FIFO control word of every SA candidate of router
  /// `rid` (the requesters of its pending output ports): the grant loop's
  /// serial misses when the walk reaches it next. Called only under
  /// deep_prefetch_.
  template <bool Sharded>
  void prefetch_sa_candidates(std::uint32_t rid);
  // Shard-team phases of a parallel cycle: each runs concurrently for
  // every shard `k` and touches only shard `k`'s routers and scratch.
  void deliver_shard(int k);
  void walk_shard(int k);
  /// Runs `phase` on every shard (starting the team on first use) and
  /// returns when all are done.
  void run_team(ShardPhase phase);
  /// Driving-thread commit after the walk: the shards' counters, then each
  /// shard's buffered wheel events and tail commits, shard after shard.
  /// Shards own ascending router ranges, so this is the serial order.
  void commit_shards();
  /// Commit + stats for one delivered tail packet (the serial pipeline's
  /// ejection and the sharded commit pass).
  void commit_tail(PacketId pid);

  /// Marks `id` as having pending RC/VA or SA work (call alongside any
  /// pending-bit set from outside process_router()).
  void mark_work(NodeId id) {
    ctx_->ract[static_cast<std::size_t>(id)] |= 1;
  }
  /// mark_work() + activate: the walk runs `id`'s pipeline this cycle.
  void wake_router(NodeId id) {
    mark_work(id);
    const auto i = static_cast<std::size_t>(id);
    ctx_->active[i >> 6] |= 1ULL << (i & 63);
  }

  // ---- engine state transitions (sim/transitions.hpp) ----
  // Defined once; the pipeline and the fault step both call them. `Atomic`
  // instantiations serve the shard phases (see set_bit).
  /// Buffers flit `f` in input VC `ix` of router `node` (delivery or
  /// injection): arms RC/VA for a fresh head at an Idle VC, SA for a
  /// refilled Active one, counts the flit and activates `node`.
  template <bool Atomic>
  void push_flit(std::uint32_t ix, NodeId node, Flit f);
  /// One credit back on u16 lane `lane` of output port `pflat` (router
  /// `node`'s); wakes SA and returns true when the port has requesters.
  template <bool Atomic>
  bool return_credit(std::uint32_t pflat, std::uint32_t lane, NodeId node);
  /// Re-arms every input VC parked on output VC `ovcflat`; false if none.
  template <bool Atomic>
  bool wake_waiters(std::uint32_t ovcflat);
  /// Returns input VC `ix` to Idle with no owner; true (pending bit armed)
  /// when the next packet's head is already buffered.
  template <bool Atomic>
  bool release_ivc(std::uint32_t ix);
  /// Frees output VC `vc` of port record `rec` (clears its busy bit).
  static void release_ovc(std::uint32_t* rec, std::uint32_t vc);
  /// Removes SA requester `k` of port record `rec`, sets the round-robin
  /// cursor to `rr` (0 when past the end) and returns the requesters left.
  std::uint32_t drop_requester(std::uint32_t* rec, std::uint32_t k,
                               std::uint32_t rr);

  // ---- generation bookkeeping ----
  /// (Re-)arms terminal `ti`'s generation clock to its next arrival after
  /// cycle `after` (one RNG draw; gen_heap records it under idle_skip).
  void arm_generation(std::size_t ti, Cycle after);
  /// Call after pushing to terminal `ti`'s queue / after popping from it:
  /// maintains the injection-pending bitmask and its population count.
  void inj_mark(std::size_t ti);
  void inj_unmark(std::size_t ti);
  /// Rebuilds gen_heap/inj_pending/inj_terms_ from `terms` (init and
  /// checkpoint restore — the derived state is never serialized).
  void rebuild_gen_state();
  /// The checkpoint field walk behind save_checkpoint()/restore_checkpoint()
  /// (see sim/checkpoint.hpp): names every checkpointed field once, in
  /// stream order.
  void checkpoint(CheckpointIo& io);

  Network& net_;
  SimConfig cfg_;
  TrafficSource& traffic_;
  PacketListener* listener_ = nullptr;
  Rng rng_;
  std::unique_ptr<SimContext> owned_ctx_;
  SimContext* ctx_ = nullptr;

  Cycle now_ = 0;
  double per_node_pkt_rate_ = 0.0;
  std::size_t wheel_mask_ = 0;
  std::size_t inj_terms_ = 0;  ///< Terminals with a non-empty source queue.
  /// Run the walk's one-router lookahead prefetch (prefetch_sa_candidates).
  /// Set in init() by deep_prefetch_pays(): only when the walk's working
  /// set outsizes the host LLC, where it measured a win; on in-cache
  /// fabrics it costs time (docs/PERFORMANCE.md, "Prefetcher audit").
  bool deep_prefetch_ = false;
  int shards_ = 1;  ///< Resolved count (see shards()).
  /// Routers a walk must reach for the next cycle to run in parallel:
  /// kShardGateRouters under auto shards, 0 (every cycle) for an explicit
  /// count or SLDF_SHARDS.
  std::size_t gate_ = 0;
  /// The last cycle's walk. Between cycles the active bits are exactly
  /// the ones it kept (restore recounts them), so `kept` is the active
  /// set's size there.
  WalkCount last_walk_;
  /// The last cycle's walk crossed the gate, so this cycle delivers and
  /// walks on the team: consecutive active sets are close in size.
  bool parallel_ = false;
  std::vector<std::uint32_t> shard_bounds_;  ///< Network::shard_bounds.
  std::unique_ptr<ShardTeam> team_;  ///< Started by the first run_team().
  EnginePhases phases_;

  // Online fault timeline (nullptr when the network has none). Steps are
  // consumed in order as now_ reaches them; next_fault_ is checkpointed.
  const FaultSchedule* fault_sched_ = nullptr;
  std::size_t next_fault_ = 0;

  // measurement accumulators. Latency is kept as exact integer tallies
  // (its count is delivered_measured_), so the reported mean is the
  // correctly rounded sum / count whatever order tails commit in.
  std::uint64_t lat_sum_ = 0;
  Cycle lat_min_ = ~Cycle{0};
  Cycle lat_max_ = 0;
  Histogram lat_hist_{1.0};
  std::uint64_t accepted_flits_ = 0;
  std::uint64_t generated_measured_ = 0;
  std::uint64_t delivered_measured_ = 0;
  std::uint64_t delivered_total_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t flit_hops_ = 0;
  std::uint64_t dropped_packets_ = 0;
  std::uint64_t dropped_flits_ = 0;
  std::uint64_t dropped_measured_ = 0;  ///< Measured packets among the drops.
  std::uint64_t rescued_packets_ = 0;
  // Conservation ledger (see SimResult field docs for the invariants).
  std::uint64_t generated_packets_ = 0;
  std::uint64_t generated_flits_ = 0;
  std::uint64_t ejected_flits_ = 0;
  std::uint64_t lost_flits_ = 0;
  // Plane bookkeeping (sized num_planes(); single entry without planes).
  std::vector<std::uint64_t> plane_generated_;
  std::vector<std::uint64_t> plane_delivered_;
  std::vector<std::uint64_t> plane_dropped_;
  /// Per-terminal round-robin plane cursor (indexed by terminal index;
  /// only logical terminals advance theirs). Checkpointed.
  std::vector<std::uint32_t> rr_plane_;
  int num_planes_ = 1;    ///< Cached net_.num_planes() (init()).
  int plane_policy_ = 0;  ///< Cached net_.plane_policy() (init()).
  // Wafer bookkeeping (sized num_wafers(); single entry without wafers).
  std::vector<std::uint64_t> wafer_generated_;
  std::vector<std::uint64_t> wafer_delivered_;
  std::vector<std::uint64_t> wafer_dropped_;
  int num_wafers_ = 1;  ///< Cached net_.num_wafers() (init()).
  double hop_sum_[kNumLinkTypes] = {};
};

/// Convenience wrapper: reset + simulate (one-shot context).
SimResult run_sim(Network& net, const SimConfig& cfg, TrafficSource& traffic);
/// Same, reusing `ctx` across calls (allocation-free after the first run).
SimResult run_sim(SimContext& ctx, Network& net, const SimConfig& cfg,
                  TrafficSource& traffic);

}  // namespace sldf::sim
