// The Network: routers + channels + chip/terminal registry + routing.
// Builders in src/topo construct it; the Simulator animates it.
//
// Dynamic per-VC state is stored structure-of-arrays at network scope
// (cache-friendly for the cycle engine): input-VC FSM/route arrays and the
// flit FIFO arena are indexed by `in_vc_index()`, output-VC busy/credit
// arrays by `out_vc_index()`. The flat offsets are computed once in
// finalize() and cached per channel (Channel::{dst,src}_vc_base).
#pragma once

#include <bit>
#include <cassert>
#include <memory>
#include <vector>

#include "common/hugepage.hpp"
#include "common/types.hpp"
#include "sim/buffer.hpp"
#include "sim/channel.hpp"
#include "sim/router.hpp"
#include "sim/routing.hpp"

namespace sldf::sim {

class CheckpointIo;

/// The axis a composite build (topo/composite.hpp) stacks its child
/// fabrics along.
enum class Axis : std::uint8_t {
  None,    ///< Classic single-fabric build.
  Planes,  ///< Redundant rails over shared logical chips.
  Wafers,  ///< Wafer-on-wafer stack: each child owns its own chip range.
};

/// Base class for topology-specific metadata attached to a Network.
/// Concrete builders derive from this; routing algorithms downcast.
struct TopoInfo {
  virtual ~TopoInfo() = default;
};

/// One resolved fault-timeline transition, applied at the start of cycle
/// `at`. The lists are fully concrete (directed channels, individual
/// nodes) and mutually consistent: a repaired channel is listed only when
/// both its endpoints are live after this step, a channel failed by both a
/// cable event and a chip event appears once, etc. — all cross-event
/// interaction is worked out by the fault model (topo::inject_faults), so
/// applying a step is a plain sequence of disable/enable calls. The
/// cycle-0 fault state is a step too: its fail lists are the static faults.
struct FaultStep {
  Cycle at = 0;
  std::vector<NodeId> fail_nodes;
  std::vector<NodeId> repair_nodes;
  std::vector<ChanId> fail_chans;
  std::vector<ChanId> repair_chans;
};

/// A resolved fault event timeline (see topo/faults.hpp for the source
/// formats). Steps are strictly increasing in `at`. Stored on the Network
/// (set_fault_schedule) so serving-mode network caching carries it and the
/// Simulator picks it up without config plumbing.
struct FaultSchedule {
  std::vector<FaultStep> steps;
  /// True: in-flight packets cut by a dying link are re-routed (re-queued
  /// at their source injector with a fresh fault-aware route). False: they
  /// are dropped and counted (SimResult::dropped_packets).
  bool rescue = true;
};

class Network {
 public:
  // ---- construction (topology builders) ----
  NodeId add_router(NodeKind kind);

  /// Adds a unidirectional channel and the corresponding output/input ports.
  /// Bandwidth is width_num/width_den flits per cycle.
  ChanId add_channel(NodeId src, NodeId dst, LinkType type, int latency,
                     int width_num = 1, int width_den = 1);

  /// Adds a channel pair (src->dst and dst->src) with identical parameters.
  /// Returns the id of the src->dst channel (the reverse is id+1).
  ChanId add_duplex(NodeId a, NodeId b, LinkType type, int latency,
                    int width_num = 1, int width_den = 1);

  /// Registers `core` as a terminal belonging to `chip` (creates the
  /// injection input port and ejection output port).
  void make_terminal(NodeId core, ChipId chip);

  /// Sizes all flat VC arrays, computes the per-router/per-channel offsets,
  /// and initializes credits. Call once after wiring.
  ///
  /// `vc_buf_flits` is the *logical* per-VC buffer depth: it is what
  /// credits enforce and may be any value >= 1. FIFO *storage* is rounded
  /// up to the next power of two internally so ring indexing is mask-based;
  /// this changes memory footprint only, never simulation results.
  void finalize(int num_vcs, int vc_buf_flits);

  void set_routing(std::unique_ptr<RoutingAlgorithm> routing) {
    routing_ = std::move(routing);
  }
  void set_topo_info(std::unique_ptr<TopoInfo> info) {
    topo_ = std::move(info);
  }

  /// Clears all dynamic state (buffers, pipelines, allocations) so a network
  /// can be re-simulated without rebuilding the topology. Allocation-free.
  /// The fault mask survives the reset, rewound to its captured baseline
  /// when there is one.
  void reset_dynamic_state();

  // ---- fault mask (degraded operation; see topo/faults.hpp) --------------
  /// Arms the per-channel/per-node liveness masks (all live). Must be
  /// called after finalize(); idempotent. Networks without an armed mask
  /// pay nothing: the accessors below short-circuit on the empty vectors.
  void enable_fault_mask();
  [[nodiscard]] bool has_fault_mask() const { return !chan_alive_.empty(); }
  /// True when anything is actually dead. Routing gates its detour
  /// planning on this, not on has_fault_mask(), so an armed-but-empty mask
  /// (e.g. a fault rate that rounds to zero failures) makes bit-identical
  /// decisions to an unfaulted network of the same build.
  [[nodiscard]] bool has_faults() const { return dead_channels_ != 0; }
  [[nodiscard]] bool chan_live(ChanId c) const {
    return chan_alive_.empty() ||
           chan_alive_[static_cast<std::size_t>(c)] != 0;
  }
  [[nodiscard]] bool node_live(NodeId n) const {
    return node_alive_.empty() ||
           node_alive_[static_cast<std::size_t>(n)] != 0;
  }
  /// A chip is live while any of its terminal nodes is; fault.chips kills
  /// every node of a chip, so a dead chip can neither source nor sink
  /// workload traffic (placement and workload validation consult this).
  [[nodiscard]] bool chip_live(ChipId chip) const {
    if (node_alive_.empty()) return true;
    for (const NodeId n : chip_nodes_[static_cast<std::size_t>(chip)])
      if (node_alive_[static_cast<std::size_t>(n)] != 0) return true;
    return false;
  }
  /// Marks channel `c` dead and rewrites its source output-port record so
  /// the engine cannot move flits over it (token width zeroed: the bucket
  /// never refills), independent of what routing decides.
  void disable_channel(ChanId c);
  /// Online repair: re-marks channel `c` live and restores its source
  /// output-port record — the token width comes back from the immutable
  /// Channel struct, the bucket refills to capacity, and the refresh clock
  /// is re-based at `now` so the elapsed dead time does not grant a burst.
  /// No-op on an already-live channel. Callers (the Simulator applying a
  /// FaultStep, audits) are responsible for endpoint liveness consistency:
  /// the fault model never lists a channel with a dead endpoint.
  void enable_channel(ChanId c, Cycle now);
  /// Node fail/repair: flips only the node's liveness flag (and the
  /// dead-node count). Incident channels are NOT touched — a resolved
  /// FaultStep lists them explicitly in fail_chans/repair_chans. Terminals
  /// of dead nodes neither generate nor accept traffic (see Simulator).
  void set_node_alive(NodeId n, bool alive);
  /// Applies a FaultStep's lists to the mask alone: fail nodes, fail
  /// channels, repair channels (refresh clock re-based at `now`), repair
  /// nodes. Leaves engine state and the fault epoch alone. The cycle-0
  /// state (topo::inject_faults) and timeline audits (topo::audit_at) use
  /// it; the Simulator interleaves packet teardown and rescue between the
  /// same calls instead.
  void apply_fault_lists(const FaultStep& s, Cycle now);
  [[nodiscard]] std::size_t num_dead_channels() const;
  [[nodiscard]] std::size_t num_dead_nodes() const;

  // ---- fault event timeline (online resilience) --------------------------
  /// Attaches a resolved fail/repair timeline. The Simulator applies due
  /// steps at cycle boundaries; reset_dynamic_state() rewinds the mask to
  /// the captured baseline so the same network object can run the timeline
  /// again (sweeps, serving mode). Pass nullptr to detach.
  void set_fault_schedule(std::shared_ptr<const FaultSchedule> s) {
    fault_schedule_ = std::move(s);
  }
  [[nodiscard]] const FaultSchedule* fault_schedule() const {
    return fault_schedule_.get();
  }
  /// Snapshots the current mask (inject_faults: the cycle-0 fault state)
  /// as the baseline that reset_dynamic_state() restores. Without
  /// a captured baseline, resets leave the mask untouched (the pre-online
  /// behaviour manual disable_channel() users rely on).
  void capture_fault_baseline();
  [[nodiscard]] bool has_fault_baseline() const {
    return !baseline_chan_alive_.empty();
  }
  /// Rewinds the mask (and the affected port records) to the captured
  /// baseline without touching FIFO/pipeline state; bumps the fault epoch
  /// if anything changed. No-op without a captured baseline. Used by
  /// reset_dynamic_state() and by timeline audits (topo::audit_at).
  void restore_fault_baseline();
  /// Monotone counter bumped on every online mask transition (each applied
  /// FaultStep, each baseline restore). Placement snapshots taken against
  /// one epoch (trace::PlacementAllocator) refuse to allocate under
  /// another: a chip repaired mid-run must not be handed to a new tenant
  /// while an old placement still references the pre-repair liveness.
  [[nodiscard]] std::uint64_t fault_epoch() const { return fault_epoch_; }
  void bump_fault_epoch() { ++fault_epoch_; }

  // ---- checkpointing -----------------------------------------------------
  /// Checkpoint walk (see sim/checkpoint.hpp) over every mutable word of
  /// the network: FIFO arena, port records with their token buckets, fault
  /// mask + epoch. Topology and static wiring are NOT streamed: a
  /// checkpoint restores only onto an identically-built network (the
  /// Simulator's checkpoint header fingerprints the shape, and restore
  /// throws std::runtime_error when an array length does not match).
  void checkpoint(CheckpointIo& io);

  // ---- shard partition map (intra-simulation parallelism) ----------------
  /// Partitions the router id space into `shards` contiguous ranges for the
  /// sharded cycle engine (see docs/ARCHITECTURE.md, "Threading &
  /// determinism model"). Returns `shards + 1` ascending boundaries with
  /// `bounds[0] == 0` and `bounds[shards] == num_routers()`; shard `k` owns
  /// routers `[bounds[k], bounds[k+1])`.
  ///
  /// Invariants the engine relies on:
  /// - **Chip-aligned**: a boundary never splits a chip, so every terminal
  ///   and its C-group mesh neighbourhood stay shard-local (converter
  ///   nodes, which belong to no chip, may land on either side). Since
  ///   builders lay out each C-group's routers contiguously, shards are
  ///   C-group-aligned in practice and mesh-local traffic never crosses a
  ///   shard except through the timing wheel.
  /// - **Load-balanced by output ports** (the closest static proxy for
  ///   per-router engine work), via the flat port prefix sums computed in
  ///   finalize().
  /// - **Deterministic**: a pure function of the topology and `shards` —
  ///   never of thread scheduling.
  ///
  /// Ranges may be empty when `shards` exceeds the number of chips.
  /// Requires finalize().
  [[nodiscard]] std::vector<std::uint32_t> shard_bounds(int shards) const;

  // ---- composite partition (topo/composite.hpp builds it) ----------------
  // A composite build wires N child fabrics into this one network along one
  // axis; child i owns the routers added after the i-th begin_child() mark.
  // Planes are redundant rails over SHARED logical chips: every plane
  // attaches its own terminal(s) to every chip, appended to chip_nodes() in
  // plane order. "Logical" accessors expose the plane-0 view, which is what
  // chip-level consumers (traffic patterns, workload striping, placement)
  // operate on; the Simulator remaps each packet onto its selected plane's
  // twin terminals at injection. Wafers scale OUT: each wafer owns its own
  // chip range (wafer-major: wafer w covers [w * chips_per_wafer(),
  // (w+1) * chips_per_wafer())), the terminals of every wafer are ordinary
  // traffic endpoints, and cross-wafer packets cross one vertical cable
  // (LinkType::Vertical), which belongs to no child.

  /// Marks the start of the next child along `axis`: routers, channels and
  /// terminals added after this call belong to it, and a wafer child's
  /// builder-local chip ids are offset by the chips already present. One
  /// network composes along one axis: throws std::logic_error when `axis`
  /// differs from an earlier mark, or once the network is finalized.
  void begin_child(Axis axis);
  /// Seals the partition after the last child (and any bonds) is wired and
  /// the network is finalized. A plane set freezes the per-chip plane
  /// segments behind plane_twin() and the selection policy (an opaque
  /// route::PlanePolicy value), and validates that every plane owns at
  /// least one terminal node on every chip, in one plane-contiguous run.
  void seal_children(int plane_policy = 0);
  /// The composition axis (Axis::None for classic single-fabric builds).
  [[nodiscard]] Axis axis() const { return axis_; }
  /// Number of children (0 for classic single-fabric builds).
  [[nodiscard]] int num_children() const {
    return static_cast<int>(child_node_base_.size());
  }
  /// Child owning node `n` (0 for classic builds). N is tiny, so a linear
  /// scan over the range starts beats a branchy binary search.
  [[nodiscard]] int child_of_node(NodeId n) const {
    const auto u = static_cast<std::uint32_t>(n);
    int c = 0;
    while (c + 1 < num_children() &&
           u >= child_node_base_[static_cast<std::size_t>(c) + 1])
      ++c;
    return c;
  }

  /// Number of planes (1 unless the network is a plane set).
  [[nodiscard]] int num_planes() const {
    return axis_ == Axis::Planes ? num_children() : 1;
  }
  /// The sealed plane-selection policy (route::PlanePolicy as int).
  [[nodiscard]] int plane_policy() const { return plane_policy_; }
  /// Plane owning node `n` (0 unless the network is a plane set).
  [[nodiscard]] int plane_of_node(NodeId n) const {
    return axis_ == Axis::Planes ? child_of_node(n) : 0;
  }
  /// The logical (plane-0) terminal list: what traffic patterns draw
  /// sources/destinations from. Identical to terminals() when single-plane.
  [[nodiscard]] const std::vector<NodeId>& logical_terminals() const {
    return axis_ == Axis::Planes ? logical_terminals_ : terminal_nodes_;
  }
  /// Number of logical (plane-0) nodes of `chip` — they are the first
  /// entries of chip_nodes(chip), so indexing [0, logical_chip_size) of
  /// that list addresses the logical view in place.
  [[nodiscard]] std::size_t logical_chip_size(ChipId chip) const {
    if (axis_ != Axis::Planes) return chip_nodes(chip).size();
    const auto base =
        static_cast<std::size_t>(chip) *
        (static_cast<std::size_t>(num_planes()) + 1);
    return chip_plane_off_[base + 1] - chip_plane_off_[base];
  }
  /// The plane-`plane` twin of terminal `n`: the node at the same slot
  /// (mod the plane's per-chip node count) of the same logical chip.
  /// Identity for plane 0 and unless the network is a plane set.
  [[nodiscard]] NodeId plane_twin(NodeId n, int plane) const {
    if (axis_ != Axis::Planes || plane == 0) return n;
    const auto chip = static_cast<std::size_t>(chip_of(n));
    const auto base = chip * (static_cast<std::size_t>(num_planes()) + 1) +
                      static_cast<std::size_t>(plane);
    const std::uint32_t off = chip_plane_off_[base];
    const std::uint32_t cnt = chip_plane_off_[base + 1] - off;
    const std::uint32_t slot =
        node_plane_slot_[static_cast<std::size_t>(n)] % cnt;
    return chip_nodes_[chip][off + slot];
  }

  [[nodiscard]] bool has_wafers() const { return axis_ == Axis::Wafers; }
  /// Number of stacked wafers (1 unless the network is a wafer stack).
  [[nodiscard]] int num_wafers() const {
    return axis_ == Axis::Wafers ? num_children() : 1;
  }
  [[nodiscard]] std::size_t chips_per_wafer() const {
    return axis_ == Axis::Wafers
               ? num_chips() / static_cast<std::size_t>(num_children())
               : num_chips();
  }
  /// Wafer owning node `n` (0 unless the network is a wafer stack).
  [[nodiscard]] int wafer_of_node(NodeId n) const {
    return axis_ == Axis::Wafers ? child_of_node(n) : 0;
  }
  [[nodiscard]] int wafer_of_chip(ChipId c) const {
    return static_cast<int>(static_cast<std::size_t>(c) / chips_per_wafer());
  }

 private:
  /// (Re)initializes the dynamic words of every per-port record.
  void init_port_dynamic_state();

 public:

  // ---- accessors ----
  [[nodiscard]] std::size_t num_routers() const { return routers_.size(); }
  [[nodiscard]] std::size_t num_channels() const { return channels_.size(); }
  [[nodiscard]] std::size_t num_chips() const { return chip_nodes_.size(); }
  /// Virtual channels per port (uniform network-wide; set by finalize()).
  [[nodiscard]] int num_vcs() const { return num_vcs_; }
  /// Logical per-VC input-buffer depth in flits (what credits enforce).
  [[nodiscard]] int vc_buf() const { return vc_buf_; }
  [[nodiscard]] bool finalized() const { return num_vcs_ > 0; }

  Router& router(NodeId id) { return routers_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Router& router(NodeId id) const {
    return routers_[static_cast<std::size_t>(id)];
  }
  Channel& chan(ChanId id) { return channels_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Channel& chan(ChanId id) const {
    return channels_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] const std::vector<NodeId>& chip_nodes(ChipId chip) const {
    return chip_nodes_[static_cast<std::size_t>(chip)];
  }
  [[nodiscard]] ChipId chip_of(NodeId node) const {
    return node_chip_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] const std::vector<NodeId>& terminals() const {
    return terminal_nodes_;
  }

  [[nodiscard]] RoutingAlgorithm* routing() const { return routing_.get(); }
  [[nodiscard]] const TopoInfo* topo_info() const { return topo_.get(); }
  template <typename T>
  [[nodiscard]] const T& topo() const {
    const auto* t = dynamic_cast<const T*>(topo_.get());
    assert(t && "topology info type mismatch");
    return *t;
  }

  /// Convenience: output-port index at chan's source router.
  /// Backed by a compact array (finalized networks) so routing algorithms
  /// don't pull a whole Channel cache line for one port number.
  [[nodiscard]] PortIx out_port_of(ChanId c) const {
    return finalized() ? src_port_by_chan_[static_cast<std::size_t>(c)]
                       : chan(c).src_port;
  }

  std::vector<Router>& routers() { return routers_; }
  std::vector<Channel>& channels() { return channels_; }

  // ---- flat VC state (valid once finalized) ----
  /// Flat index of input port `p` at router `r` (network-wide).
  [[nodiscard]] std::uint32_t in_port_index(NodeId r, PortIx p) const {
    return in_port_base_[static_cast<std::size_t>(r)] +
           static_cast<std::uint32_t>(p);
  }
  /// Flat index of output port `p` at router `r` (network-wide).
  [[nodiscard]] std::uint32_t out_port_index(NodeId r, PortIx p) const {
    return out_port_base_[static_cast<std::size_t>(r)] +
           static_cast<std::uint32_t>(p);
  }
  [[nodiscard]] std::uint32_t num_in_ports() const { return num_in_ports_; }
  [[nodiscard]] std::uint32_t num_out_ports() const { return num_out_ports_; }
  /// Flat per-node mirrors of Router::kind / Router::eject_port, so routing
  /// algorithms stay off the AoS Router objects in their per-flit path.
  [[nodiscard]] NodeKind kind_of(NodeId r) const {
    return static_cast<NodeKind>(node_meta_[static_cast<std::size_t>(r)] &
                                 0xff);
  }
  [[nodiscard]] PortIx eject_port_of(NodeId r) const {
    return static_cast<PortIx>(node_meta_[static_cast<std::size_t>(r)] >> 8);
  }

  /// Prefetch hooks: addresses of the per-router offset entries.
  [[nodiscard]] const std::uint32_t* in_port_base_addr(NodeId r) const {
    return &in_port_base_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] const std::uint32_t* out_port_base_addr(NodeId r) const {
    return &out_port_base_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] std::uint32_t num_in_ports_of(NodeId r) const {
    return in_port_base_[static_cast<std::size_t>(r) + 1] -
           in_port_base_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] std::uint32_t num_out_ports_of(NodeId r) const {
    return out_port_base_[static_cast<std::size_t>(r) + 1] -
           out_port_base_[static_cast<std::size_t>(r)];
  }

  /// Flat index of input VC `v` of input port `p` at router `r`.
  [[nodiscard]] std::uint32_t in_vc_index(NodeId r, PortIx p, VcIx v) const {
    return (in_port_base_[static_cast<std::size_t>(r)] +
            static_cast<std::uint32_t>(p)) *
               static_cast<std::uint32_t>(num_vcs_) +
           static_cast<std::uint32_t>(v);
  }
  /// Flat index of output VC `v` of output port `p` at router `r`.
  [[nodiscard]] std::uint32_t out_vc_index(NodeId r, PortIx p, VcIx v) const {
    return (out_port_base_[static_cast<std::size_t>(r)] +
            static_cast<std::uint32_t>(p)) *
               static_cast<std::uint32_t>(num_vcs_) +
           static_cast<std::uint32_t>(v);
  }

  /// The input-VC FIFO arena: one power-of-two-stride ring per input VC,
  /// indexed by in_vc_index(). Each VC's 64-bit control word pairs its
  /// ring head/size with the packed pipeline metadata below.
  FlitFifoArena& fifos() { return fifos_; }
  [[nodiscard]] const FlitFifoArena& fifos() const { return fifos_; }

  // ---- packed input-VC metadata word -------------------------------------
  // The router-pipeline state of one input VC, packed into the high 32 bits
  // of its FIFO control word (FlitFifoArena::meta/set_meta) so one load
  // covers the whole RC/VA/SA metadata:
  //
  //   bits 16..31: granted output *port* (RC decision)
  //   bits  8..15: granted output *VC*   (RC decision)
  //   bits  0..7 : IvcState — Idle (head flit needs RC/VA), Routed (RC done,
  //                waiting for VA to claim the output VC), Active (output VC
  //                held; SA streams the packet until the tail flit resets
  //                the word to Idle).

  /// Packs an input-VC metadata word (see the layout above).
  static constexpr std::uint32_t pack_ivc(PortIx port, VcIx vc,
                                          IvcState st) {
    return (static_cast<std::uint32_t>(static_cast<std::uint16_t>(port))
            << 16) |
           (static_cast<std::uint32_t>(static_cast<std::uint8_t>(vc)) << 8) |
           static_cast<std::uint32_t>(st);
  }
  /// Pipeline FSM state of a packed metadata word.
  static constexpr IvcState ivc_state_of(std::uint32_t meta) {
    return static_cast<IvcState>(meta & 0xff);
  }
  /// Granted output VC of a packed metadata word (valid unless Idle).
  static constexpr std::uint32_t ivc_vc_of(std::uint32_t meta) {
    return (meta >> 8) & 0xff;
  }
  /// Granted output port of a packed metadata word (valid unless Idle).
  static constexpr std::uint32_t ivc_port_of(std::uint32_t meta) {
    return meta >> 16;
  }

  // ---- per-output-port record -------------------------------------------
  // Everything SA/VA/credit handling touches for one output port lives in
  // one compact record (`port_stride()` u32 words, `5 + num_vcs`) in
  // port_state_. Word 0 packs the three per-grant counters; the tail is a
  // u16 lane region holding the per-VC credit words and the SA requester
  // list:
  //
  //   word 0          : SA requester count (u8) | round-robin cursor
  //                     (u8, bits 8..15) | channel token bucket (u16,
  //                     bits 16..31; micro-tokens — a grant costs
  //                     width_den tokens, a cycle refills width_num, so
  //                     fractional-bandwidth links meter exactly; the cap
  //                     width_num + width_den is <= 510, far inside u16)
  //   word kTokenCycle: cycle of the last token refresh (truncated u32)
  //   word kDstVcBase : flat input-VC base of the downstream port
  //   word kDstNode   : downstream router (kInvalidNode for ejection ports)
  //   word kLinkMeta  : latency | link type | width_num | width_den (u8 each)
  //   words kOvc0..   : u16 lanes, addressed via ovc16(rec):
  //                       lanes [0, nvc)     one per output VC:
  //                                          credits << 1 | busy bit
  //                                          (busy = some input VC holds
  //                                          this output VC, wormhole
  //                                          exclusivity; credits = free
  //                                          downstream buffer flits)
  //                       lanes [nvc, 2*nvc) SA requesters, encoded
  //                                          (in_port << 8) | vc
  //
  // A port never has more than num_vcs requesters (each output VC is held
  // by at most one input VC), so both the record size and the u8 count are
  // static-safe. finalize() rejects (ScenarioError) any build whose
  // vc_buf, per-router input-port count, or flat output-port count would
  // overflow the packed widths. In the sharded engine a record is written
  // only by its owning router's shard.
  static constexpr std::uint32_t kTokenCycle = 1;
  static constexpr std::uint32_t kDstVcBase = 2;
  static constexpr std::uint32_t kDstNode = 3;
  static constexpr std::uint32_t kLinkMeta = 4;
  static constexpr std::uint32_t kOvc0 = 5;
  /// First u16 lane of the output-VC region (lane units: 2 * kOvc0).
  static constexpr std::uint32_t kOvcLane0 = 2 * kOvc0;
  /// Credit wheel events address a u16 lane directly: the event's vc_flat
  /// is `(pflat << kPortLaneBits) | (kOvcLane0 + vc)`. 9 bits covers
  /// kOvcLane0 + 255 < 512 lanes; finalize() checks pflat fits the rest.
  static constexpr std::uint32_t kPortLaneBits = 9;
  static constexpr std::uint32_t kLaneMask = (1u << kPortLaneBits) - 1;

  /// Per-port record stride in u32 words (5 + num_vcs; NOT a power of two).
  [[nodiscard]] std::uint32_t port_stride() const { return port_stride_; }
  /// The record of flat output port `pflat` (see the layout above).
  std::uint32_t* port_rec(std::uint32_t pflat) {
    return &port_state_[static_cast<std::size_t>(pflat) * port_stride_];
  }
  [[nodiscard]] const std::uint32_t* port_rec(std::uint32_t pflat) const {
    return &port_state_[static_cast<std::size_t>(pflat) * port_stride_];
  }
  /// u16 view of a record's output-VC + requester lane region.
  static std::uint16_t* ovc16(std::uint32_t* rec) {
    return reinterpret_cast<std::uint16_t*>(rec + kOvc0);
  }
  static const std::uint16_t* ovc16(const std::uint32_t* rec) {
    return reinterpret_cast<const std::uint16_t*>(rec + kOvc0);
  }
  std::vector<std::uint32_t, HugePageAllocator<std::uint32_t>>&
  port_state() {
    return port_state_;
  }

  /// Credit-return wiring of one input port (src == kInvalidNode for
  /// injection ports, which return no credits). Packed to 8 bytes so the
  /// per-grant load is one naturally-aligned access: `meta` holds the
  /// channel latency in the top 8 bits and the flat index of the upstream
  /// output port in the low 24 (finalize() checks it fits).
  struct CreditReturn {
    std::uint32_t meta = 0;
    NodeId src = kInvalidNode;

    [[nodiscard]] std::uint32_t credit_port() const {
      return meta & 0xffffff;
    }
    [[nodiscard]] std::uint32_t latency() const { return meta >> 24; }
  };
  static_assert(sizeof(CreditReturn) == 8);
  std::vector<CreditReturn>& credit_return_by_port() {
    return credit_return_by_port_;
  }

  /// Buffered-flit occupancy of the downstream input port fed by channel
  /// `c`, read from the upstream output port's credit counters (the UGAL-L
  /// congestion signal used by the adaptive routing schemes).
  [[nodiscard]] int channel_occupancy(ChanId c) const {
    if (c == kInvalidChan) return 0;
    const Channel& ch = chan(c);
    const std::uint16_t* ov =
        ovc16(port_rec(out_port_index(ch.src, ch.src_port)));
    int used = 0;
    for (int v = 0; v < num_vcs_; ++v)
      used += vc_buf_ - static_cast<int>(ov[v] >> 1);
    return used;
  }

 private:
  std::vector<Router> routers_;
  std::vector<Channel> channels_;
  std::vector<std::vector<NodeId>> chip_nodes_;
  std::vector<ChipId> node_chip_;
  std::vector<NodeId> terminal_nodes_;
  std::unique_ptr<RoutingAlgorithm> routing_;
  std::unique_ptr<TopoInfo> topo_;
  int num_vcs_ = 0;
  int vc_buf_ = 0;

  // Flat per-network VC state (finalize() sizes everything).
  std::vector<std::uint32_t> in_port_base_;   ///< Per router: first input port.
  std::vector<std::uint32_t> out_port_base_;  ///< Per router: first output port.
  std::uint32_t num_in_ports_ = 0;
  std::uint32_t num_out_ports_ = 0;
  std::vector<std::uint32_t> node_meta_;  ///< eject_port << 8 | kind.
  FlitFifoArena fifos_;  ///< FIFO rings + per-VC meta words (pack_ivc()).
  /// Per-output-port records (see the offset constants above).
  std::vector<std::uint32_t, HugePageAllocator<std::uint32_t>> port_state_;
  std::uint32_t port_stride_ = 0;  ///< Record stride in u32 words (5 + nvc).
  std::vector<CreditReturn> credit_return_by_port_;
  std::vector<PortIx> src_port_by_chan_;  ///< Compact chan -> src_port.
  // Fault mask (empty = all live; see enable_fault_mask()).
  std::vector<std::uint8_t> chan_alive_;
  std::vector<std::uint8_t> node_alive_;
  std::size_t dead_channels_ = 0;
  std::size_t dead_nodes_ = 0;
  // Online-resilience state (see the fault-event-timeline section above).
  std::shared_ptr<const FaultSchedule> fault_schedule_;
  std::vector<std::uint8_t> baseline_chan_alive_;
  std::vector<std::uint8_t> baseline_node_alive_;
  std::uint64_t fault_epoch_ = 0;
  // Composite partition (static topology metadata; see begin_child()).
  Axis axis_ = Axis::None;
  std::vector<std::uint32_t> child_node_base_;  ///< First router per child.
  ChipId chip_offset_ = 0;  ///< Added to make_terminal chip ids (wafers).
  // Plane-set view (see seal_children()).
  int plane_policy_ = 0;
  std::vector<NodeId> logical_terminals_;  ///< Plane-0 terminal list.
  /// Per chip: K+1 offsets into chip_nodes(chip) bounding each plane's
  /// segment (flattened [chip * (K+1) + plane]).
  std::vector<std::uint32_t> chip_plane_off_;
  /// Per node: its slot within its chip's plane segment (terminals only).
  std::vector<std::uint32_t> node_plane_slot_;
};

}  // namespace sldf::sim
