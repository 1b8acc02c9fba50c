// Flits and packets. Flits are 4-byte handles into a central packet pool so
// that VC buffers and channel pipelines stay compact.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/hugepage.hpp"
#include "common/types.hpp"

namespace sldf::sim {

/// Packet::tag value meaning "not labelled" (rate-driven traffic).
inline constexpr std::uint32_t kNoTag = 0xffffffffu;

/// A flit is one packed word: the owning packet id in the low 30 bits plus
/// head/tail marker bits. The flit's position within its packet is not
/// stored — FIFO rings receive each packet's flits contiguously and in
/// order (wormhole: an upstream output VC is held by one packet until its
/// tail passes), so head/tail carry everything the pipeline consumes.
/// A default-constructed Flit carries no packet (credit events on the
/// timing wheel, empty arena slots).
struct Flit {
  static constexpr std::uint32_t kPktBits = 30;
  /// Max representable packet id; the all-ones pattern doubles as the
  /// "no packet" marker, so the pool never hands it out.
  static constexpr std::uint32_t kPktMask = (1u << kPktBits) - 1;

  std::uint32_t w = kPktMask;

  Flit() = default;
  Flit(PacketId pkt, bool head, bool tail)
      : w(pkt | (static_cast<std::uint32_t>(head) << 30) |
          (static_cast<std::uint32_t>(tail) << 31)) {}

  /// Owning packet id (kPktMask when this is a credit event / empty slot).
  [[nodiscard]] PacketId pkt() const { return w & kPktMask; }
  [[nodiscard]] bool head() const { return (w >> 30) & 1u; }
  [[nodiscard]] bool tail() const { return (w >> 31) != 0; }
  /// False for credit events and empty slots.
  [[nodiscard]] bool carries_packet() const {
    return (w & kPktMask) != kPktMask;
  }
};
static_assert(sizeof(Flit) == 4);

/// Routing FSM phase for hierarchical (switch-less Dragonfly) routing.
/// Stored per packet; interpreted by the active RoutingAlgorithm.
enum class RoutePhase : std::uint8_t {
  SrcCGroup = 0,    ///< In the source C-group (Cs).
  SrcWGroup = 1,    ///< In the source W-group's gateway C-group (Cb).
  MidWEntry = 2,    ///< Non-minimal: entry C-group of the intermediate W (Ce).
  MidWExit = 3,     ///< Non-minimal: exit C-group of the intermediate W (Cf).
  DstWEntry = 4,    ///< In the destination W-group's entry C-group (Cc).
  DstCGroup = 5,    ///< In the destination C-group (Cd).
};

struct alignas(16) Packet {
  // Field order is deliberate: the per-hop routing path (route(),
  // plan_leg()) reads dst + the routing-state block, so they share the
  // packet's first 32 bytes, which never straddle more than one cache-line
  // boundary at this alignment. The struct is kept at 48 bytes on purpose:
  // at saturation the pool's queued packets dominate peak RSS, so derivable
  // fields (src/dst chip — one chip_of() load away) and
  // consumed-on-the-spot fields (the ejection cycle) are not stored.
  NodeId dst = kInvalidNode;      ///< Destination router (terminal host).
  NodeId target = kInvalidNode;   ///< Intra-C-group target router.
  std::int32_t exit_chan = kInvalidChan;  ///< Channel to take when at target.
  std::int32_t mid_wgroup = -1;   ///< Valiant intermediate W/group (-1: minimal).
  RoutePhase phase = RoutePhase::SrcCGroup;
  RoutePhase next_phase = RoutePhase::SrcCGroup;  ///< Applied on the next
                                                  ///< inter-C-group crossing.
  std::uint8_t vc_class = 0;      ///< Current VC class (maps to a VC index).
  std::uint8_t next_class = 0;    ///< VC class after the crossing.
  std::uint16_t len = 0;          ///< Total flits.
  std::uint16_t flits_ejected = 0;
  NodeId src = kInvalidNode;      ///< Source router (terminal host).
  /// Caller-owned label carried end to end. The closed-loop workload engine
  /// stores the message id here so tail-flit ejection can be mapped back to
  /// the owning message; rate-driven traffic leaves it at kNoTag.
  std::uint32_t tag = kNoTag;

  // --- measurement ---
  Cycle t_gen = 0;  ///< Cycle the packet was created (enters source queue).
  /// Head-flit hops per link type (u8: a path never remotely approaches
  /// 255 hops of one type). Latency needs no stored ejection cycle: the
  /// tail flit's delivery is committed at the cycle it happens, so the
  /// engine computes `now - t_gen` on the spot.
  std::uint8_t hops[kNumLinkTypes] = {};
  std::uint8_t measured = 0;  ///< 1 if generated inside the measurement window.
  /// 1 if the current leg plan knowingly keeps a dead exit cable (no live
  /// detour existed at plan time). Converters must not bounce such packets
  /// back for a re-plan — it would ping-pong forever (a CDG cycle); they
  /// stall on the dead line instead and move again only after a repair.
  std::uint8_t stalled = 0;
};
static_assert(sizeof(Packet) == 48);

/// Free-list pool of packets. PacketIds are stable until release().
///
/// Slot storage is a chunk table instead of one contiguous vector: growing
/// the pool materializes one fixed-size chunk at a time, so peak memory
/// tracks the live-packet high-water mark exactly — no doubling overshoot
/// and no transient old+new copy during a reallocation, which at saturation
/// (millions of queued packets) used to dominate peak RSS.
class PacketPool {
 public:
  /// 64k packets (3 MiB at 48 B/packet) per chunk: over one hugepage, so
  /// every chunk takes HugePageAllocator's mmap path (THP-backed, returned
  /// to the OS on free) while the chunk table stays tiny and hot.
  static constexpr std::uint32_t kChunkShift = 16;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  PacketId acquire() {
    if (!free_.empty()) {
      const PacketId id = free_.back();
      free_.pop_back();
      (*this)[id] = Packet{};
      return id;
    }
    if (size_ >= Flit::kPktMask)
      throw std::runtime_error(
          "PacketPool: exceeded 2^30 - 1 live packets (packed flit id)");
    if ((size_ >> kChunkShift) == chunks_.size()) add_chunk();
    const auto id = static_cast<PacketId>(size_++);
    (*this)[id] = Packet{};
    return id;
  }

  void release(PacketId id) { free_.push_back(id); }

  /// Forgets every packet but keeps the chunk storage, so a pool reused
  /// across runs (see SimContext) reaches zero steady-state allocation.
  void reset() {
    size_ = 0;
    free_.clear();
  }

  Packet& operator[](PacketId id) {
    return chunk_ptr_[id >> kChunkShift][id & kChunkMask];
  }
  const Packet& operator[](PacketId id) const {
    return chunk_ptr_[id >> kChunkShift][id & kChunkMask];
  }

  [[nodiscard]] std::size_t capacity() const { return size_; }
  [[nodiscard]] std::size_t live() const { return size_ - free_.size(); }

  [[nodiscard]] const std::vector<PacketId>& free_list() const { return free_; }

  /// Checkpoint walk (see sim/checkpoint.hpp): the slot count, the raw
  /// slots chunk by chunk (the bytes a contiguous layout would stream) and
  /// the free list. Restore materializes the chunks before the raw read.
  template <typename Io>
  void checkpoint(Io& io) {
    size_ = io.count(size_, sizeof(Packet));
    while ((chunks_.size() << kChunkShift) < size_) add_chunk();
    for (std::size_t base = 0; base < size_; base += kChunkSize)
      io.bytes(chunk_ptr_[base >> kChunkShift],
               std::min<std::size_t>(kChunkSize, size_ - base) *
                   sizeof(Packet));
    io.vec(free_);
  }

 private:
  void add_chunk() {
    chunks_.emplace_back(kChunkSize);
    chunk_ptr_.push_back(chunks_.back().data());
  }

  std::vector<std::vector<Packet, HugePageAllocator<Packet>>> chunks_;
  /// Flat mirror of each chunk's data pointer (one hot array, so
  /// operator[] is two dependent loads with the first in L1).
  std::vector<Packet*> chunk_ptr_;
  std::size_t size_ = 0;  ///< Slots handed out so far (high-water mark).
  std::vector<PacketId> free_;
};

}  // namespace sldf::sim
