// Arena-backed flit FIFO storage + per-VC state words for every virtual
// channel in a network.
//
// Instead of one lazily-allocated ring buffer per VC (pointer chase + a `%`
// on every push/pop), all FIFO rings live in a single contiguous arena.
// Each VC owns a power-of-two slice (`stride` flits), so ring indexing is a
// shift + mask and neighbouring VCs of a port share cache lines. The
// *logical* capacity (what `full()` enforces and what the credit protocol
// sees) stays exactly the configured `vc_buf_flits`; only the storage
// stride is rounded up, so non-power-of-two buffer depths behave
// bit-identically to per-VC rings — just without the division.
//
// Every VC also has one 64-bit control word holding the ring head/size
// (low half) and the router-pipeline metadata word (high half, see
// Network::pack_ivc). The engine touches head/size and metadata together
// on almost every access, so pairing them costs one cache line instead of
// two.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/hugepage.hpp"
#include "sim/flit.hpp"

namespace sldf::sim {

class FlitFifoArena {
 public:
  /// Sizes the arena for `num_fifos` rings of logical capacity `capacity`
  /// flits each (capacity <= 65535 so head and size pack into one half
  /// word), with every metadata half initialized to `meta_init`. Existing
  /// contents are discarded.
  void init(std::size_t num_fifos, std::uint32_t capacity,
            std::uint32_t meta_init) {
    assert(capacity >= 1 && capacity <= 0xffff);
    cap_ = capacity;
    const std::uint32_t stride = std::bit_ceil(capacity);
    mask_ = stride - 1;
    shift_ = static_cast<std::uint32_t>(std::countr_zero(stride));
    slots_.assign(num_fifos << shift_, Flit{});
    hm_.assign(num_fifos,
               static_cast<std::uint64_t>(meta_init) << 32);
  }

  /// Empties every ring and resets every metadata word; keeps the storage.
  void reset(std::uint32_t meta_init) {
    std::fill(hm_.begin(), hm_.end(),
              static_cast<std::uint64_t>(meta_init) << 32);
  }

  [[nodiscard]] std::size_t num_fifos() const { return hm_.size(); }
  [[nodiscard]] std::uint32_t capacity() const { return cap_; }
  [[nodiscard]] std::uint32_t stride() const { return mask_ + 1; }

  [[nodiscard]] std::uint32_t size(std::size_t i) const {
    return static_cast<std::uint32_t>(hm_[i]) >> 16;
  }
  [[nodiscard]] bool empty(std::size_t i) const {
    return (hm_[i] & 0xffff0000u) == 0;
  }
  [[nodiscard]] bool full(std::size_t i) const { return size(i) == cap_; }

  void push(std::size_t i, Flit f) {
    const std::uint64_t w = hm_[i];
    const auto hs = static_cast<std::uint32_t>(w);
    assert((hs >> 16) < cap_);
    slots_[(i << shift_) + (((hs & 0xffff) + (hs >> 16)) & mask_)] = f;
    hm_[i] = w + 0x10000;
  }

  [[nodiscard]] const Flit& front(std::size_t i) const {
    assert(!empty(i));
    return slots_[(i << shift_) +
                  (static_cast<std::uint32_t>(hm_[i]) & 0xffff)];
  }

  Flit pop(std::size_t i) {
    const std::uint64_t w = hm_[i];
    const auto hs = static_cast<std::uint32_t>(w);
    assert((hs >> 16) > 0);
    const Flit f = slots_[(i << shift_) + (hs & 0xffff)];
    hm_[i] = (w & 0xffffffff00000000ull) |
             ((((hs & 0xffff) + 1) & mask_)) |
             ((hs - 0x10000) & 0xffff0000u);
    return f;
  }

  /// Router-pipeline metadata half-word (see Network::pack_ivc).
  [[nodiscard]] std::uint32_t meta(std::size_t i) const {
    return static_cast<std::uint32_t>(hm_[i] >> 32);
  }
  void set_meta(std::size_t i, std::uint32_t m) {
    hm_[i] = (hm_[i] & 0xffffffffull) | (static_cast<std::uint64_t>(m) << 32);
  }

  /// Address of the control word (engine prefetch hook).
  [[nodiscard]] const std::uint64_t* word_addr(std::size_t i) const {
    return &hm_[i];
  }

  /// Peeks the `k`-th buffered flit of ring `i` (0 == front, k < size(i)).
  /// Used by the fault-timeline extraction sweep to scan a ring without
  /// disturbing it.
  [[nodiscard]] const Flit& at(std::size_t i, std::uint32_t k) const {
    assert(k < size(i));
    const auto hs = static_cast<std::uint32_t>(hm_[i]);
    return slots_[(i << shift_) + (((hs & 0xffff) + k) & mask_)];
  }

  /// Empties ring `i` (head and size -> 0) without touching its metadata
  /// half. The extraction sweep clears and re-pushes survivors through
  /// push(), so a rebuilt ring is in a canonical head-0 layout.
  void clear_ring(std::size_t i) { hm_[i] &= 0xffffffff00000000ull; }

  /// Checkpoint walk (see sim/checkpoint.hpp): the arena verbatim, control
  /// words then flit slots (stale slots included).
  template <typename Io>
  void checkpoint(Io& io) {
    io.fixed(hm_, "fifo control");
    io.fixed(slots_, "fifo slot");
  }

 private:
  std::vector<Flit, HugePageAllocator<Flit>> slots_;
  /// Per FIFO: ring head (bits 0..15), size (16..31), metadata (32..63).
  std::vector<std::uint64_t, HugePageAllocator<std::uint64_t>> hm_;
  std::uint32_t cap_ = 0;
  std::uint32_t mask_ = 0;
  std::uint32_t shift_ = 0;
};

}  // namespace sldf::sim
