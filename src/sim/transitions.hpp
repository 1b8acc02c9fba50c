// Internal to the cycle engine's translation units (src/sim/*.cpp): the
// bitmask helpers and the engine's state transitions, each defined once
// and called by both the router pipeline and the fault step.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace sldf::sim {

/// Bitmask ops (pending VCs and ports, active routers, pending injection).
/// A shard phase writes only the bits of its own routers, their VCs and
/// ports, and their terminals, and each of those index ranges is one
/// contiguous run: two shards can meet only in the first or last word of
/// their ranges (`edge`, the shard's ShardWords of that bitmap). There
/// the `Atomic` instantiations take a relaxed locked RMW (distinct-bit
/// ORs/ANDs commute, so the word's final value is independent of the
/// interleaving and the engine stays deterministic); on every other word
/// of its range the shard is the only writer and the RMW is plain. The
/// serial engine and the serial phases of a sharded cycle use the plain
/// instantiations, which ignore `edge`.
template <bool Atomic = false>
inline void set_bit(std::vector<std::uint64_t>& w, std::uint32_t i,
                    ShardWords edge = {}) {
  const std::uint64_t m = 1ULL << (i & 63);
  if (Atomic && edge.shared(i >> 6))
    std::atomic_ref<std::uint64_t>(w[i >> 6])
        .fetch_or(m, std::memory_order_relaxed);
  else
    w[i >> 6] |= m;
}
template <bool Atomic = false>
inline void clear_bit(std::vector<std::uint64_t>& w, std::uint32_t i,
                      ShardWords edge = {}) {
  const std::uint64_t m = 1ULL << (i & 63);
  if (Atomic && edge.shared(i >> 6))
    std::atomic_ref<std::uint64_t>(w[i >> 6])
        .fetch_and(~m, std::memory_order_relaxed);
  else
    w[i >> 6] &= ~m;
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

/// Clears the `mask` bits of word `w` and returns the ones that were set
/// (locked only on a boundary word, as set_bit).
template <bool Atomic = false>
inline std::uint64_t take_bits(std::vector<std::uint64_t>& words,
                               std::uint32_t w, std::uint64_t mask,
                               ShardWords edge = {}) {
  if (Atomic && edge.shared(w))
    return std::atomic_ref<std::uint64_t>(words[w])
               .fetch_and(~mask, std::memory_order_relaxed) &
           mask;
  const std::uint64_t bits = words[w] & mask;
  words[w] &= ~mask;
  return bits;
}

template <bool Atomic>
inline void Simulator::push_flit(std::uint32_t ix, NodeId node, Flit f,
                                 ShardScratch* ss) {
  FlitFifoArena& fifos = net_.fifos();
  assert(!fifos.full(ix) && "credit protocol violated");
  fifos.push(ix, f);
  if (fifos.size(ix) == 1) {
    const std::uint32_t meta = fifos.meta(ix);
    if (Network::ivc_state_of(meta) == IvcState::Idle) {
      // A fresh head: needs RC/VA.
      set_bit<Atomic>(ctx_->ivc_pending, ix,
                      Atomic ? ss->ivc_words : ShardWords{});
      __builtin_prefetch(&ctx_->pool[f.pkt()]);  // RC reads it next cycle
    } else {
      // Refilled an Active VC: its output port may have been parked on an
      // empty FIFO — wake it for SA.
      assert(Network::ivc_state_of(meta) == IvcState::Active);
      const auto port = static_cast<PortIx>(Network::ivc_port_of(meta));
      set_bit<Atomic>(ctx_->port_pending, net_.out_port_index(node, port),
                      Atomic ? ss->port_words : ShardWords{});
    }
    mark_work(node);
  }
  ctx_->ract[static_cast<std::size_t>(node)] += 2;  // +1 buffered flit
  set_bit<Atomic>(ctx_->active, static_cast<std::uint32_t>(node),
                  Atomic ? ss->active_words : ShardWords{});
}

template <bool Atomic>
inline bool Simulator::return_credit(std::uint32_t pflat, std::uint32_t lane,
                                     NodeId node, ShardScratch* ss) {
  std::uint32_t* rec = net_.port_rec(pflat);
  // ++credits (bit 0 of the lane is the busy flag). The whole port record
  // shares one cache line, so the requester check is free after the bump.
  reinterpret_cast<std::uint16_t*>(rec)[lane] += 2;
  if ((rec[0] & 0xff) == 0) return false;
  set_bit<Atomic>(ctx_->port_pending, pflat,
                  Atomic ? ss->port_words : ShardWords{});
  mark_work(node);
  return true;
}

template <bool Atomic>
inline bool Simulator::wake_waiters(std::uint32_t ovcflat, ShardScratch* ss) {
  std::uint32_t wix = ctx_->ovc_waiters[ovcflat];
  if (wix == kNoWaiter) return false;
  ctx_->ovc_waiters[ovcflat] = kNoWaiter;
  const ShardWords edge = Atomic ? ss->ivc_words : ShardWords{};
  do {
    set_bit<Atomic>(ctx_->ivc_pending, wix, edge);
    const std::uint32_t nx = ctx_->ivc_wait_next[wix];
    ctx_->ivc_wait_next[wix] = kNoWaiter;
    wix = nx;
  } while (wix != kNoWaiter);
  return true;
}

template <bool Atomic>
inline bool Simulator::release_ivc(std::uint32_t ix, ShardScratch* ss) {
  FlitFifoArena& fifos = net_.fifos();
  fifos.set_meta(ix,
                 Network::pack_ivc(kInvalidPort, kInvalidVc, IvcState::Idle));
  ctx_->ivc_pkt[ix] = kInvalidPacket;
  if (fifos.empty(ix)) return false;
  // The next head needs RC/VA.
  set_bit<Atomic>(ctx_->ivc_pending, ix,
                  Atomic ? ss->ivc_words : ShardWords{});
  return true;
}

inline void Simulator::release_ovc(std::uint32_t* rec, std::uint32_t vc) {
  Network::ovc16(rec)[vc] &= 0xfffe;  // clear the busy bit
}

inline std::uint32_t Simulator::drop_requester(std::uint32_t* rec,
                                               std::uint32_t k,
                                               std::uint32_t rr) {
  std::uint16_t* reqs = Network::ovc16(rec) + net_.num_vcs();
  const std::uint32_t left = (rec[0] & 0xff) - 1;
  for (std::uint32_t j = k; j < left; ++j) reqs[j] = reqs[j + 1];
  // count | rr in the low half; the token bucket (high half) is untouched.
  rec[0] = (rec[0] & 0xffff0000u) |
           (left == 0 ? 0 : left | ((rr >= left ? 0 : rr) << 8));
  return left;
}

}  // namespace sldf::sim
