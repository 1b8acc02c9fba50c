// The per-cycle hot path, in one translation unit so the compiler inlines
// it whole: step(), channel delivery, the router walk and pipeline with its
// prefetcher, ejection and the shard commit.
#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>

#include "sim/transitions.hpp"

namespace sldf::sim {

namespace {

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
  const ShardWords active_words = Sharded ? ss->active_words : ShardWords{};
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
    push_flit<Sharded>(ev.vc_flat, ev.node, ev.flit, ss);
  }
  // Pass 2: credit returns. A credit can unblock the output port that owns
  // the VC, so return_credit wakes it if it has requesters. A credit
  // event's `vc_flat` is `(pflat << kPortLaneBits) | u16-lane`.
  for (std::size_t j = 0; j < nc; ++j) {
    if (j + kPf < nc)  // vc_flat addresses a port record
      __builtin_prefetch(net_.port_rec(slot[cr[j + kPf]].vc_flat >>
                                       Network::kPortLaneBits));
    const WheelEvent& ev = slot[cr[j]];
    return_credit<Sharded>(ev.vc_flat >> Network::kPortLaneBits,
                           ev.vc_flat & Network::kLaneMask, ev.node, ss);
    set_bit<Sharded>(ctx_->active, static_cast<std::uint32_t>(ev.node),
                     active_words);
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

template <bool Sharded>
void Simulator::process_router_impl(NodeId rid, ShardScratch* ss) {
  // This shard's boundary words of the two pending bitmaps (see set_bit).
  const ShardWords ivc_words = Sharded ? ss->ivc_words : ShardWords{};
  const ShardWords port_words = Sharded ? ss->port_words : ShardWords{};
  // True when this call leaves any pending bit set for this router (so the
  // work flag must stay armed for next cycle).
  bool leftover = false;
  const auto nvc = static_cast<std::uint32_t>(net_.num_vcs());
  FlitFifoArena& fifos = net_.fifos();
  const std::uint32_t ibase = net_.in_vc_index(rid, 0, 0);
  const std::uint32_t pbegin = net_.out_port_index(rid, 0);
  // Schedules `ev` `delay` cycles ahead (a shard buffers it for the commit).
  const auto push_event = [&](std::uint32_t delay, const WheelEvent& ev) {
    const auto slot = static_cast<std::uint32_t>((now_ + delay) & wheel_mask_);
    if constexpr (Sharded)
      ss->events.push_back(PendingEvent{slot, ev});
    else
      ctx_->wheel[slot].push_back(ev);
  };

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
          set_bit<Sharded>(ctx_->port_pending, pflat, port_words);
          std::uint16_t* reqs = Network::ovc16(rec) + nvc;
          reqs[rec[0] & 0xff] = static_cast<std::uint16_t>((pi << 8) | vi);
          ++rec[0];  // ++count (u8, max nvc requesters — never carries)
          fifos.set_meta(ix, (meta & ~0xffu) |
                                 static_cast<std::uint32_t>(IvcState::Active));
          clear_bit<Sharded>(ctx_->ivc_pending, ix, ivc_words);
        } else {
          // Busy: park on the output VC's waiter chain instead of
          // re-polling every cycle. The tail flit that frees the VC
          // re-arms the pending bit, and the next cycle's ascending scan
          // retries — the first cycle a poll loop could have succeeded.
          const std::uint32_t ovcflat =
              pflat * nvc + Network::ivc_vc_of(meta);
          ctx_->ivc_wait_next[ix] = ctx_->ovc_waiters[ovcflat];
          ctx_->ovc_waiters[ovcflat] = ix;
          clear_bit<Sharded>(ctx_->ivc_pending, ix, ivc_words);
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
            clear_bit<Sharded>(ctx_->port_pending, pflat, port_words);
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
          push_event(cr.latency(),
                     WheelEvent{(cr.credit_port() << Network::kPortLaneBits) |
                                    (Network::kOvcLane0 + vi),
                                cr.src, Flit{}});
        }
        if (is_eject) {
          // Packet-local and order-insensitive parts happen here; a shard
          // defers the order-sensitive rest (listener, pool release) so the
          // commit pass replays it in router order.
          ++ctx_->pool[f.pkt()].flits_ejected;
          ++(Sharded ? ss->ejected_flits : ejected_flits_);
          if (now_ >= cfg_.warmup && now_ < cfg_.warmup + cfg_.measure)
            ++(Sharded ? ss->accepted_flits : accepted_flits_);
          if (f.tail()) {
            if constexpr (Sharded)
              ss->tails.push_back(f.pkt());
            else
              commit_tail(f.pkt());
          }
        } else {
          ++(Sharded ? ss->flit_hops : flit_hops_);
          ov[out_vc] -= 2;                     // --credits
          rec[0] -= (link_meta >> 24) << 16;   // consume width_den tokens
          if (f.head()) {
            Packet& pkt = ctx_->pool[f.pkt()];
            ++pkt.hops[static_cast<int>((link_meta >> 8) & 0xff)];
          }
          push_event(link_meta & 0xff,
                     WheelEvent{rec[Network::kDstVcBase] + out_vc, dst, f});
        }
        if (f.tail()) {
          release_ovc(rec, out_vc);
          // Wake every VC parked on this output VC (see the VA else-branch).
          if (wake_waiters<Sharded>(pflat * nvc + out_vc, ss))
            leftover = true;
          if (release_ivc<Sharded>(ix, ss)) {  // the next head is waiting
            __builtin_prefetch(&ctx_->pool[fifos.front(ix).pkt()]);  // RC
            leftover = true;
          }
          // The cursor stays at `chosen`, now the next requester's slot.
          if (drop_requester(rec, chosen, chosen) == 0) {
            clear_bit<Sharded>(ctx_->port_pending, pflat, port_words);
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
  const ShardWords active_words = Sharded ? ss->active_words : ShardWords{};
  const std::uint32_t wend = lo < hi ? ((hi - 1) >> 6) + 1 : 0;
  const auto next_word = [&](std::uint32_t w) {
    while (w < wend && masked_word<Sharded>(ctx_->active, w, lo, hi) == 0)
      ++w;
    return w;
  };
  for (std::uint32_t w = next_word(lo >> 6), wnext = 0; w < wend;
       w = wnext) {
    std::uint64_t bits =
        take_bits<Sharded>(ctx_->active, w, range_mask(w, lo, hi),
                           active_words);
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
    if (Sharded && active_words.shared(w))
      std::atomic_ref<std::uint64_t>(ctx_->active[w])
          .fetch_or(kept, std::memory_order_relaxed);
    else
      ctx_->active[w] |= kept;
  }
  return count;
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
  sc.inj_drained = 0;
  inject_impl<true>(term_bounds_[static_cast<std::size_t>(k)],
                    term_bounds_[static_cast<std::size_t>(k) + 1], &sc);
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
    inj_terms_ -= sc.inj_drained;
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
// delivery, injection and router phases run, never in what they do:
//
//   1. Delivery. Each shard drains the slot's events addressed to its own
//      routers, flits then credits (their state is shard-local; only the
//      boundary words of the pending and active bitmaps, which two shards
//      can share, take locked bit ops). Setting a bit is idempotent, so
//      the active set does not depend on who delivered first.
//   2. Generation stays serial, after delivery: the RNG stream, pool ids
//      and (adaptive) init_packet credit reads observe the identical
//      engine state.
//   3. Injection and router walk. Every shard first injects one flit from
//      each non-empty source queue of the terminals on its routers (shards
//      are chip-aligned and terminals ascend by node, so that is one
//      contiguous terminal range; emptied queues clear their inj_pending
//      bit and are tallied per shard), then walks the active bits of its
//      own contiguous router range in ascending id. Per-router work is
//      shard-local (routing reads only immutable topology, the packet,
//      and the router's own SoA slices); the only cross-router effects —
//      wheel pushes and tail deliveries — are buffered per shard, and
//      keep-alive bits go straight back into the bitmap.
//   4. Commit. The driving thread appends shard 0's buffered events and
//      tails, then shard 1's, and so on: shards own ascending id ranges, so
//      this concatenation is the serial walk's wheel-slot event order,
//      listener-callback order and packet-pool free-list order.
//
// Hence fixed-seed results (and checkpoints) are bit-identical for every
// shard count and for every gate decision. The gate reads the work this
// cycle did, both parts counted anyway: the flits it moved (channel hops
// plus ejections) and the routers it walked. A cycle that moved at least
// kShardGateFlits or walked at least kShardGateRouters runs the next one
// on the team.
void Simulator::step() {
  PhaseClock clock(cfg_.phase_timers);
  const std::uint64_t moved_before = flit_hops_ + ejected_flits_;
  // Fault timeline transitions happen at the cycle boundary, before any
  // engine phase — and always serially, so every shard count observes the
  // identical post-event state.
  if (next_fault_at() <= now_) {
    do apply_fault_step(fault_sched_->steps[next_fault_++]);
    while (next_fault_at() <= now_);
    clock.lap(phases_.fault_s);
  }
  if (parallel_ && !ctx_->wheel[now_ & wheel_mask_].empty()) {
    run_team(&Simulator::deliver_shard);
    ctx_->wheel[now_ & wheel_mask_].clear();
  } else {
    deliver_impl<false>(0, 0, nullptr);
  }
  clock.lap(phases_.deliver_s);
  generate();
  clock.lap(phases_.generate_s);

  if (parallel_) {
    ++phases_.parallel_cycles;
    run_team(&Simulator::walk_shard);
    clock.lap(phases_.walk_s);
    commit_shards();
    clock.lap(phases_.commit_s);
  } else {
    ++phases_.serial_cycles;
    if (inj_terms_ != 0)
      inject_impl<false>(0, static_cast<std::uint32_t>(ctx_->terms.size()),
                         nullptr);
    last_walk_ = walk_impl<false>(
        0, static_cast<std::uint32_t>(net_.num_routers()), nullptr);
    clock.lap(phases_.walk_s);
  }
  phases_.routers_walked += last_walk_.walked;
  parallel_ = shards_ > 1 &&
              (!gated_ ||
               flit_hops_ + ejected_flits_ - moved_before >= kShardGateFlits ||
               last_walk_.walked >= kShardGateRouters);
  ++now_;
}

}  // namespace sldf::sim
