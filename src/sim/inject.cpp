// Generation and injection: the rate-driven sources, the closed-loop
// inject_packet() path, the generation heap and idle-cycle elision.
#include <algorithm>
#include <bit>
#include <stdexcept>

#include "route/plane_select.hpp"
#include "sim/transitions.hpp"

namespace sldf::sim {

namespace {

/// Heap ordering for SimContext::gen_heap: std::push_heap and friends build
/// a max-heap, so comparing with "fires later" keeps the EARLIEST pending
/// generation arrival at front().
inline bool gen_event_after(const GenEvent& a, const GenEvent& b) {
  return a.when > b.when;
}

}  // namespace

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

void Simulator::generate_terminal(std::size_t ti) {
  const Cycle gen_end = cfg_.warmup + cfg_.measure;
  TerminalState& t = ctx_->terms[ti];
  while (t.next_gen <= now_) {
    const Cycle when = t.next_gen;
    arm_generation(ti, when);
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
}

void Simulator::generate() {
  // Pop every generation arrival due this cycle into the gen_due scratch
  // bitmask (stale heap entries — fault deaths, re-arms — are discarded
  // here; see GenEvent). Without idle_skip the heap stays empty and `scan`
  // marks every terminal instead. Only plane-0 terminals generate, and
  // their twins take no clock, so generating never makes another terminal
  // due this cycle.
  auto& heap = ctx_->gen_heap;
  bool due = !cfg_.idle_skip;
  while (!heap.empty() && heap.front().when <= now_) {
    std::pop_heap(heap.begin(), heap.end(), gen_event_after);
    const GenEvent e = heap.back();
    heap.pop_back();
    if (ctx_->terms[e.term].next_gen != e.when) continue;
    set_bit(ctx_->gen_due, e.term);
    due = true;
  }
  if (!due) return;
  const auto nt = static_cast<std::uint32_t>(ctx_->terms.size());
  for (std::uint32_t w = 0; w < ctx_->gen_due.size(); ++w) {
    std::uint64_t bits =
        ctx_->gen_due[w] | (cfg_.idle_skip ? 0 : range_mask(w, 0, nt));
    ctx_->gen_due[w] = 0;
    while (bits) {
      const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      generate_terminal(w * 64 + b);
    }
  }
}

// Injection after generation is the fused per-terminal scan (generate at
// terminal i, then inject at i, in ascending i) reordered, and exact:
// injecting at i touches only i's queue and i's injection FIFO, and
// generating at j reads and writes only j's queue and those of j's plane
// twins, which sit at higher terminal indices (check_terminal_layout) —
// so no generation reads a queue the fused scan would already have
// injected from. Nothing generation reads elsewhere (credits for adaptive
// init_packet, liveness) does injection write.
template <bool Sharded>
void Simulator::inject_terminal(std::size_t ti, ShardScratch* ss) {
  TerminalState& t = ctx_->terms[ti];
  const PacketId pid = t.queue.front();
  const Packet& p = ctx_->pool[pid];
  if (t.pushed == 0) t.inj_vc = static_cast<VcIx>(p.vc_class);
  const std::uint32_t ix = t.inj_base + static_cast<std::uint32_t>(t.inj_vc);
  if (net_.fifos().full(ix)) return;
  push_flit<Sharded>(ix, t.node,
                     Flit(pid, t.pushed == 0, t.pushed + 1 == p.len), ss);
  if (++t.pushed != p.len) return;
  t.queue.pop_front();
  t.pushed = 0;
  if (!t.queue.empty()) return;
  if constexpr (Sharded) {
    clear_bit<true>(ctx_->inj_pending, static_cast<std::uint32_t>(ti),
                    ss->inj_words);
    ++ss->inj_drained;
  } else {
    inj_unmark(ti);
  }
}

template <bool Sharded>
void Simulator::inject_impl(std::uint32_t lo, std::uint32_t hi,
                            ShardScratch* ss) {
  for (std::uint32_t w = lo >> 6; lo < hi && w <= (hi - 1) >> 6; ++w) {
    std::uint64_t bits = masked_word<Sharded>(ctx_->inj_pending, w, lo, hi);
    while (bits) {
      const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      inject_terminal<Sharded>((w << 6) + b, ss);
    }
  }
}

template void Simulator::inject_impl<false>(std::uint32_t, std::uint32_t,
                                            ShardScratch*);
template void Simulator::inject_impl<true>(std::uint32_t, std::uint32_t,
                                           ShardScratch*);

void Simulator::arm_generation(std::size_t ti, Cycle after) {
  TerminalState& t = ctx_->terms[ti];
  t.next_gen =
      advance_next_gen(after, rng_.geometric_skip(per_node_pkt_rate_));
  if (!cfg_.idle_skip || t.next_gen == ~0ULL) return;
  auto& heap = ctx_->gen_heap;
  heap.push_back(GenEvent{t.next_gen, static_cast<std::uint32_t>(ti)});
  std::push_heap(heap.begin(), heap.end(), gen_event_after);
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

Cycle Simulator::try_skip_idle(Cycle limit) {
  // Anything already scheduled for this cycle pins time in place: routers
  // with buffered/pending work keep their active bit, and a non-empty
  // source queue injects a flit every cycle.
  if (!cfg_.idle_skip || limit <= now_ || last_walk_.kept != 0 ||
      inj_terms_ != 0)
    return now_;
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
  next = std::min(next, next_fault_at());  // next fault-timeline step
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
  if (next > now_) {
    ++phases_.skips;
    phases_.cycles_skipped += next - now_;
    now_ = next;
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

}  // namespace sldf::sim
