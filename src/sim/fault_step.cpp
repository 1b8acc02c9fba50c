// Online fault-timeline steps: the fault step and packet drops.
#include <algorithm>
#include <cassert>
#include <vector>

#include "sim/transitions.hpp"

namespace sldf::sim {

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
  const auto& credit_return = net_.credit_return_by_port();
  const auto nvc = static_cast<std::uint32_t>(net_.num_vcs());

  // --- (1) mark node deaths first, so liveness predicates below see them.
  for (const NodeId n : fs.fail_nodes) {
    net_.set_node_alive(n, false);
    const std::int32_t ti = ctx_->term_of_node[static_cast<std::size_t>(n)];
    if (ti >= 0) ctx_->terms[static_cast<std::size_t>(ti)].next_gen = ~0ULL;
  }
  std::vector<std::uint8_t> port_dying(net_.num_out_ports(), 0);
  for (const ChanId c : fs.fail_chans)
    port_dying[net_.out_port_index(net_.chan(c).src, net_.out_port_of(c))] = 1;

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
  // 2a. in flight on a dying channel (its upstream port is dying), or
  // bound for a dead destination. A flit's input port is vc_flat / nvc.
  for (const auto& slot : ctx_->wheel) {
    for (const WheelEvent& ev : slot) {
      if (!ev.flit.carries_packet()) continue;  // credits keep flowing
      if (port_dying[credit_return[ev.vc_flat / nvc].credit_port()] ||
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
  // wheel slots ascending, then routers/ports/VCs ascending). Every removed
  // flit's buffer slot goes back to its upstream output VC (none for
  // injection ports), so the channel regains full capacity on repair.
  const auto refund = [&](const Network::CreditReturn& cr, std::uint32_t v) {
    if (cr.src != kInvalidNode &&
        return_credit<false>(cr.credit_port(), Network::kOvcLane0 + v, cr.src,
                             nullptr))
      wake_router(cr.src);
  };
  for (auto& slot : ctx_->wheel) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < slot.size(); ++i) {
      const WheelEvent& ev = slot[i];
      if (!ev.flit.carries_packet() || !affected[ev.flit.pkt()]) {
        slot[w++] = slot[i];
        continue;
      }
      refund(credit_return[ev.vc_flat / nvc], ev.vc_flat % nvc);
    }
    slot.resize(w);
  }

  const auto unlink_waiter = [&](std::uint32_t ovcflat, std::uint32_t ix) {
    for (std::uint32_t* link = &ctx_->ovc_waiters[ovcflat]; *link != kNoWaiter;
         link = &ctx_->ivc_wait_next[*link])
      if (*link == ix) {
        *link = ctx_->ivc_wait_next[ix];
        return;
      }
  };

  std::vector<Flit> keep;
  for (std::size_t r = 0; r < net_.num_routers(); ++r) {
    const auto rid = static_cast<NodeId>(r);
    const std::uint32_t ibase = net_.in_vc_index(rid, 0, 0);
    const std::uint32_t nin = net_.num_in_ports_of(rid);
    const std::uint32_t pbegin = net_.out_port_index(rid, 0);
    for (std::uint32_t p = 0; p < nin; ++p) {
      const Network::CreditReturn cr =
          credit_return[net_.in_port_index(rid, static_cast<PortIx>(p))];
      for (std::uint32_t v = 0; v < nvc; ++v) {
        const std::uint32_t ix = ibase + p * nvc + v;
        // Remove this VC's flits of affected packets.
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
          refund(cr, v);
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
          release_ovc(rec, ovc);
          if (!dying_port) {
            const std::uint16_t* reqs = Network::ovc16(rec) + nvc;
            const auto k = static_cast<std::uint32_t>(
                std::find(reqs, reqs + (rec[0] & 0xff), (p << 8) | v) - reqs);
            assert(k < (rec[0] & 0xff) && "Active VC missing from requesters");
            const std::uint32_t rr = (rec[0] >> 8) & 0xff;
            if (drop_requester(rec, k, rr > k ? rr - 1 : rr) == 0)
              clear_bit(ctx_->port_pending, pflat);
            // Wake parked waiters so one of them can claim the freed VC.
            if (wake_waiters<false>(pflat * nvc + ovc, nullptr))
              wake_router(rid);
          }
        } else {  // Routed: parked on a waiter chain, or pending re-scan
          if (!dying_port) unlink_waiter(pflat * nvc + ovc, ix);
          ctx_->ivc_wait_next[ix] = kNoWaiter;
        }
        if (release_ivc<false>(ix, nullptr))
          wake_router(rid);  // re-route survivors next cycle
        else
          clear_bit(ctx_->ivc_pending, ix);
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
      release_ovc(rec, v);
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
    assert(ctx_->term_of_node[static_cast<std::size_t>(pk.src)] >= 0 &&
           "packet source is not a terminal");
    TerminalState& t = term_at(pk.src);
    const auto ti = static_cast<std::size_t>(&t - ctx_->terms.data());
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
        if (t.queue.size() == 1) inj_mark(ti);
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
        if (t.queue.empty()) inj_unmark(ti);
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
      if (per_node_pkt_rate_ > 0.0 && net_.plane_of_node(n) == 0)
        arm_generation(static_cast<std::size_t>(ti), now_);
      else
        t.next_gen = ~0ULL;
    }
  }
  for (const ChanId c : fs.repair_chans) net_.enable_channel(c, now_);

  net_.bump_fault_epoch();
}

}  // namespace sldf::sim
