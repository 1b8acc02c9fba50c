#include "route/swless_routing.hpp"

#include <algorithm>
#include <cassert>

#include "route/fault_detour.hpp"

namespace sldf::route {

using sim::RoutePhase;
using topo::SwlessTopo;

namespace {

/// The line channel of the global link leaving W-group `wg` toward `peer`.
ChanId gateway_line(const SwlessTopo& T, std::int32_t wg, std::int32_t peer) {
  const int link = SwlessTopo::global_link(wg, peer);
  const auto& gate = T.cgroup(wg, link / T.p.global_ports)
                         .globals[static_cast<std::size_t>(
                             link % T.p.global_ports)];
  return gate.line_out;
}

/// Liveness of one side of an external port: the host->converter attach
/// link (a dead host chip takes it down). Without converters the attach is
/// the line itself, covered by the line check.
bool attach_live(const sim::Network& net, const topo::ExtPort& ep) {
  return ep.io == kInvalidNode || net.chan_live(ep.exit_chan);
}

/// The local cable between C-groups `ca` and `cb` of W-group `wg` is
/// usable: line live plus both converter attaches (duplex halves die
/// together, so one direction each suffices).
bool local_usable(const sim::Network& net, const SwlessTopo& T, int wg,
                  int ca, int cb) {
  const auto& ea = T.cgroup(wg, ca).locals[static_cast<std::size_t>(
      SwlessTopo::local_index(ca, cb))];
  const auto& eb = T.cgroup(wg, cb).locals[static_cast<std::size_t>(
      SwlessTopo::local_index(cb, ca))];
  return net.chan_live(ea.line_out) && attach_live(net, ea) &&
         attach_live(net, eb);
}

/// The global cable between W-groups `wa` and `wb` is usable end to end.
bool global_usable(const sim::Network& net, const SwlessTopo& T, int wa,
                   int wb) {
  const int H = T.p.global_ports;
  const int la = SwlessTopo::global_link(wa, wb);
  const int lb = SwlessTopo::global_link(wb, wa);
  const auto& ea =
      T.cgroup(wa, la / H).globals[static_cast<std::size_t>(la % H)];
  const auto& eb =
      T.cgroup(wb, lb / H).globals[static_cast<std::size_t>(lb % H)];
  return net.chan_live(ea.line_out) && attach_live(net, ea) &&
         attach_live(net, eb);
}

/// A Valiant-style detour W-group for src -> dst whose two global legs are
/// both usable (shared policy: route/fault_detour.hpp).
std::int32_t pick_mid_wgroup(const sim::Network& net, const SwlessTopo& T,
                             std::int32_t swg, std::int32_t dwg, Rng& rng) {
  return pick_detour_group(T.p.effective_wgroups(), swg, dwg, rng,
                           [&](std::int32_t a, std::int32_t b) {
                             return global_usable(net, T, a, b);
                           });
}

/// Intermediate C-group detouring a dead local cable `from` -> `to` within
/// `wg` (both detour legs live); -1 when none exists.
int pick_local_via(const sim::Network& net, const SwlessTopo& T, int wg,
                   int from, int to) {
  return pick_detour_via(T.p.ab(), from, to, [&](int a, int b) {
    return local_usable(net, T, wg, a, b);
  });
}

}  // namespace

void SwlessRouting::init_packet(const sim::Network& net, sim::Packet& pkt,
                                Rng& rng) {
  pkt.vc_class = 0;
  pkt.phase = RoutePhase::SrcCGroup;
  pkt.target = kInvalidNode;
  pkt.exit_chan = kInvalidChan;
  pkt.mid_wgroup = -1;
  pkt.stalled = 0;
  if (topo_ == nullptr) topo_ = &net.topo<SwlessTopo>();
  const auto& T = *topo_;
  const auto& sloc = T.loc[static_cast<std::size_t>(pkt.src)];
  const auto& dloc = T.loc[static_cast<std::size_t>(pkt.dst)];
  const int G = T.p.effective_wgroups();

  if (net.has_faults() && sloc.wg != dloc.wg) {
    // Fault-aware leg planning: a dead global cable on the minimal path is
    // routed around through an intermediate W-group whose two global legs
    // are live (the path-diversity argument of the paper — the detour costs
    // one extra global hop, not connectivity). Local-link and mesh faults
    // are detoured per leg in plan_leg()/route().
    const bool direct_ok = global_usable(net, T, sloc.wg, dloc.wg);
    if (G <= 2) return;  // no intermediate exists; stall if direct is dead
    switch (mode_) {
      case RouteMode::Minimal:
        if (!direct_ok)
          pkt.mid_wgroup = pick_mid_wgroup(net, T, sloc.wg, dloc.wg, rng);
        return;
      case RouteMode::Valiant: {
        const std::int32_t mid =
            pick_mid_wgroup(net, T, sloc.wg, dloc.wg, rng);
        // No usable bounce: fall back to the minimal path when it is live.
        pkt.mid_wgroup = (mid < 0 && direct_ok) ? -1 : mid;
        return;
      }
      case RouteMode::Adaptive: {
        const std::int32_t mid =
            pick_mid_wgroup(net, T, sloc.wg, dloc.wg, rng);
        if (!direct_ok || mid < 0) {
          pkt.mid_wgroup = mid;  // forced detour (or stall when mid < 0)
          return;
        }
        const int q_min =
            net.channel_occupancy(gateway_line(T, sloc.wg, dloc.wg));
        const int q_val = net.channel_occupancy(gateway_line(T, sloc.wg, mid));
        constexpr int kThreshold = 4;
        if (q_min > 2 * q_val + kThreshold) pkt.mid_wgroup = mid;
        return;
      }
    }
    return;
  }

  if (mode_ == RouteMode::Minimal || sloc.wg == dloc.wg || G <= 2) return;

  std::int32_t mid;
  do {
    mid = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(G)));
  } while (mid == sloc.wg || mid == dloc.wg);

  if (mode_ == RouteMode::Valiant) {
    pkt.mid_wgroup = mid;
    return;
  }
  // Adaptive (UGAL-L): misroute via `mid` only when the minimal gateway is
  // at least twice as congested as the candidate's (the non-minimal path
  // pays two global hops), with a small threshold to prefer minimal.
  const int q_min = net.channel_occupancy(gateway_line(T, sloc.wg, dloc.wg));
  const int q_val = net.channel_occupancy(gateway_line(T, sloc.wg, mid));
  constexpr int kThreshold = 4;  // flits of slack granted to minimal
  if (q_min > 2 * q_val + kThreshold) pkt.mid_wgroup = mid;
}

std::uint8_t SwlessRouting::class_for(RoutePhase np, std::uint8_t cur) const {
  switch (scheme_) {
    case VcScheme::Baseline:
      return static_cast<std::uint8_t>(cur + 1);
    case VcScheme::Reduced:
      switch (np) {
        case RoutePhase::SrcWGroup: return 1;
        case RoutePhase::MidWEntry:
        case RoutePhase::MidWExit: return 3;
        case RoutePhase::DstWEntry:
        case RoutePhase::DstCGroup: return 2;
        default: return cur;
      }
    case VcScheme::ReducedSafe:
      if (mode_ == RouteMode::Minimal) {
        switch (np) {
          case RoutePhase::SrcWGroup: return 1;
          case RoutePhase::DstWEntry: return 2;
          case RoutePhase::DstCGroup: return 3;
          default: return cur;
        }
      }
      switch (np) {
        case RoutePhase::SrcWGroup: return 1;
        case RoutePhase::MidWEntry:
        case RoutePhase::MidWExit: return 2;
        case RoutePhase::DstWEntry: return 3;
        case RoutePhase::DstCGroup: return 4;
        default: return cur;
      }
  }
  return cur;
}

void SwlessRouting::plan_leg(const sim::Network& net, const SwlessTopo& T,
                             NodeId router, sim::Packet& pkt) const {
  const auto& loc = T.loc[static_cast<std::size_t>(router)];
  const auto& dloc = T.loc[static_cast<std::size_t>(pkt.dst)];
  if (pkt.mid_wgroup == loc.wg) pkt.mid_wgroup = -1;  // bounce reached

  if (loc.wg == dloc.wg && loc.cg == dloc.cg) {
    // Final leg: route within this C-group to the destination core.
    pkt.target = pkt.dst;
    pkt.exit_chan = kInvalidChan;
    pkt.phase = RoutePhase::DstCGroup;
    return;
  }

  const bool faulty = net.has_faults();
  const auto& inst = T.cgroup(loc.wg, loc.cg);
  const topo::ExtPort* exit = nullptr;
  RoutePhase np;
  pkt.stalled = 0;
  // A local leg to C-group `ncg` whose direct cable is dead detours through
  // an intermediate sibling (all-to-all local wiring gives a*b - 2 detour
  // candidates); the extra crossing keeps the leg's phase class, and the
  // next plan_leg() at the intermediate C-group finishes the leg.
  const auto local_leg = [&](int ncg) -> const topo::ExtPort* {
    if (faulty && !local_usable(net, T, loc.wg, loc.cg, ncg)) {
      const int via = pick_local_via(net, T, loc.wg, loc.cg, ncg);
      if (via >= 0)
        ncg = via;
      else
        pkt.stalled = 1;  // stall on the dead cable (reported)
    }
    return &inst.locals[static_cast<std::size_t>(
        SwlessTopo::local_index(loc.cg, ncg))];
  };
  if (loc.wg == dloc.wg) {
    // One local hop to the destination C-group (Algorithm 1 steps 5-6,
    // or steps 1-2 for intra-W-group traffic).
    exit = local_leg(dloc.cg);
    np = RoutePhase::DstCGroup;
  } else {
    const int H = T.p.global_ports;
    std::int32_t wnext = pkt.mid_wgroup >= 0 ? pkt.mid_wgroup : dloc.wg;
    if (faulty && !global_usable(net, T, loc.wg, wnext)) {
      // Online failure of the planned global leg (init_packet saw an older
      // mask, or a fault step hit mid-flight): re-bounce through the
      // lowest-index W-group with two live legs. No Rng here — route()
      // must stay deterministic and stream-neutral.
      const std::int32_t mid = pick_detour_group_det(
          T.p.effective_wgroups(), loc.wg, dloc.wg,
          [&](std::int32_t a, std::int32_t b) {
            return global_usable(net, T, a, b);
          });
      if (mid >= 0) {
        pkt.mid_wgroup = mid;
        wnext = mid;
      } else {
        pkt.stalled = 1;  // keep the dead gateway and stall (reported)
      }
    }
    const int link = SwlessTopo::global_link(loc.wg, wnext);
    const int owner = link / H;
    if (owner == loc.cg) {
      exit = &inst.globals[static_cast<std::size_t>(link % H)];
      np = (wnext == dloc.wg) ? RoutePhase::DstWEntry
                              : RoutePhase::MidWEntry;
    } else {
      exit = local_leg(owner);
      // A fault detour can land mid-transit (phase already MidWExit); keep
      // the transit class instead of falling back to SrcWGroup.
      np = (pkt.phase == RoutePhase::MidWEntry ||
            pkt.phase == RoutePhase::MidWExit)
               ? RoutePhase::MidWExit
               : RoutePhase::SrcWGroup;
    }
  }
  assert(exit->exit_chan != kInvalidChan && "unwired external port");
  pkt.target = exit->host;
  pkt.exit_chan = exit->exit_chan;
  pkt.next_phase = np;
  // Clamp to the installed budget: pathological fault sets can push the
  // Baseline class ladder past the fault-tolerant reserve; a clamped class
  // may cost deadlock freedom (the audit reports it) but never an OOB VC.
  pkt.next_class = static_cast<std::uint8_t>(std::min<int>(
      class_for(np, pkt.vc_class),
      (own_vcs_ > 0 ? own_vcs_ : net.num_vcs()) - 1));
}

int SwlessRouting::mesh_dir(const SwlessTopo& T, const sim::Packet& pkt,
                            int cur_pos, int tgt_pos) const {
  bool mono = false;
  if (scheme_ == VcScheme::Reduced) {
    mono = pkt.phase == RoutePhase::MidWEntry ||
           pkt.phase == RoutePhase::MidWExit ||
           pkt.phase == RoutePhase::DstWEntry;
  } else if (scheme_ == VcScheme::ReducedSafe) {
    mono = pkt.phase == RoutePhase::MidWEntry ||
           pkt.phase == RoutePhase::MidWExit;
  }
  if (mono && !T.monotone.empty()) {
    const int d = T.monotone.dir(tgt_pos, cur_pos);
    if (d >= 0) return d;
    // Discipline hole: fall back to dimension order (the audit status of
    // this fallback is in docs/ARCHITECTURE.md, "route").
  }
  return xy_dir(T.shape.mx(), cur_pos, tgt_pos);
}

ChanId SwlessRouting::mesh_detour(const sim::Network& net,
                                  const SwlessTopo& T, NodeId router,
                                  PortIx in_port, int cur_pos, int tgt_pos,
                                  ChanId dead) const {
  const auto& loc = T.loc[static_cast<std::size_t>(router)];
  const auto& inst = T.cgroup(loc.wg, loc.cg);
  const auto& out = inst.mesh_out[static_cast<std::size_t>(cur_pos)];
  const int mx = T.shape.mx();
  const int cx = cur_pos % mx, cy = cur_pos / mx;
  const int tx = tgt_pos % mx, ty = tgt_pos / mx;

  // The direction we arrived from (never detour straight back unless it is
  // the only live option): derived from the upstream router's position.
  int back = -1;
  if (in_port >= 0) {
    const ChanId ic =
        net.router(router).in[static_cast<std::size_t>(in_port)].in_chan;
    if (ic != kInvalidChan) {
      const NodeId prev = net.chan(ic).src;
      const auto& ploc = T.loc[static_cast<std::size_t>(prev)];
      if (ploc.wg == loc.wg && ploc.cg == loc.cg && ploc.pos >= 0)
        back = xy_dir(mx, cur_pos, ploc.pos);
    }
  }

  const auto live = [&](int d) {
    const ChanId c = out[static_cast<std::size_t>(d)];
    return c != kInvalidChan && net.chan_live(c) ? c : kInvalidChan;
  };
  // Productive directions first (both dimensions toward the target) ...
  const int prod[2] = {tx > cx ? topo::kEast : (tx < cx ? topo::kWest : -1),
                       ty > cy ? topo::kSouth : (ty < cy ? topo::kNorth : -1)};
  for (const int d : prod) {
    if (d < 0 || out[static_cast<std::size_t>(d)] == dead) continue;
    if (const ChanId c = live(d); c != kInvalidChan) return c;
  }
  // ... then any live direction except straight back (misroute) ...
  for (int d = 0; d < topo::kNumDirs; ++d) {
    if (d == back || out[static_cast<std::size_t>(d)] == dead) continue;
    if (const ChanId c = live(d); c != kInvalidChan) return c;
  }
  // ... then even straight back; a fully cut-off router keeps the dead
  // channel and stalls (degraded operation is reported, not crashed).
  if (back >= 0)
    if (const ChanId c = live(back); c != kInvalidChan) return c;
  return dead;
}

sim::RouteDecision SwlessRouting::route(const sim::Network& net, NodeId router,
                                        PortIx in_port, sim::Packet& pkt) {
  // Cached across calls: the topo downcast (dynamic_cast) is far too
  // expensive for a per-head-flit path. The Network owns the topo info, so
  // the pointer is stable for this network's lifetime.
  if (topo_ == nullptr) topo_ = &net.topo<SwlessTopo>();
  const auto& T = *topo_;
  const auto vcix = [&] { return static_cast<VcIx>(pkt.vc_class); };

  if (net.kind_of(router) == NodeKind::IoConverter) {
    // Port layout: in/out 0 = attach (host side), in/out 1 = line.
    if (in_port == 0) {
      const ChanId line = net.router(router).out[1].out_chan;
      if (net.has_faults() && !net.chan_live(line) && !pkt.stalled) {
        // The line died after this packet committed to the converter:
        // bounce back to the host C-group with the plan cleared (phase and
        // class untouched — no crossing happened), so the next plan_leg()
        // re-plans against the updated mask. Packets whose plan *knowingly*
        // kept this dead cable (pkt.stalled: no live detour existed) are
        // not bounced — the re-plan would pick the same exit and the packet
        // would ping-pong host<->converter forever, a cycle in the CDG.
        // They stall on the dead line below, like any other dead channel.
        pkt.target = kInvalidNode;
        pkt.exit_chan = kInvalidChan;
        return {static_cast<PortIx>(0), vcix()};
      }
      // Leaving the C-group: the crossing applies phase and VC class.
      pkt.phase = pkt.next_phase;
      pkt.vc_class = pkt.next_class;
      pkt.target = kInvalidNode;
      pkt.exit_chan = kInvalidChan;
      return {static_cast<PortIx>(1), vcix()};
    }
    return {static_cast<PortIx>(0), vcix()};
  }

  if (router == pkt.dst) return {net.eject_port_of(router), vcix()};
  if (pkt.target == kInvalidNode ||
      (pkt.exit_chan == kInvalidChan && pkt.target != pkt.dst) ||
      (net.has_faults() && pkt.exit_chan != kInvalidChan &&
       (!net.chan_live(pkt.exit_chan) || !net.node_live(pkt.target)))) {
    // No plan yet, or a fault step invalidated the cached one (the planned
    // exit cable or its gateway host died under the packet). The middle
    // clause catches a stale *final-leg* plan: exit_chan == kInvalidChan
    // means "target IS the destination", which only holds while
    // target == dst — a wafer dispatcher re-aiming pkt.dst at a different
    // portal column (fault-driven exit rechoice) must force a re-plan, or
    // the router == target case below would dereference the invalid chan.
    plan_leg(net, T, router, pkt);
  }

  if (router == pkt.target) {
    const PortIx out = net.out_port_of(pkt.exit_chan);
    if (!T.p.io_converters) {
      // No conversion modules (small-scale variant): the crossing happens
      // here and the line channel carries the next class.
      pkt.phase = pkt.next_phase;
      pkt.vc_class = pkt.next_class;
      pkt.target = kInvalidNode;
      pkt.exit_chan = kInvalidChan;
    }
    return {out, vcix()};
  }

  const auto& loc = T.loc[static_cast<std::size_t>(router)];
  const auto& tloc = T.loc[static_cast<std::size_t>(pkt.target)];
  assert(tloc.wg == loc.wg && tloc.cg == loc.cg && tloc.pos >= 0);
  const int d = mesh_dir(T, pkt, loc.pos, tloc.pos);
  assert(d >= 0);
  const auto& inst = T.cgroup(loc.wg, loc.cg);
  ChanId c = inst.mesh_out[static_cast<std::size_t>(loc.pos)]
                          [static_cast<std::size_t>(d)];
  assert(c != kInvalidChan);
  if (net.has_faults() && !net.chan_live(c))
    c = mesh_detour(net, T, router, in_port, loc.pos, tloc.pos, c);
  return {net.out_port_of(c), vcix()};
}

}  // namespace sldf::route
