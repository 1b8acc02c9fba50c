#include "route/dragonfly_routing.hpp"

#include <algorithm>
#include <cassert>

#include "route/fault_detour.hpp"
#include "topo/dragonfly.hpp"

namespace sldf::route {

using topo::SwDfTopo;

namespace {

/// The global channel leaving `group` toward `peer`.
ChanId global_chan_of(const SwDfTopo& T, std::int32_t group,
                      std::int32_t peer) {
  const int H = T.p.globals_per_switch;
  const int link = SwDfTopo::global_link(group, peer);
  return T.global_chan[static_cast<std::size_t>(
      (group * T.p.switches_per_group + link / H) * H + link % H)];
}

/// The local channel from switch `sa` to switch `sb` within `group`.
ChanId local_chan_of(const SwDfTopo& T, std::int32_t group, int sa, int sb) {
  return T.local_chan[static_cast<std::size_t>(
      (group * T.p.switches_per_group + sa) * (T.p.switches_per_group - 1) +
      SwDfTopo::local_index(sa, sb))];
}

bool global_usable(const sim::Network& net, const SwDfTopo& T,
                   std::int32_t ga, std::int32_t gb) {
  return net.chan_live(global_chan_of(T, ga, gb));
}

/// Intermediate switch detouring a dead local link `from` -> `to` within
/// `group` (both detour legs live); -1 when none exists.
int pick_local_via(const sim::Network& net, const SwDfTopo& T,
                   std::int32_t group, int from, int to) {
  return pick_detour_via(T.p.switches_per_group, from, to, [&](int a, int b) {
    return net.chan_live(local_chan_of(T, group, a, b));
  });
}

}  // namespace

void DragonflyRouting::bind_topo(const sim::TopoInfo& info, int num_vcs) {
  topo_ = dynamic_cast<const SwDfTopo*>(&info);
  own_vcs_ = num_vcs;
}

void DragonflyRouting::init_packet(const sim::Network& net, sim::Packet& pkt,
                                   Rng& rng) {
  pkt.vc_class = 0;
  if (topo_ == nullptr) topo_ = &net.topo<SwDfTopo>();
  const auto& T = *topo_;
  const auto& sloc = T.loc[static_cast<std::size_t>(pkt.src)];
  const auto& dloc = T.loc[static_cast<std::size_t>(pkt.dst)];
  // Fault-aware planning bounces a dead global cable on the minimal path
  // through an intermediate group with two live global legs; local-link
  // faults detour per hop in route(). UGAL-L reads the gateway global
  // channel's occupancy from upstream credits.
  pkt.mid_wgroup = plan_mid_group(
      mode_, net.has_faults(), T.p.effective_groups(), sloc.group,
      dloc.group, rng,
      [&](std::int32_t a, std::int32_t b) {
        return global_usable(net, T, a, b);
      },
      [&](std::int32_t a, std::int32_t b) {
        return net.channel_occupancy(global_chan_of(T, a, b));
      });
}

sim::RouteDecision DragonflyRouting::route(const sim::Network& net,
                                           NodeId router, PortIx /*in_port*/,
                                           sim::Packet& pkt) {
  if (topo_ == nullptr) topo_ = &net.topo<SwDfTopo>();
  const auto& T = *topo_;
  const bool faulty = net.has_faults();
  // VC = class * vcs_per_class + destination hash: spreads head-of-line
  // queues per destination (ideal-switch approximation). Clamped to the
  // installed budget: repeated online fault re-bounces can climb the class
  // ladder past the reserve — a clamped class may cost deadlock freedom
  // (the audit reports it) but never an out-of-range VC.
  const auto vcix = [&] {
    const int nv = own_vcs_ > 0 ? own_vcs_ : static_cast<int>(net.num_vcs());
    const int top = nv / vcs_per_class_ - 1;
    return static_cast<VcIx>(std::min<int>(pkt.vc_class, top) *
                                 vcs_per_class_ +
                             static_cast<int>(pkt.dst) % vcs_per_class_);
  };

  if (net.kind_of(router) == NodeKind::Core) {
    // Terminal node: either the destination or the source injecting upward.
    if (router == pkt.dst) return {net.eject_port_of(router), vcix()};
    const ChanId up = T.up_chan[static_cast<std::size_t>(
        net.chip_of(router))];  // chip id == terminal index by construction
    return {net.out_port_of(up), vcix()};
  }

  // At a switch.
  const auto& loc = T.loc[static_cast<std::size_t>(router)];
  const auto& dloc = T.loc[static_cast<std::size_t>(pkt.dst)];
  const int S = T.p.switches_per_group;
  const int H = T.p.globals_per_switch;

  if (pkt.mid_wgroup == loc.group) pkt.mid_wgroup = -1;  // bounce reached

  // One local hop to switch `sw`, detouring a dead link through an
  // intermediate switch (full local mesh; VC class unchanged). A switch
  // with no usable detour keeps the dead channel and stalls (reported by
  // the fault audit).
  const auto local_hop = [&](int sw) -> sim::RouteDecision {
    if (faulty && !net.chan_live(local_chan_of(T, loc.group, loc.sw, sw))) {
      const int via = pick_local_via(net, T, loc.group, loc.sw, sw);
      if (via >= 0) sw = via;
    }
    return {net.out_port_of(local_chan_of(T, loc.group, loc.sw, sw)),
            vcix()};
  };

  if (loc.group == dloc.group && pkt.mid_wgroup < 0) {
    if (loc.sw == dloc.sw) {
      const ChanId down = T.down_chan[static_cast<std::size_t>(
          (loc.group * S + loc.sw) * T.p.terminals_per_switch + dloc.term)];
      return {net.out_port_of(down), vcix()};
    }
    return local_hop(dloc.sw);
  }

  // Heading to another group (the Valiant bounce group first, if any).
  int gt = pkt.mid_wgroup >= 0 ? pkt.mid_wgroup : dloc.group;
  if (faulty && !global_usable(net, T, loc.group, gt)) {
    // The planned global leg died under the packet (online fault step):
    // re-bounce through the lowest-index group with two live legs —
    // deterministic, no Rng on the hot path (see fault_detour.hpp).
    const std::int32_t mid = pick_detour_group_det(
        T.p.effective_groups(), loc.group, dloc.group,
        [&](std::int32_t a, std::int32_t b) {
          return global_usable(net, T, a, b);
        });
    if (mid >= 0) {
      pkt.mid_wgroup = mid;
      gt = mid;
    }  // else: keep the dead gateway and stall (reported, not crashed)
  }
  const int link = SwDfTopo::global_link(loc.group, gt);
  const int owner = link / H;
  if (owner == loc.sw) {
    const ChanId gchan = T.global_chan[static_cast<std::size_t>(
        (loc.group * S + loc.sw) * H + link % H)];
    assert(gchan != kInvalidChan);
    ++pkt.vc_class;  // new group => next VC class
    return {net.out_port_of(gchan), vcix()};
  }
  return local_hop(owner);
}

}  // namespace sldf::route
