#include "route/composite.hpp"

#include "common/rng.hpp"

namespace sldf::route {

namespace {

/// Seed for the destination-leg re-initialization: packet state only, so
/// every engine mode derives the same stream (see header).
std::uint64_t dest_leg_seed(NodeId src, NodeId dst, Cycle t_gen) {
  SplitMix64 sm((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                 << 32) ^
                static_cast<std::uint32_t>(dst) ^ (t_gen * 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

}  // namespace

PortIx CompositeRouting::child_in_port(const sim::Network& net,
                                       NodeId router, PortIx in_port) {
  if (in_port < 0) return in_port;
  const ChanId ic =
      net.router(router).in[static_cast<std::size_t>(in_port)].in_chan;
  if (ic != kInvalidChan &&
      net.child_of_node(net.chan(ic).src) != net.child_of_node(router))
    return kInvalidPort;
  return in_port;
}

bool WaferRouting::column_usable(const sim::Network& net, int wa, int wb,
                                 std::int32_t col) const {
  const auto& T = *topo_;
  return net.chan_live(T.vertical(col, wa, wb)) &&
         net.node_live(T.portal(wa, col)) && net.node_live(T.portal(wb, col));
}

std::int32_t WaferRouting::exit_column(const sim::Network& net, int wr,
                                       int wd, NodeId dst) const {
  const auto pref = static_cast<std::int32_t>(
      static_cast<std::uint32_t>(net.chip_of(dst)) %
      static_cast<std::uint32_t>(topo_->chips_per_wafer));
  if (!net.has_faults() || column_usable(net, wr, wd, pref)) return pref;
  for (std::int32_t c = 0; c < topo_->chips_per_wafer; ++c)
    if (c != pref && column_usable(net, wr, wd, c)) return c;
  return pref;  // stack fully severed between wr and wd
}

void WaferRouting::init_packet(const sim::Network& net, sim::Packet& pkt,
                               Rng& rng) {
  const int ws = net.wafer_of_node(pkt.src);
  const int wd = net.wafer_of_node(pkt.dst);
  auto& local = child(static_cast<std::size_t>(ws));
  if (ws == wd) {
    local.init_packet(net, pkt, rng);
    return;
  }
  // Cross-wafer: plan the source leg toward the exit column's portal. The
  // true destination is restored afterwards; route() re-swaps per hop so a
  // fault detour to another column re-plans naturally.
  const NodeId saved_dst = pkt.dst;
  pkt.dst = topo_->portal(ws, exit_column(net, ws, wd, saved_dst));
  local.init_packet(net, pkt, rng);
  pkt.dst = saved_dst;
}

sim::RouteDecision WaferRouting::route(const sim::Network& net, NodeId router,
                                       PortIx in_port, sim::Packet& pkt) {
  const auto& T = *topo_;
  const int V = T.child_num_vcs;
  const int wr = net.wafer_of_node(router);
  const int wd = net.wafer_of_node(pkt.dst);
  auto& local = child(static_cast<std::size_t>(wr));

  if (wr == wd) {
    if (net.wafer_of_node(pkt.src) == wd)
      return local.route(net, router, in_port, pkt);  // never leaves its wafer

    // Destination leg of a cross-wafer journey. On the arrival hop (the
    // packet just came over a vertical bond, so its upstream router is on
    // another wafer) re-initialize the child's routing state for the
    // remaining intra-wafer journey: the source-leg plan targeted a portal,
    // not pkt.dst. The child reads loc[pkt.src], which does not cover
    // foreign-wafer nodes — stand in the arrival portal as the source for
    // the re-init.
    const PortIx lin = child_in_port(net, router, in_port);
    if (lin != in_port) {
      const NodeId saved_src = pkt.src;
      pkt.src = router;
      Rng lrng(dest_leg_seed(saved_src, pkt.dst, pkt.t_gen));
      local.init_packet(net, pkt, lrng);
      pkt.src = saved_src;
    }
    sim::RouteDecision d = local.route(net, router, lin, pkt);
    d.out_vc = static_cast<VcIx>(d.out_vc + V);  // shifted class ladder
    return d;
  }

  // Source leg: head for the exit column's portal in THIS wafer; cross the
  // vertical bond once we stand on it.
  const std::int32_t col = exit_column(net, wr, wd, pkt.dst);
  const NodeId portal = T.portal(wr, col);
  if (router == portal) {
    const ChanId vc = T.vertical(col, wr, wd);
    if (net.has_faults() && !net.chan_live(vc))
      pkt.stalled = 1;  // severed stack: stall on the dead bond (reported)
    return {net.out_port_of(vc), static_cast<VcIx>(2 * V)};
  }
  const NodeId saved_dst = pkt.dst;
  pkt.dst = portal;
  const sim::RouteDecision d = local.route(net, router, in_port, pkt);
  pkt.dst = saved_dst;
  return d;
}

}  // namespace sldf::route
