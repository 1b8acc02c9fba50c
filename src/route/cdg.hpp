// The one audit of the installed routing function. route::walk follows it
// hop by hop for one packet; audit_cdg walks every source/destination pair
// (and, for non-minimal routing on a pristine fabric, every possible
// intermediate group), records the sequence of (channel, VC) resources each
// packet would hold, adds dependency edges between consecutive resources,
// and checks the resulting graph for cycles (Dally & Towles: acyclic CDG =>
// deadlock-free routing). The same pass counts the pairs that do not
// deliver, so a fault-masked fabric's reachability comes from it too.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/network.hpp"

namespace sldf::route {

/// How one walk of the routing function ends.
enum class WalkEnd : std::uint8_t {
  Delivered,     ///< Ejected at the packet's destination.
  Misdelivered,  ///< Ejected at another router.
  BadPort,       ///< A decision named no output port of its router.
  DeadChannel,   ///< A decision named a fault-masked channel.
  HopLimit,      ///< Crossed more than `max_hops` channels (a loop).
};

/// Follows the network's installed routing function for one packet that
/// init_packet has already set up, starting at the source's injection port
/// and passing the real in_port at every hop. `visit(router, decision,
/// channel)` runs once per decision that names a port of the router, before
/// the walk acts on it; `channel` is kInvalidChan at ejection, and a dead
/// channel is visited before the walk stops at it.
template <typename Visit>
WalkEnd walk(const sim::Network& net, sim::Packet& pkt, std::size_t max_hops,
             Visit&& visit) {
  NodeId cur = pkt.src;
  PortIx in_port = net.router(cur).inj_port;
  for (std::size_t hops = 0;;) {
    const auto& r = net.router(cur);
    const sim::RouteDecision d = net.routing()->route(net, cur, in_port, pkt);
    if (d.out_port < 0 || d.out_port >= static_cast<PortIx>(r.out.size()))
      return WalkEnd::BadPort;
    const ChanId c = r.out[static_cast<std::size_t>(d.out_port)].out_chan;
    visit(cur, d, c);
    if (c == kInvalidChan)
      return cur == pkt.dst ? WalkEnd::Delivered : WalkEnd::Misdelivered;
    if (!net.chan_live(c)) return WalkEnd::DeadChannel;
    const auto& ch = net.chan(c);
    cur = ch.dst;
    in_port = ch.dst_port;
    if (++hops > max_hops) return WalkEnd::HopLimit;
  }
}

struct CdgReport {
  /// No dependency cycle, and every walk either delivered or stopped at a
  /// dead channel.
  bool acyclic = false;
  std::size_t resources = 0;  ///< Distinct (channel, VC) pairs used.
  std::size_t edges = 0;      ///< Distinct dependency edges.
  std::size_t paths_walked = 0;
  std::size_t max_path_hops = 0;
  /// Fault-masked networks only: pairs with a dead endpoint (not walked).
  std::size_t skipped_dead = 0;
  /// Walks that did not deliver, whatever stopped them.
  std::size_t unreachable = 0;
  /// Fault-masked networks only: walks that reached a dead channel. The
  /// stalled packet's resource chain up to the dead link is recorded (it
  /// holds those buffers forever), but an unreachable pair is a degraded-
  /// operation result, not a routing failure — it does not clear `acyclic`.
  std::size_t undeliverable = 0;
  /// One witness cycle as (channel, vc) pairs, empty when acyclic.
  std::vector<std::pair<ChanId, VcIx>> cycle;
  [[nodiscard]] bool all_reachable() const { return unreachable == 0; }
  std::string to_string(const sim::Network& net) const;
};

struct CdgOptions {
  /// Enumerate all intermediate groups for non-minimal routing instead of
  /// sampling the RNG choice (exhaustive audit).
  bool enumerate_intermediates = true;
  /// Safety cap on per-path hops (a livelocked walk fails the audit).
  std::size_t max_hops = 4096;
};

/// Audits the network's installed routing algorithm. The network must be
/// finalized; dynamic state is not touched.
CdgReport audit_cdg(const sim::Network& net, const CdgOptions& opt = {});

}  // namespace sldf::route
