// Routing algorithm interface. Route computation runs once per packet per
// router (when the head flit reaches the front of an Idle input VC).
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/flit.hpp"

namespace sldf::sim {

class Network;
struct TopoInfo;

struct RouteDecision {
  PortIx out_port = kInvalidPort;
  VcIx out_vc = kInvalidVc;
};

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  /// Binds the topology metadata this algorithm routes over, plus the VC
  /// budget that was sized for it. Called once at install time (before
  /// finalize). Algorithms that cache a TopoInfo downcast override this:
  /// under composite builds `net.topo<T>()` holds the *aggregate* info, so
  /// lazy first-use downcasting would fail — the composite builder hands
  /// each child its own info here instead. `num_vcs` is the budget computed
  /// for this fabric; the finalized network may carry more VCs (mixed
  /// planes finalize with the max), so per-fabric VC clamps should use it
  /// rather than Network::num_vcs(). Default: no-op.
  virtual void bind_topo(const TopoInfo& /*info*/, int /*num_vcs*/) {}

  /// Called at packet creation so the algorithm can seed per-packet routing
  /// state (initial VC class, Valiant intermediate group, ...).
  virtual void init_packet(const Network& net, Packet& pkt, Rng& rng) = 0;

  /// Computes the next hop for `pkt` whose head flit sits at `router`,
  /// having arrived through input port `in_port` (the injection port for
  /// freshly injected packets; kInvalidPort when a composite dispatcher
  /// hides an upstream router that belongs to another child fabric, see
  /// route/composite.hpp). May mutate the packet's routing state
  /// (phase, target, vc_class). Returning the router's eject port delivers
  /// the packet.
  virtual RouteDecision route(const Network& net, NodeId router,
                              PortIx in_port, Packet& pkt) = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace sldf::sim
