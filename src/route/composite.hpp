// Dispatcher routings of composite fabrics (topo/composite.hpp). One base
// owns the child routings — each bound to its own child's TopoInfo, since
// the network-level info is the aggregate CompositeTopo — and maps a node to
// the child that owns it. A child never sees a foreign node: an input port
// fed from another child's router reads as kInvalidPort (no upstream),
// because a child's tables cover only the nodes wired up to its own range.
// Each axis adds only its policy:
//
// - PlaneRouting: planes are wired disjoint, so a packet injected on plane
//   p only ever visits plane-p routers, and every decision forwards to
//   child p.
// - WaferRouting: dimension-ordered over the stack axis with AT MOST ONE
//   vertical hop. A packet whose destination lives on another wafer routes
//   within its source wafer (the wafer's own routing, unchanged) to the
//   portal router of the destination's stack column, crosses the vertical
//   bond, and finishes within the destination wafer. Verticals are wired
//   all-pairs per column, so no journey ever visits a third wafer.
//
// Wafer deadlock freedom by VC class tripling-in-spirit: a stack is
// finalized with 2V+1 VCs where V is one wafer's budget. The source-wafer
// leg uses the child classes [0, V) unchanged, the vertical hop uses class
// 2V, and the destination-wafer leg uses the child classes shifted up to
// [V, 2V). Dependencies only ever flow source-leg -> vertical -> dest-leg
// (each leg internally acyclic by the child scheme; the legs of different
// wafers are router-disjoint), so the aggregate CDG of a pristine stack is
// acyclic (route::audit_cdg certifies it per mode x scheme). Under faults
// the ladder still orders the legs, but each leg inherits whatever its
// child's fault detours do.
//
// Wafer determinism: route() is RNG-free (fault detours scan columns
// lowest-index first), and the destination-leg re-initialization draws from
// a LOCAL generator seeded from (src, dst, t_gen) — packet state only — so
// serial, sharded, repeat, and checkpoint-resumed runs make bit-identical
// choices and the shared injection RNG stream is never perturbed.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/network.hpp"
#include "sim/routing.hpp"
#include "topo/composite.hpp"

namespace sldf::route {

class CompositeRouting : public sim::RoutingAlgorithm {
 public:
  explicit CompositeRouting(
      std::vector<std::unique_ptr<sim::RoutingAlgorithm>> children)
      : children_(std::move(children)) {}

  void bind_topo(const sim::TopoInfo& info, int /*num_vcs*/) override {
    topo_ = &dynamic_cast<const topo::CompositeTopo&>(info);
  }

  [[nodiscard]] std::size_t num_children() const { return children_.size(); }
  [[nodiscard]] sim::RoutingAlgorithm& child(std::size_t i) const {
    return *children_[i];
  }
  /// The child routing that owns node `n`.
  [[nodiscard]] sim::RoutingAlgorithm& child_of(const sim::Network& net,
                                                NodeId n) const {
    return child(static_cast<std::size_t>(net.child_of_node(n)));
  }

 protected:
  /// `in_port` as router's child may see it: kInvalidPort when the port is
  /// fed from another child's router.
  [[nodiscard]] static PortIx child_in_port(const sim::Network& net,
                                            NodeId router, PortIx in_port);

  /// Bound at install time (build_composite); stable for the owning
  /// network's lifetime.
  const topo::CompositeTopo* topo_ = nullptr;

 private:
  std::vector<std::unique_ptr<sim::RoutingAlgorithm>> children_;
};

class PlaneRouting final : public CompositeRouting {
 public:
  using CompositeRouting::CompositeRouting;

  void init_packet(const sim::Network& net, sim::Packet& pkt,
                   Rng& rng) override {
    child_of(net, pkt.src).init_packet(net, pkt, rng);
  }
  /// Planes are disjoint, so every upstream router is the plane's own.
  sim::RouteDecision route(const sim::Network& net, NodeId router,
                           PortIx in_port, sim::Packet& pkt) override {
    return child_of(net, router).route(net, router, in_port, pkt);
  }
  [[nodiscard]] const char* name() const override { return "planes"; }
};

class WaferRouting final : public CompositeRouting {
 public:
  using CompositeRouting::CompositeRouting;

  void init_packet(const sim::Network& net, sim::Packet& pkt,
                   Rng& rng) override;
  sim::RouteDecision route(const sim::Network& net, NodeId router,
                           PortIx in_port, sim::Packet& pkt) override;
  [[nodiscard]] const char* name() const override { return "wafers"; }

 private:
  /// The stack column a (router-wafer -> dst-wafer) packet should cross at:
  /// the destination's own column when its bond is usable, else the
  /// lowest-index column with a live bond and live portals (deterministic,
  /// RNG-free), else the destination's column again — the caller stalls on
  /// the dead bond and the fault audit reports the severed stack.
  [[nodiscard]] std::int32_t exit_column(const sim::Network& net, int wr,
                                         int wd, NodeId dst) const;
  [[nodiscard]] bool column_usable(const sim::Network& net, int wa, int wb,
                                   std::int32_t col) const;
};

}  // namespace sldf::route
