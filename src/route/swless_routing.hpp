// Deadlock-free minimal / non-minimal routing for the switch-less Dragonfly
// (paper §IV, Algorithm 1 and Fig 7). A packet's journey is a sequence of
// intra-C-group legs; plan_leg() picks the external port for the next
// inter-C-group hop, and the VC class advances on every crossing according
// to the selected VcScheme:
//
//   Baseline     VC = number of C-groups entered (4 minimal / 6 non-minimal).
//   Reduced      paper claim: VC0 source C-group, VC1 source-W gateway,
//                VC2 whole destination W-group (+VC3 intermediate W-group);
//                destination-W transit legs use label-monotone mesh paths.
//   ReducedSafe  like Reduced but the destination W-group transit and final
//                legs use distinct classes (provably acyclic; see
//                docs/ARCHITECTURE.md, "route").
#pragma once

#include "route/routing_modes.hpp"
#include "sim/network.hpp"
#include "sim/routing.hpp"
#include "topo/swless.hpp"

namespace sldf::route {

class SwlessRouting final : public sim::RoutingAlgorithm {
 public:
  SwlessRouting(VcScheme scheme, RouteMode mode)
      : scheme_(scheme), mode_(mode) {}

  void bind_topo(const sim::TopoInfo& info, int num_vcs) override {
    topo_ = dynamic_cast<const topo::SwlessTopo*>(&info);
    own_vcs_ = num_vcs;
  }
  void init_packet(const sim::Network& net, sim::Packet& pkt,
                   Rng& rng) override;
  sim::RouteDecision route(const sim::Network& net, NodeId router,
                           PortIx in_port, sim::Packet& pkt) override;
  [[nodiscard]] const char* name() const override { return "swless"; }

  [[nodiscard]] VcScheme scheme() const { return scheme_; }
  [[nodiscard]] RouteMode mode() const { return mode_; }

 private:
  [[nodiscard]] std::uint8_t class_for(sim::RoutePhase next_phase,
                                       std::uint8_t cur) const;
  void plan_leg(const sim::Network& net, const topo::SwlessTopo& T,
                NodeId router, sim::Packet& pkt) const;
  [[nodiscard]] int mesh_dir(const topo::SwlessTopo& T, const sim::Packet& pkt,
                             int cur_pos, int tgt_pos) const;
  /// Fault detour inside the C-group mesh: an alternate live direction when
  /// the chosen channel is dead (productive directions first, then any live
  /// direction except straight back). Returns the dead channel itself when
  /// the router is fully cut off (the packet stalls; reported by the fault
  /// audit, never a crash).
  [[nodiscard]] ChanId mesh_detour(const sim::Network& net,
                                   const topo::SwlessTopo& T, NodeId router,
                                   PortIx in_port, int cur_pos, int tgt_pos,
                                   ChanId dead) const;

  VcScheme scheme_;
  RouteMode mode_;
  /// Topo-info downcast, set by bind_topo() at install time or cached on
  /// first use (per-flit dynamic_cast is too expensive); stable for the
  /// owning network's lifetime.
  const topo::SwlessTopo* topo_ = nullptr;
  /// VC budget sized for this fabric (bind_topo); 0 = use Network::num_vcs().
  int own_vcs_ = 0;
};

}  // namespace sldf::route
