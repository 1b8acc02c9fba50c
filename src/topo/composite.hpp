// Composite fabrics: N child fabrics wired into ONE sim::Network along one
// axis (booksim-DragonTree-style: sub-networks behind one interface). One
// builder runs the wire loop for every axis; each axis keeps only its
// policy.
//
// - Planes: K independent rails sharing the logical chip id space. Every
//   plane attaches its own terminal node(s) to the same logical chips, so
//   chip-level consumers — accepted-traffic normalization, workload chip
//   validation, tenant placement, hierarchy tables — see the one-plane
//   network unchanged. Packets pick a plane at injection
//   (route/plane_select.hpp) and are remapped to the plane's twin
//   terminals; wiring is plane-disjoint, so a packet never leaves its plane.
// - Wafers: W copies of one fabric stacked wafer-major, each owning its own
//   chip range, so a W-stack of an N-chip fabric is a W*N-chip machine.
//   Vertically adjacent chip twins (same chip column across wafers) are
//   bonded by dense vertical columns (LinkType::Vertical) between their
//   portal routers, wired all-pairs per column so any cross-wafer packet
//   crosses exactly ONE vertical hop: route within the source wafer to the
//   destination's stack column, bond across, finish within the destination
//   wafer (route/composite.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/network.hpp"
#include "topo/fabric.hpp"
#include "topo/hier.hpp"

namespace sldf::topo {

/// Aggregate topology info of a composite build. The HierTopo slice is
/// anchored on child 0: a plane set shares plane 0's logical hierarchy
/// (what traffic generators and placement consult), a wafer stack
/// concatenates W copies of it wafer-major (every wafer is wired from the
/// same builder), giving one consistent C-group/W-group numbering across
/// the stack. The child infos stay alive here for their routings.
struct CompositeTopo : HierTopo {
  std::vector<std::unique_ptr<sim::TopoInfo>> children;
  int count = 1;
  /// The largest VC budget of one child (a wafer stack's V: every wafer
  /// agrees on it, and a stack of more than one wafer carries 2V+1).
  int child_num_vcs = 0;

  // ---- wafer stacks only (empty for plane sets) ----
  std::int32_t chips_per_wafer = 0;
  /// Portal router per GLOBAL chip: the chip's first terminal node, where
  /// the chip's vertical bond column lands.
  std::vector<NodeId> portal_of_chip;
  /// Directed vertical channel portal(wa, col) -> portal(wb, col), indexed
  /// [col * count * count + wa * count + wb]; kInvalidChan on the diagonal.
  std::vector<ChanId> vert;

  [[nodiscard]] NodeId portal(int wafer, std::int32_t col) const {
    return portal_of_chip[static_cast<std::size_t>(wafer) *
                              static_cast<std::size_t>(chips_per_wafer) +
                          static_cast<std::size_t>(col)];
  }
  [[nodiscard]] ChanId vertical(std::int32_t col, int wa, int wb) const {
    const auto w = static_cast<std::size_t>(count);
    return vert[static_cast<std::size_t>(col) * w * w +
                static_cast<std::size_t>(wa) * w + static_cast<std::size_t>(wb)];
  }
};

/// Wires child `i` into `net` and returns its fabric (the scenario layer
/// passes a TopologyRegistry::wire call; tests can hand-wire).
using ChildWirer = std::function<WiredFabric(int child, sim::Network& net)>;

/// What to compose, and each axis' policy knobs.
struct CompositeSpec {
  sim::Axis axis = sim::Axis::Planes;
  int count = 1;
  int plane_policy = 0;  ///< Planes: a route::PlanePolicy value.
  int vertical_latency = 2;    ///< Wafers: bond latency in cycles.
  int vertical_width_num = 1;  ///< Wafers: bond bandwidth num/den
  int vertical_width_den = 1;  ///< flits per cycle.
};

/// Builds a composite network: wires each child between begin_child()
/// marks, validates that every child spans the same chip count and agrees
/// on vc_buf (wafers: on the VC budget too), anchors the aggregate
/// hierarchy, installs the axis' dispatcher routing, finalizes, and seals
/// the partition.
///
/// Planes finalize with the max per-rail VC budget. Wafers concatenate the
/// hierarchy, bond every chip column all-pairs with vertical duplex cables,
/// and finalize with 2V+1 VCs (source-leg classes [0,V), destination-leg
/// classes [V,2V), vertical class 2V — see route/composite.hpp for why); a
/// one-wafer stack has nothing to bond and keeps V, so it runs
/// bit-identical to the classic single-fabric build. Throws
/// std::invalid_argument on bad counts or inconsistent children.
void build_composite(sim::Network& net, const CompositeSpec& spec,
                     const ChildWirer& wire);

}  // namespace sldf::topo
