// A wired-but-not-finalized fabric: what a topology builder produces
// before the network is sealed. Splitting wiring from installation lets
// the composite builder (topo/composite.hpp) wire N fabrics into one
// Network and finalize once, while the classic single-fabric path is
// wire + install_fabric().
#pragma once

#include <memory>
#include <utility>

#include "sim/network.hpp"

namespace sldf::topo {

/// The product of wiring one fabric into a Network: its topology metadata,
/// the routing algorithm to drive it, and the VC geometry finalize() needs.
/// Routers/channels/terminals are already added to the Network; nothing is
/// finalized and no routing/topo-info is installed yet.
struct WiredFabric {
  std::unique_ptr<sim::TopoInfo> info;
  std::unique_ptr<sim::RoutingAlgorithm> routing;
  int num_vcs = 0;
  int vc_buf = 0;
};

/// Installs a single wired fabric (the classic non-composite build path):
/// binds the routing to its topology info, hands both to the network, and
/// finalizes with the fabric's VC geometry.
inline void install_fabric(sim::Network& net, WiredFabric f) {
  f.routing->bind_topo(*f.info, f.num_vcs);
  net.set_topo_info(std::move(f.info));
  net.set_routing(std::move(f.routing));
  net.finalize(f.num_vcs, f.vc_buf);
}

}  // namespace sldf::topo
