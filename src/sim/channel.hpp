// Unidirectional channel: static wiring, latency and (possibly fractional)
// bandwidth. The dynamic token bucket metering that bandwidth lives in the
// output port's packed record (Network::port_rec); in-flight flits and
// credits live in the Simulator's timing wheel, which preserves
// per-channel FIFO order because latency is constant per channel.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sim/flit.hpp"

namespace sldf::sim {

struct Channel {
  // --- static wiring (set by the topology builder) ---
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  PortIx src_port = kInvalidPort;  ///< Output-port index at src.
  PortIx dst_port = kInvalidPort;  ///< Input-port index at dst.
  std::uint8_t latency = 1;        ///< Pipeline depth in cycles (>= 1).
  /// Bandwidth is width_num/width_den flits per cycle. Fractional widths
  /// model chiplet-boundary edges carrying n/4 links spread over the
  /// boundary routers (e.g. 3/4 flit/cycle per router pair for n=6).
  std::uint16_t width_num = 1;
  std::uint16_t width_den = 1;
  LinkType type = LinkType::OnChip;

  // Flat offset precomputed by Network::finalize(): VC v of the input port
  // this channel feeds is `dst_vc_base + v` in the network's input-VC
  // arrays (FIFO arena / ivc_meta). Deliveries use it directly instead of
  // re-deriving router/port offsets.
  std::uint32_t dst_vc_base = 0;
};

}  // namespace sldf::sim
