// Message-level closed-loop workload engine.
//
// A workload is a dependency graph of *messages*: "chip S sends F flits to
// chip D once messages {deps} have completed". run_workload() executes the
// graph on the flit engine — messages whose dependencies are satisfied are
// chunked into packets, striped over the source chip's terminal nodes, and
// pushed through Simulator::inject_packet(); Simulator's packet-completion
// callback (PacketListener) marks messages complete when their last tail
// flit ejects at the destination, which in turn releases dependents. The
// run reports time-to-completion, per-phase completion cycles, and achieved
// GB/s per chip — the paper's Fig 14 story — instead of offered-rate
// sweeps.
//
// Graphs come from the generators in collectives.hpp (ring/halving-doubling
// /tree AllReduce, all-to-all, 3D stencil), selected by name through the
// WorkloadRegistry (registry.hpp) and from `sldf` via `workload = <name>`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace sldf::workload {

using MsgId = std::uint32_t;
inline constexpr MsgId kInvalidMsg = 0xffffffffu;

/// One node of the dependency graph: a chip-to-chip transfer that becomes
/// eligible once every message in `deps` has completed (i.e. fully arrived
/// at its destination).
struct MessageSpec {
  ChipId src = kInvalidChip;
  ChipId dst = kInvalidChip;
  std::uint64_t flits = 0;   ///< Payload size in flits (>= 1).
  std::int32_t phase = 0;    ///< Reporting bucket (collective step index).
  /// Terminal slots of the chip pair to stripe packets over: 0 = all slots
  /// (parallel chip-boundary links), k > 0 = only the first k. Generators
  /// set 1 on messages that leave the C-group so a transfer funnelling
  /// into one narrow external port does not clog every mesh row behind it
  /// (4 injectors racing a width-1 exit is wormhole tree saturation, not a
  /// faster collective).
  std::int32_t stripe = 0;
  /// Earliest cycle the message may issue. It becomes ready at
  /// max(issue, all deps complete) — trace-replayed jobs carry their
  /// recorded issue timestamps here; generated collectives leave 0.
  Cycle issue = 0;
  std::vector<MsgId> deps;   ///< Messages that must complete first.
};

struct WorkloadGraph {
  std::string name;          ///< Generator name (reporting).
  std::int32_t num_phases = 0;
  std::vector<MessageSpec> messages;

  /// Appends a message and returns its id (deps filled by the caller).
  MsgId add(ChipId src, ChipId dst, std::uint64_t flits, std::int32_t phase) {
    messages.push_back(MessageSpec{src, dst, flits, phase, 0, 0, {}});
    if (phase >= num_phases) num_phases = phase + 1;
    return static_cast<MsgId>(messages.size() - 1);
  }
};

/// Execution + reporting knobs (generator-independent; set from scenario
/// keys `pkt_len`, `seed`, `max_src_queue` and `workload.flit_bytes`,
/// `workload.freq_ghz`, `workload.max_cycles`).
struct WorkloadRunConfig {
  sim::SimConfig sim;           ///< pkt_len, seed, max_src_queue are used.
  Cycle max_cycles = 50'000'000;  ///< Abort horizon (completed = false).
  double flit_bytes = 16.0;     ///< Payload bytes per flit (GB/s reporting).
  double freq_ghz = 1.0;        ///< Clock for cycles -> seconds conversion.
  /// Record per-message ready/done cycles in WorkloadResult::msgs (the
  /// multi-tenant runner needs them for per-tenant latency percentiles).
  bool record_msgs = false;
};

struct PhaseResult {
  Cycle completed = 0;          ///< Cycle the phase's last message completed.
  std::uint64_t messages = 0;
  std::uint64_t flits = 0;
};

/// Per-message timing, recorded when WorkloadRunConfig::record_msgs is set
/// (indexed by MsgId, aligned with WorkloadGraph::messages).
struct MsgRecord {
  Cycle ready = 0;      ///< max(issue, last dependency complete).
  Cycle done = 0;       ///< Last packet's tail ejection (0 if incomplete).
  bool completed = false;
};

struct WorkloadResult {
  std::string workload;
  /// All messages delivered. False when max_cycles was hit OR when a fault
  /// timeline failed/orphaned messages (see the counters below).
  bool completed = false;
  Cycle cycles = 0;             ///< Time to completion (last tail ejection).
  int chips = 0;                ///< Chips participating (src or dst).
  std::uint64_t messages = 0;
  std::uint64_t packets = 0;           ///< Packets injected.
  std::uint64_t packets_delivered = 0; ///< Packets fully ejected (== packets
                                       ///< when completed).
  std::uint64_t flits = 0;      ///< Payload flits summed over messages.
  std::uint64_t flit_hops = 0;  ///< Engine channel traversals for the run.
  std::uint64_t ejected_flits = 0;  ///< Engine flits consumed at destinations.
  // --- fault-timeline outcomes (all zero on a fault-free run) ---
  /// Messages that lost >= 1 packet to a fault drop (can never complete).
  std::uint64_t failed_messages = 0;
  /// Messages that can never issue: a dependency failed/orphaned, or their
  /// chip died before they started. Counted transitively, so the run
  /// terminates instead of waiting on an unreachable dependency chain.
  std::uint64_t orphaned_messages = 0;
  std::uint64_t dropped_packets = 0;   ///< Engine drops (lost, accounted).
  std::uint64_t rescued_packets = 0;   ///< Engine source-retransmissions.
  double avg_msg_cycles = 0.0;  ///< Mean ready -> complete message latency.
  double max_msg_cycles = 0.0;
  /// Payload GB/s per participating chip:
  /// flits * flit_bytes * freq_ghz / (cycles * chips).
  double gbps_per_chip = 0.0;
  std::vector<PhaseResult> phases;
  std::vector<MsgRecord> msgs;  ///< Empty unless record_msgs was set.
  /// Engine telemetry of the run (SimResult::phases' counterpart; host
  /// times only with SimConfig::phase_timers).
  sim::EnginePhases engine;
};

/// Validates `graph` (src != dst, flits >= 1, dep ids in range) — throws
/// std::invalid_argument on malformed graphs, and ScenarioError when a
/// message touches a chip the active fault mask killed (such a graph would
/// stall or assert mid-run; the structured error fires before any
/// simulation starts).
void validate(const WorkloadGraph& graph, const sim::Network& net);

/// Runs `graph` closed-loop on `net`. Deterministic for a fixed config
/// (repeat runs are bit-identical). Throws std::runtime_error when the
/// graph stalls with nothing in flight (a dependency cycle).
WorkloadResult run_workload(sim::Network& net, const WorkloadGraph& graph,
                            const WorkloadRunConfig& cfg);

}  // namespace sldf::workload
