// Fault model for degraded-operation studies (wafer-scale yield/defect
// tolerance): deterministically disables duplex cables by kind — on-wafer
// intra-C-group mesh links, long-reach local (intra-W-group) cables,
// long-reach global (inter-W-group) cables, vertical wafer bonds — and/or
// whole chips, rewriting the finalized Network's channel/port tables so
// dead links can never move flits. Every `fault.*` key goes through one
// entry point, inject_faults(): the static rate/kind/chips are the cycle-0
// level of the same model that resolves an online fail/repair timeline.
// Fault-aware routing (route/swless_routing, route/dragonfly_routing)
// consults the resulting mask and detours around dead resources;
// route::audit_cdg re-validates all-pairs reachability after injection,
// reporting (not crashing on) unreachable pairs, and audit_at below runs it
// at an instant of a timeline.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "route/cdg.hpp"
#include "sim/network.hpp"

namespace sldf::topo {

/// Typed error for malformed fault timelines (inline `fault.events` strings
/// and `fault.schedule` files). Messages carry "origin:line".
class FaultError : public ScenarioError {
 public:
  explicit FaultError(const std::string& what) : ScenarioError(what) {}
};

/// Which candidate link class random faults are drawn from.
enum class FaultKind : std::uint8_t {
  Any,     ///< Union of the classes below.
  Intra,   ///< Intra-C-group mesh links (OnChip/ShortReach between cores).
  Local,   ///< Long-reach local cables (intra-W-group, C-group to C-group).
  Global,  ///< Long-reach global cables (W-group to W-group).
  Vertical,  ///< Inter-wafer vertical bonds (wafer-on-wafer stacks).
};

const char* to_string(FaultKind k);
/// Accepted names match to_string(): any|intra|local|global|vertical.
/// Throws std::invalid_argument on unknown names.
FaultKind parse_fault_kind(const std::string& s);

struct FaultSpec {
  double rate = 0.0;  ///< Fraction of candidate cables to fail, [0, 1].
  FaultKind kind = FaultKind::Any;
  std::uint64_t seed = 1;  ///< Fault-set RNG seed (independent of sim seed).
  std::vector<ChipId> chips;  ///< Chips to fail entirely (all their nodes).
  // --- online fault timeline (scenario keys fault.events / fault.schedule /
  // fault.rescue; at most one of the two sources may be set) ---
  std::string events;    ///< Inline timeline (parse_fault_events grammar).
  std::string schedule;  ///< Path of a `sldf-faults 2` schedule file.
  bool rescue = true;    ///< Retransmit torn packets (false: drop + count).
  /// Restrict CABLE failures to one plane of a multi-plane network
  /// (scenario key `fault.plane`; -1 = all planes). Whole-chip failures
  /// (`fault.chips`) always span every plane — a chip dies as a unit.
  int plane = -1;

  /// An inactive spec injects nothing and leaves the network untouched
  /// (bit-identical to a build that never heard of faults).
  [[nodiscard]] bool active() const { return rate > 0.0 || !chips.empty(); }
  /// A timeline arms the fault mask and attaches a FaultSchedule even when
  /// the cycle-0 state is fault-free (rate 0, no chips).
  [[nodiscard]] bool has_timeline() const {
    return !events.empty() || !schedule.empty();
  }
  /// Any fault.* key that engages the fault layer: static faults or a
  /// timeline. Exactly the specs inject_faults() accepts.
  [[nodiscard]] bool armed() const { return active() || has_timeline(); }
};

struct FaultReport {
  std::size_t candidate_cables = 0;  ///< Duplex pairs eligible under kind.
  std::size_t failed_cables = 0;
  std::size_t failed_chips = 0;
  std::size_t dead_channels = 0;  ///< Directed channels disabled in total.
  std::size_t dead_nodes = 0;
  [[nodiscard]] std::string to_string() const;
};

/// The one entry point of the fault layer. On a finalized network it arms
/// the fault mask, parses the timeline (fault.events or fault.schedule, at
/// most one of them), and runs one level model: per kind, the dead cables
/// are a prefix of a seeded permutation of that kind's duplex cables, plus
/// a dead flag per chip. The static rate/kind/chips/plane are the model's
/// cycle-0 state; it is applied to the mask and captured as the baseline
/// that reset_dynamic_state() restores. When the spec has a timeline, its
/// events resolve against the same model into the per-cycle FaultSteps the
/// Simulator applies (with fault.rescue), attached to the network.
///
/// Deterministic: the same seed always fails the same set, and for a fixed
/// seed the set failed at a higher rate is a superset of the set at any
/// lower rate (permutation prefix), online or static — resilience sweeps
/// degrade monotonically instead of jumping between unrelated fault sets.
/// Throws std::invalid_argument on a spec that arms nothing, a rate
/// outside [0, 1] or an out-of-range chip, and FaultError on a malformed
/// timeline or an event that contradicts the fault state (a fail that
/// lowers a level, a repair that raises one, a chip event that does not
/// flip the chip).
FaultReport inject_faults(sim::Network& net, const FaultSpec& spec);

// ---------------------------------------------------------------------------
// Online fault timeline: fail/repair events applied at cycle boundaries.
// ---------------------------------------------------------------------------

/// One timeline event. A rate event sets the failure LEVEL of a kind — the
/// first round(rate * candidates) cables of that kind's seeded permutation
/// are dead — so raising/lowering the rate fails/repairs a monotone prefix
/// and the nested-set property of static fault sweeps carries over to time.
/// A chip event fails or repairs one whole chip.
struct FaultEvent {
  Cycle at = 0;
  bool fail = true;     ///< fail vs repair (validated against the level).
  bool is_chip = false;
  ChipId chip = kInvalidChip;     ///< Chip events only.
  FaultKind kind = FaultKind::Any;  ///< Rate events only.
  double rate = 0.0;                ///< Rate events only, [0, 1].
};

/// Parsed, unresolved timeline (cycle-ordered events).
struct FaultTimeline {
  std::vector<FaultEvent> events;
};

/// Renders one event in the fault.events grammar, e.g. `fail@2000:global=0.05`.
std::string to_string(const FaultEvent& e);

/// Parses the timeline grammar: events `<fail|repair>@<cycle>:<what>`,
/// where `<what>` is `chip<N>` or `<kind>=<rate>`, separated by `;` or a
/// newline, with `#` starting a comment that runs to the end of the line,
/// e.g. `fail@2000:global=0.05;repair@5000:global=0`. Events must be
/// non-decreasing in cycle. Errors carry `origin:line` (line 1 is the first
/// line of `s`); an unknown kind reports parse_fault_kind's message. Throws
/// FaultError.
FaultTimeline parse_fault_events(const std::string& s,
                                 const std::string& origin = "fault.events");

/// Parses a `fault.schedule` file: the header line `sldf-faults 2`, then a
/// body in the parse_fault_events grammar, with errors at the file's own
/// line numbers. The retired `sldf-faults 1` header is rejected with a
/// message that shows the new form. Throws FaultError.
FaultTimeline parse_fault_schedule(std::istream& in, const std::string& origin);

/// Opens `path` and parses it with parse_fault_schedule. Throws FaultError
/// when the file cannot be opened.
FaultTimeline load_fault_schedule(const std::string& path);

/// The spec's timeline: fault.events parsed, or the fault.schedule file
/// loaded, or empty. Throws FaultError when both sources are set.
FaultTimeline load_timeline(const FaultSpec& spec);

/// Reachability audit of one instant of a fault timeline, with the end
/// state alongside so transient partitions (heal after later repairs) are
/// separated from permanent ones.
struct TimelineAudit {
  Cycle at = 0;
  route::CdgReport snapshot;  ///< Audit with events at <= `at` applied.
  route::CdgReport settled;   ///< Audit with the whole timeline applied.
  /// Pairs unreachable at `at` that are reachable once the timeline ends.
  [[nodiscard]] std::size_t transient_unreachable() const {
    return snapshot.unreachable > settled.unreachable
               ? snapshot.unreachable - settled.unreachable
               : 0;
  }
  [[nodiscard]] bool transiently_partitioned() const {
    return transient_unreachable() > 0;
  }
  [[nodiscard]] bool permanently_partitioned() const {
    return settled.unreachable > 0;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Audits the installed routing function (route::audit_cdg) against the
/// fault mask as it stands at cycle `t` of the network's attached fault
/// schedule, and again at the end of the timeline. The mask is rewound to
/// the captured cycle-0 baseline afterwards, so the network is unchanged.
/// Requires a network with an attached schedule and captured baseline
/// (inject_faults sets both up for a spec with a timeline). Throws
/// FaultError otherwise.
TimelineAudit audit_at(sim::Network& net, Cycle t, std::size_t max_hops = 4096);

}  // namespace sldf::topo
