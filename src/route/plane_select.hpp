// Per-packet plane selection for plane sets (topo/composite.hpp): the
// policy registry behind the scenario key `plane.policy`. The dispatcher
// that forwards every decision to the plane's own routing is
// route::PlaneRouting (route/composite.hpp).
//
// Every policy is deterministic and RNG-free so plane selection never
// perturbs the shared RNG stream: a K=1 plane build makes bit-identical
// decisions to the equivalent single-fabric build, and repeat runs (serial
// or sharded) of a K>1 build are bit-identical to each other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace sldf::route {

/// How a packet picks its plane at injection time.
enum class PlanePolicy : int {
  Hash = 0,        ///< Static mix of (src chip, dst chip) mod K.
  RoundRobin = 1,  ///< Per-source-terminal counter mod K.
  Adaptive = 2,    ///< Least-occupied injection queue among the K twins.
  Collective = 3,  ///< Workload rail hint (message phase) mod K; open-loop
                   ///< traffic has no phases and falls back to Hash.
};

/// Parses a `plane.policy` value; throws std::invalid_argument listing the
/// accepted names.
PlanePolicy parse_plane_policy(const std::string& s);
[[nodiscard]] const char* to_string(PlanePolicy p);
/// The accepted spelling list, for docs/usage text.
[[nodiscard]] const char* plane_policy_names();

/// Static hash: a multiplicative mix of the logical (src, dst) chip pair.
/// Chip-granular so a chip pair's whole flow stays on one plane (in-order
/// within the flow), yet distinct pairs spread across planes.
[[nodiscard]] inline int hash_plane(ChipId src_chip, ChipId dst_chip,
                                    int planes) {
  std::uint64_t h = (static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(src_chip))
                     << 32) |
                    static_cast<std::uint32_t>(dst_chip);
  h *= 0x9e3779b97f4a7c15ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<int>(h % static_cast<std::uint64_t>(planes));
}

/// Selects the plane for one packet. `rr_counter` is the caller-owned
/// per-source-terminal round-robin state (checkpointed by the Simulator);
/// `queue_depth(p)` probes the injection-queue occupancy of the source's
/// plane-p twin (generation is serial in both engine modes, so the read is
/// race-free and deterministic). `rail_hint` carries the workload message
/// phase (0 for open-loop traffic).
template <typename QueueDepthFn>
[[nodiscard]] int select_plane(PlanePolicy policy, int planes,
                               ChipId src_chip, ChipId dst_chip,
                               std::uint32_t rail_hint, bool has_rail_hint,
                               std::uint32_t& rr_counter,
                               QueueDepthFn&& queue_depth) {
  if (planes <= 1) return 0;
  switch (policy) {
    case PlanePolicy::Hash:
      return hash_plane(src_chip, dst_chip, planes);
    case PlanePolicy::RoundRobin:
      return static_cast<int>((rr_counter++) %
                              static_cast<std::uint32_t>(planes));
    case PlanePolicy::Adaptive: {
      int best = 0;
      std::size_t best_depth = queue_depth(0);
      for (int p = 1; p < planes; ++p) {
        const std::size_t d = queue_depth(p);
        if (d < best_depth) {  // ties keep the lowest plane: deterministic
          best = p;
          best_depth = d;
        }
      }
      return best;
    }
    case PlanePolicy::Collective:
      if (!has_rail_hint) return hash_plane(src_chip, dst_chip, planes);
      return static_cast<int>(rail_hint % static_cast<std::uint32_t>(planes));
  }
  return 0;
}

}  // namespace sldf::route
