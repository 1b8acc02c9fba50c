// Shared group-level planning and fault-detour selection used by both
// fabrics' routing algorithms (route/swless_routing.cpp,
// route/dragonfly_routing.cpp). The policies are deliberately identical — a
// fix to the selection applies to both — and only the "is the leg between a
// and b usable?" predicate and the gateway occupancy probe differ.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "route/routing_modes.hpp"

namespace sldf::route {

/// A Valiant-style detour group for src -> dst among `groups` candidates
/// whose two legs `usable(src, mid)` and `usable(mid, dst)` both hold,
/// chosen uniformly (seeded rng) among the usable candidates; -1 when none
/// exists. Two passes (count, then rescan to the drawn index) so the draw
/// is one rng value regardless of the candidate pattern.
template <typename Usable>
std::int32_t pick_detour_group(int groups, std::int32_t src,
                               std::int32_t dst, Rng& rng, Usable&& usable) {
  int count = 0;
  for (int mid = 0; mid < groups; ++mid)
    if (mid != src && mid != dst && usable(src, mid) && usable(mid, dst))
      ++count;
  if (count == 0) return -1;
  auto pick = static_cast<int>(rng.below(static_cast<std::uint64_t>(count)));
  for (int mid = 0; mid < groups; ++mid)
    if (mid != src && mid != dst && usable(src, mid) && usable(mid, dst) &&
        pick-- == 0)
      return mid;
  return -1;
}

/// The intermediate group init_packet plans for a packet from group `src`
/// to group `dst` among `groups`; -1 routes minimally (and stalls on a dead
/// direct cable when no intermediate exists, i.e. groups <= 2).
/// `usable(a, b)`: the global cable between groups a and b is usable;
/// `occupancy(a, b)`: buffered flits on the gateway leaving a toward b.
///  - Fault-masked fabric (`faulty`): Minimal bounces only around a dead
///    direct cable, Valiant always, both through a pick_detour_group
///    choice (-1 when no detour is usable); Adaptive takes that choice when
///    the direct cable is dead, else decides as UGAL-L below.
///  - Pristine fabric: Valiant draws a uniform group other than src and dst
///    by rejection; Adaptive (UGAL-L) takes that draw only when the minimal
///    gateway is at least twice as congested as the candidate's (the
///    non-minimal path pays two global hops), with a threshold that
///    prefers minimal.
template <typename Usable, typename Occupancy>
std::int32_t plan_mid_group(RouteMode mode, bool faulty, int groups,
                            std::int32_t src, std::int32_t dst, Rng& rng,
                            Usable&& usable, Occupancy&& occupancy) {
  if (src == dst || groups <= 2) return -1;
  constexpr int kThreshold = 4;  // flits of slack granted to minimal
  const auto ugal = [&](std::int32_t mid) {
    return occupancy(src, dst) > 2 * occupancy(src, mid) + kThreshold ? mid
                                                                      : -1;
  };
  if (faulty) {
    const bool direct_ok = usable(src, dst);
    if (mode == RouteMode::Minimal && direct_ok) return -1;
    const std::int32_t mid = pick_detour_group(groups, src, dst, rng, usable);
    return mode == RouteMode::Adaptive && direct_ok && mid >= 0 ? ugal(mid)
                                                                : mid;
  }
  if (mode == RouteMode::Minimal) return -1;
  std::int32_t mid;
  do {
    mid = static_cast<std::int32_t>(
        rng.below(static_cast<std::uint64_t>(groups)));
  } while (mid == src || mid == dst);
  return mode == RouteMode::Valiant ? mid : ugal(mid);
}

/// Deterministic (lowest-index) variant of pick_detour_group, for ONLINE
/// re-planning inside route(): the hot path carries no Rng, and a draw
/// there would desynchronize the stream between engine variants. Every
/// packet rerouted around the same dead cable takes the same detour — a
/// momentary hotspot is the documented cost of deterministic recovery.
template <typename Usable>
std::int32_t pick_detour_group_det(int groups, std::int32_t src,
                                   std::int32_t dst, Usable&& usable) {
  for (int mid = 0; mid < groups; ++mid)
    if (mid != src && mid != dst && usable(src, mid) && usable(mid, dst))
      return mid;
  return -1;
}

/// An intermediate member detouring a dead direct leg `from` -> `to` within
/// one fully-connected group of `members` (both detour legs usable); -1
/// when none exists. Deterministic lowest index, so the detour is stable
/// across packets and runs.
template <typename Usable>
int pick_detour_via(int members, int from, int to, Usable&& usable) {
  for (int m = 0; m < members; ++m)
    if (m != from && m != to && usable(from, m) && usable(m, to)) return m;
  return -1;
}

}  // namespace sldf::route
