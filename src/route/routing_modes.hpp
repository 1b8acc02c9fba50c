// Routing mode and virtual-channel scheme selectors (paper §IV).
#pragma once

#include <stdexcept>
#include <string>

namespace sldf::route {

enum class RouteMode {
  Minimal,   ///< Algorithm 1: up to 3 inter-C-group + 4 intra-C-group steps.
  Valiant,   ///< Non-minimal: bounce through a random intermediate W-group.
  Adaptive,  ///< UGAL-L style: per packet, take the Valiant path only when
             ///< the minimal path's gateway global channel looks congested
             ///< (credit occupancy), weighted by the 1-vs-2 global hop cost.
};

/// Virtual-channel numbering schemes for the switch-less Dragonfly.
enum class VcScheme {
  Baseline,     ///< One VC per C-group traversed: 4 (min) / 6 (non-min).
  Reduced,      ///< Paper §IV-B claim: 3 (min) / 4 (non-min). Destination
                ///< W-group merged via label-monotone up*/down* discipline;
                ///< docs/ARCHITECTURE.md ("route") has its CDG status.
  ReducedSafe,  ///< Provably acyclic variant: destination W-group split into
                ///< transit/final classes: 4 (min) / 5 (non-min).
};

constexpr const char* to_string(RouteMode m) {
  switch (m) {
    case RouteMode::Minimal: return "minimal";
    case RouteMode::Valiant: return "valiant";
    case RouteMode::Adaptive: return "adaptive";
  }
  return "?";
}
constexpr const char* to_string(VcScheme s) {
  switch (s) {
    case VcScheme::Baseline: return "baseline";
    case VcScheme::Reduced: return "reduced";
    case VcScheme::ReducedSafe: return "reduced-safe";
  }
  return "?";
}

/// String lookup used by the scenario layer. Throws std::invalid_argument
/// on unknown names; accepted names match to_string().
inline RouteMode parse_route_mode(const std::string& s) {
  if (s == "minimal") return RouteMode::Minimal;
  if (s == "valiant") return RouteMode::Valiant;
  if (s == "adaptive") return RouteMode::Adaptive;
  throw std::invalid_argument(
      "unknown route mode '" + s + "' (expected minimal|valiant|adaptive)");
}
inline VcScheme parse_vc_scheme(const std::string& s) {
  if (s == "baseline") return VcScheme::Baseline;
  if (s == "reduced") return VcScheme::Reduced;
  if (s == "reduced-safe") return VcScheme::ReducedSafe;
  throw std::invalid_argument(
      "unknown VC scheme '" + s +
      "' (expected baseline|reduced|reduced-safe)");
}

/// VCs required on every channel of a switch-less Dragonfly network.
/// Adaptive routing can take the Valiant path, so it needs the same VC
/// budget as Valiant.
constexpr int swless_num_vcs(VcScheme s, RouteMode m) {
  const bool min_only = m == RouteMode::Minimal;
  switch (s) {
    case VcScheme::Baseline: return min_only ? 4 : 6;
    case VcScheme::Reduced: return min_only ? 3 : 4;
    case VcScheme::ReducedSafe: return min_only ? 4 : 5;
  }
  return 4;
}

/// VCs for the switch-based Dragonfly baseline (Kim et al.).
constexpr int swdf_num_vcs(RouteMode m) {
  return m == RouteMode::Minimal ? 2 : 3;
}

/// VC budget for fault-tolerant switch-less builds. Fault detours can
/// upgrade a minimal path to a Valiant-style bounce (a dead global link is
/// routed around through an intermediate W-group), and each of the up to
/// three intra-W local legs may pay one extra C-group crossing to detour a
/// dead local link. The Baseline scheme burns one class per crossing, so it
/// needs +3 over its Valiant budget (5 crossings -> up to 8); the phase-
/// based Reduced/ReducedSafe schemes absorb detour legs in their existing
/// classes.
constexpr int swless_fault_num_vcs(VcScheme s, RouteMode m) {
  const RouteMode eff = m == RouteMode::Minimal ? RouteMode::Valiant : m;
  const int base = swless_num_vcs(s, eff);
  return s == VcScheme::Baseline ? base + 3 : base;
}

/// Fault-tolerant switch-based builds always need the Valiant budget: a
/// dead global link is detoured through an intermediate group (local-link
/// detours reuse the current class).
constexpr int swdf_fault_num_vcs(RouteMode) { return 3; }

}  // namespace sldf::route
