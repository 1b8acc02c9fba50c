// Intra-C-group node labeling (paper §IV-B, Fig 6/8). Labels are a software
// total order over the mesh routers of one C-group; the reduced-VC routing
// schemes route label-monotone segments over them. Port hosts are chosen by
// label band (globals low, locals high) — the Property-2 analogue.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sldf::topo {

enum class Labeling : std::uint8_t {
  Snake,         ///< Boustrophedon: consecutive labels are mesh-adjacent, so
                 ///< an up-only path exists between any label pair (default).
  RowMajor,      ///< Plain row-major order (ablation).
  PerimeterArc,  ///< Polar-style (Fig 8c): interior low (snake), perimeter
                 ///< ring high, ordered around the rim (ablation).
};

const char* to_string(Labeling l);
/// Parses a to_string() name; throws std::invalid_argument on others.
Labeling parse_labeling(const std::string& s);

/// Returns label per position (index y*mx + x) for an mx-by-my mesh.
/// Labels are a permutation of [0, mx*my).
std::vector<std::int32_t> make_labels(int mx, int my, Labeling kind);

/// Positions (y*mx + x) of the mesh perimeter in clockwise ring order
/// starting at (0,0). For mx==1 or my==1 this is simply all positions.
std::vector<std::int32_t> perimeter_positions(int mx, int my);

/// Perimeter positions sorted by ascending label.
std::vector<std::int32_t> perimeter_by_label(
    int mx, int my, const std::vector<std::int32_t>& labels);

/// Hamiltonian ring order over a gx-by-gy grid (row-major cell indices):
/// consecutive entries (cyclically) are grid-adjacent whenever gx*gy is
/// even and both dims >= 2; otherwise falls back to a snake path whose
/// closing edge is non-adjacent. Used for ring-AllReduce chip ordering.
std::vector<std::int32_t> ring_order(int gx, int gy);

}  // namespace sldf::topo
