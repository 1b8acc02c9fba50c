// Named configurations used throughout the paper's evaluation (§V-A4).
#pragma once

#include "topo/dragonfly.hpp"
#include "topo/swless.hpp"

namespace sldf::core {

/// Radix-16-equivalent switch-less Dragonfly (paper §V-B1): C-group = 2x2
/// chiplets of 2x2 NoC routers (4x4 mesh), 12 external ports (7 local +
/// 5 global), 8 C-groups per W-group, g = 41 W-groups, 1312 chips
/// (5248 on-chip nodes).
topo::SwlessParams radix16_swless();

/// Radix-16 switch-based Dragonfly baseline: 4:7:5 terminal:local:global,
/// 8 switches/group, 41 groups, 1312 chips.
topo::SwDragonflyParams radix16_swdf();

/// Radix-32-equivalent switch-less Dragonfly (paper §V-B3): C-group = 4x2
/// chiplets (8 chips, 8x4 router mesh), 24 external ports (15 local +
/// 9 global), 16 C-groups per W-group, g = 145, 18560 chips.
topo::SwlessParams radix32_swless();

/// Radix-32 switch-based Dragonfly baseline: 8:15:9, 16 switches/group,
/// 145 groups, 18560 chips.
topo::SwDragonflyParams radix32_swdf();

/// The small deadlock-audit instance (the `tiny-swless` registry preset and
/// the test fixtures' base): a=1, b=3 C-groups of 2x2 single-router
/// chiplets (chip == router), 2 local + 2 global ports, g=5 (max 7).
topo::SwlessParams tiny_swless();

/// The Slingshot-scale case study of Table III: n = 12, m = 4 (4x4 chiplets),
/// a = 4, b = 8, h = 17, g = 545, N = 279040 chips. Analytical use only —
/// do not build (it would be a ~1.2M-router simulation).
topo::SwlessParams case_study_swless();

}  // namespace sldf::core
