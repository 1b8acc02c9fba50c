// Closed-form models from paper §III-B: scalability Eq.(1), throughput
// Eqs.(2)(4)(5), balanced configuration Eq.(3), C-group bisection Eq.(6),
// and diameter Eq.(7). Symbols follow the paper:
//   n  interfaces per chiplet          m  chiplet-grid edge of a C-group
//   a  C-groups per wafer              b  wafers per W-group
//   h  global ports per C-group        g  number of W-groups
#pragma once

namespace sldf::model {

struct SwlessEquations {
  int a = 2, b = 4, m = 2, n = 6;

  [[nodiscard]] long ab() const { return static_cast<long>(a) * b; }
  [[nodiscard]] long k() const { return static_cast<long>(n) * m; }
  /// Global ports per C-group: h = k - ab + 1 (paper §III-A4).
  [[nodiscard]] long h() const { return k() - ab() + 1; }
  /// W-groups: g = ab*h + 1.
  [[nodiscard]] long g() const { return ab() * h() + 1; }
  /// Eq.(1): total chips N = a*b*m^2 * g.
  [[nodiscard]] long total_chips() const {
    return ab() * m * m * g();
  }
  /// Eq.(2): global saturation throughput bound, flits/cycle/chip.
  [[nodiscard]] double t_global() const {
    return static_cast<double>(k() - ab() + 1) / (m * m);
  }
  /// Eq.(4): intra-W-group (local) saturation bound, flits/cycle/chip.
  [[nodiscard]] double t_local() const {
    return static_cast<double>(ab()) / (m * m);
  }
  /// Eq.(5): intra-C-group saturation bound, flits/cycle/chip.
  [[nodiscard]] double t_cgroup() const {
    return static_cast<double>(n) / m;
  }
  /// Eq.(6): full-duplex bisection of the 2D-mesh C-group, flits/cycle.
  [[nodiscard]] double bisection_cgroup() const {
    return static_cast<double>(n) * m / 2.0;
  }

  /// Eq.(3): the balanced configuration for a given m: n = 3m, ab = 2m^2.
  static SwlessEquations balanced(int m_, int wafers_b = 0);
};

/// Table II hop costs used across the energy/latency models.
struct HopCost {
  double latency_ns;
  double energy_pj_per_bit;
};
struct HopCostTable {
  HopCost global{150.0, 20.0};        // optical cable
  HopCost local{150.0, 20.0};         // copper/optical cable
  HopCost terminal{150.0, 20.0};      // H*l, similar to a local hop
  HopCost short_reach{5.0, 2.0};      // on-wafer RDL
  HopCost on_chip{1.0, 0.1};          // metal layer
  /// Wafer-on-wafer vertical bond: dense hybrid-bond/TSV column, far
  /// cheaper than a long-reach cable, pricier than an on-chip wire.
  HopCost vertical{2.0, 0.5};
  /// The paper simplifies the average intra-C-group hop to 1 pJ/bit.
  double intra_cgroup_avg_pj = 1.0;
};

/// Eq.(7) hop-count terms of the switch-less Dragonfly diameter:
/// D = Hg + 2 Hl + (8m - 2) Hsr  (off-chip hops only).
struct SwlessDiameter {
  int global_hops = 1;
  int local_hops = 2;
  int short_reach_hops = 0;

  static SwlessDiameter of(int m) {
    return {1, 2, 8 * m - 2};
  }
  /// Traditional switch-based Dragonfly: Hg + 2 Hl + 2 H*l.
  static SwlessDiameter switch_based() { return {1, 2 + 2, 0}; }

  /// Latency estimate with Table II hop costs (ns), excluding time of
  /// flight.
  [[nodiscard]] double latency_ns(const HopCostTable& t = {}) const {
    return global_hops * t.global.latency_ns + local_hops * t.local.latency_ns +
           short_reach_hops * t.short_reach.latency_ns;
  }
};

}  // namespace sldf::model
