// End-to-end simulations on small networks: cross-checking measured
// latency/throughput against the paper's analytical bounds (Eq. 2/4/5),
// scheme equivalence, and the sweep harness.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/params.hpp"
#include "model/equations.hpp"
#include "route/routing_modes.hpp"
#include "topo/dragonfly.hpp"
#include "topo/swless.hpp"
#include "traffic/allreduce.hpp"
#include "traffic/pattern.hpp"

using namespace sldf;
using route::RouteMode;
using route::VcScheme;

namespace {

topo::SwlessParams small_swless(VcScheme scheme = VcScheme::Baseline,
                                RouteMode mode = RouteMode::Minimal,
                                int g = 5) {
  // One W-group = 4 C-groups of 4 chips (2x2 routers), 3+3 ports.
  topo::SwlessParams p;
  p.a = 2;
  p.b = 2;
  p.chip_gx = 2;
  p.chip_gy = 2;
  p.noc_x = 1;
  p.noc_y = 1;
  p.ports_per_chiplet = 6;
  p.local_ports = 3;
  p.global_ports = 3;
  p.g = g;
  p.scheme = scheme;
  p.mode = mode;
  return p;
}

sim::SimConfig quick_cfg(double rate) {
  sim::SimConfig c;
  c.inj_rate_per_chip = rate;
  c.warmup = 500;
  c.measure = 1500;
  c.drain = 1000;
  return c;
}

}  // namespace

TEST(Integration, SwlessLowLoadDeliversEverything) {
  sim::Network net;
  topo::build_swless_dragonfly(net, small_swless());
  auto tr = traffic::make_pattern("uniform", net);
  const auto r = sim::run_sim(net, quick_cfg(0.1), *tr);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.delivered_measured, r.generated_measured);
  EXPECT_NEAR(r.accepted, 0.1, 0.02);
  EXPECT_EQ(r.suppressed, 0u);
}

TEST(Integration, AllVcSchemesAgreeAtLowLoad) {
  // At low load the three VC schemes ride identical minimal paths, so
  // latency must match closely.
  double lat[3];
  int i = 0;
  for (auto scheme :
       {VcScheme::Baseline, VcScheme::Reduced, VcScheme::ReducedSafe}) {
    sim::Network net;
    topo::build_swless_dragonfly(net, small_swless(scheme));
    auto tr = traffic::make_pattern("uniform", net);
    lat[i++] = sim::run_sim(net, quick_cfg(0.05), *tr).avg_latency;
  }
  EXPECT_NEAR(lat[0], lat[1], 3.0);
  EXPECT_NEAR(lat[0], lat[2], 3.0);
}

TEST(Integration, SaturationBelowTheoreticalGlobalBound) {
  // Eqs.(2)(4)(5) evaluated at small_swless()'s own a, b, m (the C-group's
  // chip-grid edge) and n (ports per chiplet): the saturated accepted rate
  // of the built fabric can exceed none of the global, local and
  // intra-C-group bounds.
  const topo::SwlessParams p = small_swless();
  model::SwlessEquations eq;
  eq.a = p.a;
  eq.b = p.b;
  eq.m = p.chip_gx;
  eq.n = p.ports_per_chiplet;
  sim::Network net;
  topo::build_swless_dragonfly(net, p);
  auto tr = traffic::make_pattern("uniform", net);
  const auto lo = sim::run_sim(net, quick_cfg(0.2), *tr);
  const auto hi = sim::run_sim(net, quick_cfg(3.0), *tr);
  EXPECT_NEAR(lo.accepted, 0.2, 0.03);
  EXPECT_LT(hi.accepted, 3.0);  // saturated well below offered
  EXPECT_GT(hi.accepted, 0.2);
  EXPECT_LE(hi.accepted, eq.t_global()) << "Eq.(2)";
  EXPECT_LE(hi.accepted, eq.t_local()) << "Eq.(4)";
  EXPECT_LE(hi.accepted, eq.t_cgroup()) << "Eq.(5)";
}

TEST(Integration, ValiantBeatsMinimalOnWorstCase) {
  // Paper Fig 13(b): minimal routing collapses on W_i -> W_{i+1} traffic;
  // Valiant sustains much higher load.
  double acc[2];
  int i = 0;
  for (auto mode : {RouteMode::Minimal, RouteMode::Valiant}) {
    sim::Network net;
    topo::build_swless_dragonfly(net,
                                 small_swless(VcScheme::Baseline, mode, 7));
    auto tr = traffic::make_pattern("worst-case", net);
    acc[i++] = sim::run_sim(net, quick_cfg(1.0), *tr).accepted;
  }
  EXPECT_GT(acc[1], acc[0] * 1.5)
      << "valiant=" << acc[1] << " minimal=" << acc[0];
}

TEST(Integration, AdaptiveMatchesMinimalOnUniform) {
  // UGAL-L should not pay the Valiant path-length tax when the minimal
  // gateways are uncongested: uniform throughput must beat always-Valiant
  // and track minimal closely.
  double acc[3];
  int i = 0;
  for (auto mode :
       {RouteMode::Minimal, RouteMode::Adaptive, RouteMode::Valiant}) {
    sim::Network net;
    topo::build_swless_dragonfly(net,
                                 small_swless(VcScheme::Baseline, mode, 7));
    auto tr = traffic::make_pattern("uniform", net);
    acc[i++] = sim::run_sim(net, quick_cfg(1.2), *tr).accepted;
  }
  EXPECT_GT(acc[1], acc[2]) << "adaptive must beat always-Valiant on uniform";
  EXPECT_GT(acc[1], acc[0] * 0.8) << "adaptive must track minimal on uniform";
}

TEST(Integration, AdaptiveApproachesValiantOnWorstCase) {
  // Under W_i -> W_{i+1} traffic the minimal gateway saturates and UGAL-L
  // must divert, recovering most of the Valiant throughput.
  double acc[3];
  int i = 0;
  for (auto mode :
       {RouteMode::Minimal, RouteMode::Adaptive, RouteMode::Valiant}) {
    sim::Network net;
    topo::build_swless_dragonfly(net,
                                 small_swless(VcScheme::Baseline, mode, 7));
    auto tr = traffic::make_pattern("worst-case", net);
    acc[i++] = sim::run_sim(net, quick_cfg(1.0), *tr).accepted;
  }
  EXPECT_GT(acc[1], acc[0] * 1.3)
      << "adaptive=" << acc[1] << " minimal=" << acc[0];
  EXPECT_GT(acc[1], acc[2] * 0.5)
      << "adaptive=" << acc[1] << " valiant=" << acc[2];
}

TEST(Integration, SwitchBasedAdaptiveDiverts) {
  double acc[2];
  int i = 0;
  for (auto mode : {RouteMode::Minimal, RouteMode::Adaptive}) {
    topo::SwDragonflyParams p;
    p.switches_per_group = 4;
    p.terminals_per_switch = 2;
    p.globals_per_switch = 2;
    p.groups = 0;  // 9 groups
    p.mode = mode;
    sim::Network net;
    topo::build_sw_dragonfly(net, p);
    auto tr = traffic::make_pattern("worst-case", net);
    acc[i++] = sim::run_sim(net, quick_cfg(1.0), *tr).accepted;
  }
  EXPECT_GT(acc[1], acc[0] * 1.3)
      << "adaptive=" << acc[1] << " minimal=" << acc[0];
}

TEST(Integration, SwitchBasedDragonflyRuns) {
  topo::SwDragonflyParams p;
  p.switches_per_group = 4;
  p.terminals_per_switch = 2;
  p.globals_per_switch = 2;
  p.groups = 5;
  sim::Network net;
  topo::build_sw_dragonfly(net, p);
  auto tr = traffic::make_pattern("uniform", net);
  const auto r = sim::run_sim(net, quick_cfg(0.3), *tr);
  EXPECT_TRUE(r.drained);
  EXPECT_NEAR(r.accepted, 0.3, 0.05);
}

TEST(Integration, SwlessInjectionBandwidthBeatsSwitchTerminal) {
  // The headline claim (Fig 10a): a C-group mesh accepts ~3 flits/cycle/
  // chip while a switch-attached chip is capped at 1 by its single link.
  sim::Network mesh_net;
  topo::CGroupShape shape;
  shape.chip_gx = shape.chip_gy = 2;
  shape.noc_x = shape.noc_y = 2;
  shape.ports_per_chiplet = 6;
  topo::build_mesh_network(mesh_net, shape, 1, 32);
  auto tr1 = traffic::make_pattern("uniform", mesh_net);
  const auto mesh_r = sim::run_sim(mesh_net, quick_cfg(4.0), *tr1);

  sim::Network xbar;
  topo::build_crossbar(xbar, 4, 1);
  auto tr2 = traffic::make_pattern("uniform", xbar);
  const auto xbar_r = sim::run_sim(xbar, quick_cfg(4.0), *tr2);

  EXPECT_GT(mesh_r.accepted, 2.0 * xbar_r.accepted);
  EXPECT_LE(xbar_r.accepted, 1.05);  // single-link injection cap
}

TEST(Integration, AllReduceUniOnCrossbarCapsAtOne) {
  // Fig 14(a): ring AllReduce through a switch saturates at 1 flit/cycle/
  // chip.
  sim::Network xbar;
  topo::build_crossbar(xbar, 4, 1);
  traffic::RingAllReduceTraffic tr(xbar, traffic::RingScope::CGroup, false);
  const auto r = sim::run_sim(xbar, quick_cfg(2.0), tr);
  EXPECT_NEAR(r.accepted, 1.0, 0.08);
}

TEST(Integration, AllReduceOnMeshExceedsSwitch) {
  // Fig 14(a): the wafer mesh sustains ~2 (uni) flits/cycle/chip because
  // each chip boundary carries multiple links.
  sim::Network net;
  topo::CGroupShape shape;
  shape.chip_gx = shape.chip_gy = 2;
  shape.noc_x = shape.noc_y = 2;
  shape.ports_per_chiplet = 6;
  topo::build_mesh_network(net, shape, 1, 32);
  traffic::RingAllReduceTraffic tr(net, traffic::RingScope::CGroup, false);
  const auto r = sim::run_sim(net, quick_cfg(4.0), tr);
  EXPECT_GT(r.accepted, 1.2);
}

TEST(Integration, SweepHarnessStopsAtSaturation) {
  core::SweepConfig cfg;
  cfg.rates = core::linspace_rates(3.0, 6);
  cfg.base = quick_cfg(0);
  cfg.stop_latency_factor = 4.0;
  const auto series = core::run_sweep(
      "test",
      [](sim::Network& n) {
        topo::build_swless_dragonfly(
            n, small_swless(VcScheme::Baseline, RouteMode::Minimal, 3));
      },
      [](const sim::Network& n) { return traffic::make_pattern("uniform", n); },
      cfg);
  EXPECT_GE(series.points.size(), 2u);
  EXPECT_LE(series.points.size(), 6u);
  // Latency must be monotone-ish increasing along the sweep.
  EXPECT_GT(series.points.back().res.avg_latency,
            series.points.front().res.avg_latency);
}

TEST(Integration, DoubledMeshWidthRaisesGlobalThroughput) {
  // Fig 11/12: 2B intra-C-group bandwidth lifts the uniform saturation.
  double acc[2];
  int i = 0;
  for (int w : {1, 2}) {
    auto p = small_swless();
    p.mesh_width = w;
    sim::Network net;
    topo::build_swless_dragonfly(net, p);
    auto tr = traffic::make_pattern("uniform", net);
    acc[i++] = sim::run_sim(net, quick_cfg(3.0), *tr).accepted;
  }
  EXPECT_GE(acc[1], acc[0] * 1.05)
      << "1B=" << acc[0] << " 2B=" << acc[1];
}

TEST(Integration, DeterministicAcrossRuns) {
  sim::Network net;
  topo::build_swless_dragonfly(net, small_swless());
  auto tr = traffic::make_pattern("bit-reverse", net);
  const auto a = sim::run_sim(net, quick_cfg(0.4), *tr);
  const auto b = sim::run_sim(net, quick_cfg(0.4), *tr);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.delivered_measured, b.delivered_measured);
}
