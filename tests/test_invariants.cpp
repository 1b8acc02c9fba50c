// Randomized invariant tier: ~200 seeded random ScenarioSpecs spanning
// topology size x traffic pattern x routing mode x VC scheme x plane/wafer
// axes x shard counts x static/online faults, each asserting the engine's
// core contracts — conservation-ledger balance, repeat-run bit-identity,
// serial-vs-sharded bit-identity, and checkpoint/restore byte-identity at
// a random mid-run cycle. The spec generator is driven by one base seed
// (SLDF_FUZZ_SEED in the environment; fixed default so CI is reproducible),
// and every failure prints that seed plus the offending spec as a
// ready-to-run `sldf` config.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/scenario.hpp"
#include "sim/simulator.hpp"
#include "test_fixtures.hpp"
#include "topo/faults.hpp"
#include "traffic/pattern.hpp"

using namespace sldf;
using sldf::testing::audit_conservation;
using sldf::testing::expect_bit_identical;

namespace {

constexpr int kNumSpecs = 200;
constexpr std::uint64_t kDefaultSeed = 20260809;

/// One random open-loop spec. Sizes are kept small (tiny-swless at g =
/// 3..5) so 200 specs stay affordable even under ASan; the variety lives
/// in the traffic, the scale-out axes, and the fault machinery.
core::ScenarioSpec random_spec(Rng& rng, int index) {
  core::ScenarioSpec s;
  s.label = "fuzz" + std::to_string(index);
  s.topology = "tiny-swless";
  s.topo["g"] = std::to_string(rng.range(3, 5));

  static const char* kTraffic[] = {"uniform", "uniform", "bit-reverse",
                                   "bit-shuffle", "bit-transpose",
                                   "worst-case"};
  s.traffic = kTraffic[rng.below(std::size(kTraffic))];

  // Routing mode x VC scheme, so composite dispatch also runs non-minimal.
  static const route::RouteMode kModes[] = {route::RouteMode::Minimal,
                                            route::RouteMode::Valiant,
                                            route::RouteMode::Adaptive};
  static const route::VcScheme kSchemes[] = {route::VcScheme::Baseline,
                                             route::VcScheme::Reduced,
                                             route::VcScheme::ReducedSafe};
  s.mode = kModes[rng.below(std::size(kModes))];
  s.scheme = kSchemes[rng.below(std::size(kSchemes))];

  // Scale-out axis: none / wafer stack / plane set (mutually exclusive).
  const auto axis = rng.below(10);
  if (axis < 3) {
    s.wafer_count = static_cast<int>(rng.range(2, 3));
    if (rng.bernoulli(0.5)) s.wafer_latency = static_cast<int>(rng.range(1, 4));
    if (rng.bernoulli(0.3)) {
      s.wafer_width_num = 1;
      s.wafer_width_den = static_cast<int>(rng.range(2, 4));
    }
  } else if (axis < 5) {
    s.plane_count = 2;
    static const route::PlanePolicy kPolicies[] = {
        route::PlanePolicy::Hash, route::PlanePolicy::RoundRobin,
        route::PlanePolicy::Adaptive};
    s.plane_policy = kPolicies[rng.below(std::size(kPolicies))];
  }

  s.rates = {0.05 + 0.05 * static_cast<double>(rng.below(5))};
  s.sim.warmup = static_cast<Cycle>(rng.range(30, 80));
  s.sim.measure = static_cast<Cycle>(rng.range(60, 160));
  s.sim.drain = 2000;
  s.sim.seed = rng.next();

  // Fault machinery on ~1/3 of the specs: static sets or an online
  // fail -> repair timeline, over every kind the build supports.
  if (rng.bernoulli(0.35)) {
    std::vector<const char*> kinds = {"any", "local", "global"};
    if (s.wafer_count >= 2) kinds.push_back("vertical");
    const char* kind = kinds[rng.below(kinds.size())];
    s.fault.seed = rng.next();
    s.fault.rescue = rng.bernoulli(0.5);
    if (s.plane_count >= 2 && rng.bernoulli(0.5))
      s.fault.plane = static_cast<int>(rng.below(2));
    std::ostringstream rate;
    rate << (0.05 + 0.1 * rng.uniform());
    if (rng.bernoulli(0.5)) {
      s.fault.rate = std::stod(rate.str());
      s.fault.kind = topo::parse_fault_kind(kind);
    } else {
      const Cycle fail_at = s.sim.warmup + rng.below(s.sim.measure);
      const Cycle repair_at = fail_at + 1 + rng.below(300);
      std::ostringstream ev;
      ev << "fail@" << fail_at << ":" << kind << "=" << rate.str()
         << ";repair@" << repair_at << ":" << kind << "=0";
      s.fault.events = ev.str();
    }
  }
  return s;
}

sim::SimResult run_one(const core::ScenarioSpec& s) {
  const auto series = core::run_scenario(s);
  EXPECT_EQ(series.points.size(), 1u);
  return series.points.at(0).res;
}

/// Checkpoint at a random mid-run cycle: the saved stream must restore
/// into a fresh engine byte-for-byte (an immediate re-save reproduces the
/// stream exactly) and the resumed run must finish bit-identical to an
/// uninterrupted one.
void check_checkpoint_roundtrip(const core::ScenarioSpec& s, Rng& rng) {
  sim::SimConfig cfg = s.sim;
  cfg.inj_rate_per_chip = s.rates.at(0);

  sim::Network net_a;
  core::build_network(net_a, s);
  const auto pat_a = traffic::make_pattern(s.traffic, net_a, s.traffic_opts);
  sim::Simulator a(net_a, cfg, *pat_a);
  const sim::SimResult golden = a.run();

  const Cycle mid = 1 + rng.below(cfg.warmup + cfg.measure);
  sim::Network net_b;
  core::build_network(net_b, s);
  const auto pat_b = traffic::make_pattern(s.traffic, net_b, s.traffic_opts);
  sim::Simulator b(net_b, cfg, *pat_b);
  while (b.now() < mid) b.step();
  std::stringstream ck;
  b.save_checkpoint(ck);

  sim::Network net_c;
  core::build_network(net_c, s);
  const auto pat_c = traffic::make_pattern(s.traffic, net_c, s.traffic_opts);
  sim::Simulator c(net_c, cfg, *pat_c);
  c.restore_checkpoint(ck);
  ASSERT_EQ(c.now(), mid);
  std::stringstream ck2;
  c.save_checkpoint(ck2);
  ASSERT_EQ(ck.str(), ck2.str())
      << "checkpoint at cycle " << mid
      << " does not survive a restore/re-save round trip byte-identically";
  const sim::SimResult resumed = c.run();
  expect_bit_identical(golden, resumed);
}

/// Runs one slice of the tier. Each spec always gets the conservation
/// audit and the repeat-run identity; the sharded-engine and checkpoint
/// probes rotate deterministically so the whole tier covers all four
/// invariants without quadrupling the runtime.
void run_tier(int begin, int end) {
  const std::uint64_t seed = sldf::testing::fuzz_seed(kDefaultSeed);
  Rng gen(seed);
  Rng aux(seed ^ 0x5ca1ab1e);
  for (int i = 0; i < end; ++i) {
    const auto s = random_spec(gen, i);
    if (i < begin) continue;  // generator stays in lockstep across slices
    SCOPED_TRACE("SLDF_FUZZ_SEED=" + std::to_string(seed) + " spec #" +
                 std::to_string(i) + "; reproduce with:\n" + s.to_config());
    const auto serial = run_one(s);
    ASSERT_TRUE(audit_conservation(serial));
    EXPECT_GT(serial.generated_packets, 0u);
    const auto repeat = run_one(s);
    expect_bit_identical(serial, repeat);
    if (i % 2 == 0) {
      auto sh = s;
      sh.sim.shards = 2;
      expect_bit_identical(serial, run_one(sh));
    }
    if (i % 5 == 0) check_checkpoint_roundtrip(s, aux);
    if (::testing::Test::HasFailure()) return;  // seed + spec already shown
  }
}

}  // namespace

// The tier is split into slices so a failure localizes quickly and ctest
// progress is visible; the spec generator is replayed from the base seed in
// every slice, so slice boundaries never change which specs exist.
TEST(RandomizedInvariants, Specs000To049) { run_tier(0, 50); }
TEST(RandomizedInvariants, Specs050To099) { run_tier(50, 100); }
TEST(RandomizedInvariants, Specs100To149) { run_tier(100, 150); }
TEST(RandomizedInvariants, Specs150To199) { run_tier(150, kNumSpecs); }
