// Multi-tenant serving tests: placement policies (contiguous vs scattered,
// disjointness, fault-dead chips skipped, exhaustion), tenant scenario-key
// parsing + round-trip, structured ScenarioError for fault-emptied chip
// groups, and bit-identity of the 3-tenant acceptance mix across repeat
// runs and SLDF-style shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/error.hpp"
#include "core/scenario.hpp"
#include "topo/hier.hpp"
#include "trace/placement.hpp"
#include "trace/tenants.hpp"
#include "workload/collectives.hpp"

using namespace sldf;
using namespace sldf::trace;

namespace {

sim::Network tiny_net() {
  core::ScenarioSpec spec;
  spec.topology = "tiny-swless";
  sim::Network net;
  core::build_network(net, spec);
  return net;
}

/// The acceptance-criteria mix: ring-AllReduce + windowed all-to-all +
/// seeded request/reply, on disjoint 8-chip groups of the tiny instance.
core::ScenarioSpec mix3_spec() {
  core::ScenarioSpec spec;
  spec.topology = "tiny-swless";
  spec.set("tenants", "3");
  spec.set("tenant0.workload", "ring-allreduce");
  spec.set("tenant0.chips", "8");
  spec.set("tenant0.scope", "system");
  spec.set("tenant0.kib", "16");
  spec.set("tenant1.workload", "all-to-all");
  spec.set("tenant1.chips", "8");
  spec.set("tenant1.scope", "system");
  spec.set("tenant1.kib", "4");
  spec.set("tenant1.window", "2");
  spec.set("tenant1.placement", "scattered");
  spec.set("tenant2.workload", "request-reply");
  spec.set("tenant2.chips", "8");
  spec.set("tenant2.requests", "32");
  return spec;
}

void expect_same(const MultiTenantResult& a, const MultiTenantResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.flit_hops, b.flit_hops);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    const auto& x = a.tenants[i];
    const auto& y = b.tenants[i];
    EXPECT_EQ(x.chips, y.chips);
    EXPECT_EQ(x.ttc, y.ttc);
    EXPECT_EQ(x.isolated_ttc, y.isolated_ttc);
    EXPECT_DOUBLE_EQ(x.avg_msg_cycles, y.avg_msg_cycles);
    EXPECT_DOUBLE_EQ(x.p50_msg_cycles, y.p50_msg_cycles);
    EXPECT_DOUBLE_EQ(x.p99_msg_cycles, y.p99_msg_cycles);
    EXPECT_DOUBLE_EQ(x.interference, y.interference);
  }
}

}  // namespace

// ---- placement allocator -------------------------------------------------

TEST(Placement, ContiguousFollowsRingOrderScatteredSpreads) {
  auto net = tiny_net();
  const auto& hier = net.topo<topo::HierTopo>();
  PlacementAllocator alloc(net);
  // Contiguous 8 on 4-chip C-groups: exactly the first two C-groups in
  // (cgroup, ring rank) order.
  const auto contig = alloc.allocate(8, PlacementPolicy::Contiguous, "t0");
  std::set<std::int32_t> contig_groups;
  for (const ChipId c : contig)
    contig_groups.insert(hier.chip_cgroup[static_cast<std::size_t>(c)]);
  EXPECT_EQ(contig.size(), 8u);
  EXPECT_EQ(contig_groups.size(), 2u);
  // Scattered 8: one chip from each of 8 further C-groups.
  const auto scat = alloc.allocate(8, PlacementPolicy::Scattered, "t1");
  std::set<std::int32_t> scat_groups;
  for (const ChipId c : scat)
    scat_groups.insert(hier.chip_cgroup[static_cast<std::size_t>(c)]);
  EXPECT_EQ(scat.size(), 8u);
  EXPECT_EQ(scat_groups.size(), 8u);
  // Disjoint from the contiguous tenant.
  for (const ChipId c : scat)
    EXPECT_EQ(std::find(contig.begin(), contig.end(), c), contig.end());
}

TEST(Placement, ScatteredWrapsAroundWhenGroupsExhaust) {
  auto net = tiny_net();  // 15 C-groups of 4
  PlacementAllocator alloc(net);
  const auto chips = alloc.allocate(20, PlacementPolicy::Scattered, "t0");
  EXPECT_EQ(chips.size(), 20u);
  const auto& hier = net.topo<topo::HierTopo>();
  std::map<std::int32_t, int> per_group;
  for (const ChipId c : chips)
    ++per_group[hier.chip_cgroup[static_cast<std::size_t>(c)]];
  // 20 chips over 15 groups: 5 groups contribute two, the rest one.
  EXPECT_EQ(per_group.size(), 15u);
  for (const auto& [g, n] : per_group) EXPECT_LE(n, 2) << "group " << g;
}

TEST(Placement, SkipsFaultDeadChipsAndExhausts) {
  core::ScenarioSpec spec;
  spec.topology = "tiny-swless";
  spec.set("fault.chips", "0,1");
  sim::Network net;
  core::build_network(net, spec);
  PlacementAllocator alloc(net);
  EXPECT_EQ(alloc.free_chips(), 58);
  const auto chips = alloc.allocate(58, PlacementPolicy::Contiguous, "t0");
  for (const ChipId c : chips) {
    EXPECT_NE(c, 0);
    EXPECT_NE(c, 1);
  }
  EXPECT_THROW(alloc.allocate(1, PlacementPolicy::Contiguous, "t1"),
               ScenarioError);
  // Explicit reservation of a dead or claimed chip is a structured error.
  PlacementAllocator fresh(net);
  EXPECT_THROW(fresh.reserve({0}, "t0"), ScenarioError);
  fresh.reserve({2, 3}, "t0");
  EXPECT_THROW(fresh.reserve({3}, "t1"), ScenarioError);
}

// ---- scenario keys -------------------------------------------------------

TEST(TenantKeys, ParseValidateRoundTrip) {
  const auto spec = mix3_spec();
  ASSERT_EQ(spec.tenants, 3);
  const auto tenants = tenant_specs(spec);
  ASSERT_EQ(tenants.size(), 3u);
  EXPECT_EQ(tenants[0].workload, "ring-allreduce");
  EXPECT_EQ(tenants[0].count, 8);
  EXPECT_EQ(tenants[1].placement, PlacementPolicy::Scattered);
  EXPECT_EQ(tenants[2].opts.at("requests"), "32");
  // Keys survive to_kv -> from_kv.
  const auto back = core::ScenarioSpec::from_kv(spec.to_kv());
  EXPECT_EQ(back.to_kv(), spec.to_kv());
}

TEST(TenantKeys, ExplicitChipListAndErrors) {
  core::ScenarioSpec spec;
  spec.set("tenants", "1");
  spec.set("tenant0.workload", "all-to-all");
  spec.set("tenant0.chips", "4, 5, 6");
  const auto tenants = tenant_specs(spec);
  EXPECT_EQ(tenants[0].explicit_chips, (std::vector<ChipId>{4, 5, 6}));

  core::ScenarioSpec missing;
  missing.set("tenants", "2");
  missing.set("tenant0.workload", "all-to-all");
  missing.set("tenant0.chips", "4");
  EXPECT_THROW(tenant_specs(missing), ScenarioError);  // tenant1 undeclared

  core::ScenarioSpec extra;
  extra.set("tenants", "1");
  extra.set("tenant0.workload", "all-to-all");
  extra.set("tenant0.chips", "4");
  extra.set("tenant1.workload", "all-to-all");
  EXPECT_THROW(tenant_specs(extra), ScenarioError);  // beyond tenants=1

  EXPECT_THROW(core::ScenarioSpec{}.set("tenant0", "x"),
               std::invalid_argument);
  EXPECT_THROW(core::ScenarioSpec{}.set("tenants.isolation", "2"),
               std::invalid_argument);
}

// A chip count (an int) or id (a ChipId) past its field fails naming the
// key and the allowed range, instead of wrapping to a smaller value.
TEST(TenantKeys, ChipsFitTheirFields) {
  for (const auto& [chips, range] :
       std::vector<std::pair<const char*, const char*>>{
           {"4294967298", "[1, 2147483647]"},
           {"0", "[1, 2147483647]"},
           {"0,4294967297", "[0, 2147483647]"},
           {"3,-1", "[0, 2147483647]"}}) {
    SCOPED_TRACE(chips);
    core::ScenarioSpec spec;
    spec.set("tenants", "1");
    spec.set("tenant0.workload", "all-to-all");
    spec.set("tenant0.chips", chips);
    try {
      (void)tenant_specs(spec);
      ADD_FAILURE() << "accepted";
    } catch (const ScenarioError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'tenant0.chips'"), std::string::npos) << what;
      EXPECT_NE(what.find(range), std::string::npos) << what;
    }
  }
}

// ---- fault-emptied chip groups (structured error) ------------------------

TEST(TenantFaults, EmptiedScopeGroupIsScenarioError) {
  // Killing 3 of a C-group's 4 chips leaves < 2 live: the workload cannot
  // form that ring, and says so as a ScenarioError before simulating.
  core::ScenarioSpec spec;
  spec.topology = "tiny-swless";
  spec.workload = "ring-allreduce";
  spec.set("workload.scope", "cgroup");
  spec.set("fault.chips", "0,1,2");
  try {
    core::run_workload_scenario(spec);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("live chips under the active "
                                         "fault mask"),
              std::string::npos)
        << e.what();
  }
  // One dead chip: the ring reforms over the 3 survivors and runs.
  spec.fault.chips = {0};
  const auto r = core::run_workload_scenario(spec);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.chips, 59);
}

// ---- the 3-tenant acceptance mix ----------------------------------------

TEST(TenantMix3, DisjointPlacementsAndInterference) {
  const auto r = run_tenant_scenario(mix3_spec());
  ASSERT_EQ(r.tenants.size(), 3u);
  EXPECT_TRUE(r.completed);
  std::set<ChipId> all;
  for (const auto& t : r.tenants) {
    EXPECT_TRUE(t.completed);
    EXPECT_EQ(t.chips.size(), 8u);
    for (const ChipId c : t.chips) EXPECT_TRUE(all.insert(c).second);
    EXPECT_GT(t.ttc, 0u);
    EXPECT_GE(r.cycles, t.ttc);
    EXPECT_GT(t.p50_msg_cycles, 0.0);
    EXPECT_GE(t.p99_msg_cycles, t.p50_msg_cycles);
    EXPECT_GT(t.isolated_ttc, 0u);
    EXPECT_GT(t.interference, 0.0);
    EXPECT_GT(t.gbps_per_chip, 0.0);
  }
  // The makespan is some tenant's TTC.
  Cycle max_ttc = 0;
  for (const auto& t : r.tenants) max_ttc = std::max(max_ttc, t.ttc);
  EXPECT_EQ(r.cycles, max_ttc);
}

TEST(TenantMix3, RepeatRunsBitIdentical) {
  const auto a = run_tenant_scenario(mix3_spec());
  const auto b = run_tenant_scenario(mix3_spec());
  expect_same(a, b);
}

TEST(TenantMix3, ShardCountsBitIdentical) {
  auto spec1 = mix3_spec();
  spec1.sim.shards = 1;
  auto spec2 = mix3_spec();
  spec2.sim.shards = 2;
  expect_same(run_tenant_scenario(spec1), run_tenant_scenario(spec2));
}

TEST(TenantMix3, IsolationBaselinesCanBeDisabled) {
  auto spec = mix3_spec();
  spec.set("tenants.isolation", "0");
  const auto r = run_tenant_scenario(spec);
  for (const auto& t : r.tenants) {
    EXPECT_EQ(t.isolated_ttc, 0u);
    EXPECT_DOUBLE_EQ(t.interference, 0.0);
  }
}

TEST(TenantMix3, TopLevelWorkloadKeyConflicts) {
  auto spec = mix3_spec();
  spec.workload = "ring-allreduce";
  EXPECT_THROW(run_tenant_scenario(spec), ScenarioError);
  auto spec2 = mix3_spec();
  spec2.set("workload.kib", "64");
  EXPECT_THROW(run_tenant_scenario(spec2), ScenarioError);
}
