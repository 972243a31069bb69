// Injected-fault tests for the fleet scale-out auditors: each rule
// fires on a deliberately corrupted plan and stays silent on a clean
// one (the DESIGN.md §7 contract for new rules).
#include "check/scaleout_audit.h"

#include <gtest/gtest.h>

#include <vector>

#include "partition/tiering.h"
#include "pim/reduction.h"
#include "pim/topology.h"
#include "trace/profiler.h"

namespace updlrm::check {
namespace {

partition::TierShardingPlan CleanPlan(std::uint32_t num_shards,
                                      partition::TieringOptions* out) {
  trace::TableProfile profile;
  profile.freq = {9, 1, 8, 2, 7, 3, 6, 4};
  profile.by_freq = trace::ItemsByFrequency(profile.freq);
  partition::TieringOptions options;
  options.num_shards = num_shards;
  auto plan = partition::BuildTierShardingPlan(
      std::vector<trace::TableProfile>{profile}, options);
  UPDLRM_CHECK(plan.ok());
  if (out != nullptr) *out = options;
  return std::move(plan).value();
}

TEST(ScaleoutAuditTest, CleanShardPlanPasses) {
  partition::TieringOptions options;
  const auto plan = CleanPlan(3, &options);
  CheckReport report;
  AuditShardCoverage(0, plan.tables[0], plan.groups, &report);
  AuditTierCapacity(0, plan.tables[0], options, &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(ScaleoutAuditTest, IllegalOwnerFiresShardCoverage) {
  auto plan = CleanPlan(3, nullptr);
  plan.tables[0].owner[2] = 7;  // nonexistent shard
  CheckReport report;
  AuditShardCoverage(0, plan.tables[0], plan.groups, &report);
  EXPECT_EQ(report.count(Rule::kShardCoverage), 1u);
}

TEST(ScaleoutAuditTest, OwnerOutsideTableGroupFiresShardCoverage) {
  // Two tables over two shards: table 0 belongs to shard 0 alone.
  trace::TableProfile profile;
  profile.freq = {9, 1, 8, 2};
  profile.by_freq = trace::ItemsByFrequency(profile.freq);
  partition::TieringOptions options;
  options.num_shards = 2;
  options.keep_zero_freq_on_pim = true;
  auto plan = partition::BuildTierShardingPlan(
      std::vector<trace::TableProfile>{profile, profile}, options);
  ASSERT_TRUE(plan.ok());
  CheckReport clean;
  AuditShardCoverage(0, plan->tables[0], plan->groups, &clean);
  AuditShardCoverage(1, plan->tables[1], plan->groups, &clean);
  EXPECT_TRUE(clean.clean()) << clean.ToString();

  // Move table 0's last row to shard 1 with consistent locals and
  // rollups: only the group rule can catch it.
  partition::TableTierPlan& t = plan->tables[0];
  ASSERT_EQ(t.owner[3], 0u);
  t.owner[3] = 1;
  t.local[3] = 0;
  --t.shard_rows[0];
  ++t.shard_rows[1];
  CheckReport report;
  AuditShardCoverage(0, t, plan->groups, &report);
  EXPECT_EQ(report.count(Rule::kShardCoverage), 1u);
}

TEST(ScaleoutAuditTest, NonDenseLocalIdFiresShardCoverage) {
  auto plan = CleanPlan(2, nullptr);
  plan.tables[0].local[5] += 1;  // skip a local slot
  CheckReport report;
  AuditShardCoverage(0, plan.tables[0], plan.groups, &report);
  EXPECT_EQ(report.count(Rule::kShardCoverage), 1u);
}

TEST(ScaleoutAuditTest, RollupMismatchFiresShardCoverage) {
  auto plan = CleanPlan(2, nullptr);
  plan.tables[0].shard_rows[0] += 1;  // rollup disagrees with owner map
  CheckReport report;
  AuditShardCoverage(0, plan.tables[0], plan.groups, &report);
  EXPECT_EQ(report.count(Rule::kShardCoverage), 1u);
}

TEST(ScaleoutAuditTest, CapacityOverflowFiresTierCapacity) {
  partition::TieringOptions options;
  auto plan = CleanPlan(2, &options);
  options.pim_capacity_rows_per_shard = 2;  // plan holds 4 rows per shard
  CheckReport report;
  AuditTierCapacity(0, plan.tables[0], options, &report);
  EXPECT_EQ(report.count(Rule::kTierCapacity), 1u);
}

TEST(ScaleoutAuditTest, EpsilonOverrunFiresTierCapacity) {
  partition::TieringOptions options;
  auto plan = CleanPlan(1, &options);
  // Claim access mass in DRAM with a zero epsilon budget and no
  // capacity limit that could excuse it.
  plan.tables[0].dram_accesses = 5;
  CheckReport report;
  AuditTierCapacity(0, plan.tables[0], options, &report);
  EXPECT_EQ(report.count(Rule::kTierCapacity), 1u);
}

pim::ReductionPlan CleanReduction() {
  const pim::FleetTopology topo(pim::FleetTopologyConfig{}, 8);
  const std::vector<std::uint64_t> bytes(8, 8ull << 20);
  return pim::PlanReduction(topo, bytes, 1 << 12);
}

TEST(ScaleoutAuditTest, CleanReductionPlanPasses) {
  CheckReport report;
  AuditReductionPlan(CleanReduction(), 8, /*groups=*/1, &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(ScaleoutAuditTest, WrongTreeDepthFiresReductionShape) {
  auto plan = CleanReduction();
  plan.levels += 1;
  CheckReport report;
  AuditReductionPlan(plan, 8, /*groups=*/1, &report);
  EXPECT_EQ(report.count(Rule::kReductionShape), 1u);
}

// 16 shards in 8 table groups (fig12's 16 shards over 8 tables): one
// in-group level plus the gather.
pim::ReductionPlan CleanGroupedReduction() {
  const pim::FleetTopology topo(pim::FleetTopologyConfig{}, 16);
  const std::vector<std::uint64_t> bytes(16, 8ull << 20);
  return pim::PlanReduction(topo, bytes, 1 << 12, /*groups=*/8);
}

TEST(ScaleoutAuditTest, CleanGroupedReductionPlanPasses) {
  const pim::ReductionPlan plan = CleanGroupedReduction();
  ASSERT_EQ(plan.levels, 2u);
  CheckReport report;
  AuditReductionPlan(plan, 16, /*groups=*/8, &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(ScaleoutAuditTest, GroupedWrongDepthFiresReductionShape) {
  // The all-shard tree's depth, and the in-group tree without its
  // gather level, are both wrong for a grouped merge.
  for (const std::uint32_t levels : {4u, 1u}) {
    auto plan = CleanGroupedReduction();
    plan.levels = levels;
    CheckReport report;
    AuditReductionPlan(plan, 16, /*groups=*/8, &report);
    EXPECT_EQ(report.count(Rule::kReductionShape), 1u) << levels;
  }
}

TEST(ScaleoutAuditTest, WrongGroupCountFiresReductionShape) {
  CheckReport report;
  AuditReductionPlan(CleanGroupedReduction(), 16, /*groups=*/4, &report);
  EXPECT_EQ(report.count(Rule::kReductionShape), 1u);
}

TEST(ScaleoutAuditTest, GroupTreeWiderThanGroupFiresReductionShape) {
  auto plan = CleanGroupedReduction();
  plan.group_ranks = 4;  // a group holds only 2 of the 16 shards
  plan.levels = pim::Log2Levels(4) + 1;
  CheckReport report;
  AuditReductionPlan(plan, 16, /*groups=*/8, &report);
  EXPECT_EQ(report.count(Rule::kReductionShape), 1u);
}

TEST(ScaleoutAuditTest, TooManyActiveRanksFiresReductionShape) {
  auto plan = CleanReduction();
  CheckReport report;
  AuditReductionPlan(plan, plan.active_ranks - 1, /*groups=*/1, &report);
  EXPECT_EQ(report.count(Rule::kReductionShape), 1u);
}

}  // namespace
}  // namespace updlrm::check
