// Injected-fault coverage of the static plan auditor: one deliberate
// fault per rule (plan coverage, plan capacity, cache co-location, tile
// shape, WRAM capacity), each proven to fire against a plan that is
// clean without the fault.
#include "check/plan_audit.h"

#include <gtest/gtest.h>

#include "check/report.h"
#include "partition/uniform.h"

namespace updlrm::check {
namespace {

partition::PartitionPlan SmallPlan() {
  auto geom = partition::GroupGeometry::Make(
      dlrm::TableShape{.rows = 64, .cols = 16}, /*dpus_per_table=*/8,
      /*nc=*/4);
  UPDLRM_CHECK(geom.ok());
  auto plan = partition::UniformPartition(*geom);
  UPDLRM_CHECK(plan.ok());
  return std::move(plan).value();
}

PlanAuditLimits AmpleLimits() {
  return PlanAuditLimits{.emt_bytes = 1 << 20, .cache_bytes = 1 << 20};
}

TEST(PlanAuditTest, CleanUniformPlanReportsNothing) {
  CheckReport report;
  AuditPlan(SmallPlan(), AmpleLimits(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// Rule: kPlanCoverage — a row assigned to a bin that does not exist.
TEST(PlanAuditTest, OutOfRangeBinFiresCoverage) {
  partition::PartitionPlan plan = SmallPlan();
  plan.row_bin[7] = plan.geom.row_shards + 3;
  CheckReport report;
  AuditPlan(plan, AmpleLimits(), &report);
  EXPECT_GE(report.count(Rule::kPlanCoverage), 1u);
}

// Rule: kPlanCoverage — row coverage not exact (truncated map).
TEST(PlanAuditTest, TruncatedRowBinFiresCoverage) {
  partition::PartitionPlan plan = SmallPlan();
  plan.row_bin.pop_back();
  CheckReport report;
  AuditPlan(plan, AmpleLimits(), &report);
  EXPECT_EQ(report.count(Rule::kPlanCoverage), 1u);
}

// Rule: kPlanCoverage — one row claimed by two cache lists (two homes).
TEST(PlanAuditTest, RowInTwoCacheListsFiresCoverage) {
  partition::PartitionPlan plan = SmallPlan();
  plan.cache.lists.push_back(cache::CacheList{{1, 2}, 10.0});
  plan.cache.lists.push_back(cache::CacheList{{2, 3}, 5.0});
  plan.list_bin = {0, 1};
  // BuildItemToList itself aborts on overlap; hand-build the last-wins
  // map the corrupted plan implies.
  plan.item_list.assign(plan.geom.table.rows, -1);
  plan.item_list[1] = 0;
  plan.item_list[2] = 1;
  plan.item_list[3] = 1;
  CheckReport report;
  AuditPlan(plan, AmpleLimits(), &report);
  EXPECT_GE(report.count(Rule::kPlanCoverage), 1u);
}

// Rule: kPlanCapacity — a bin's tile exceeding the EMT region.
TEST(PlanAuditTest, OverfullBinFiresCapacity) {
  partition::PartitionPlan plan = SmallPlan();
  PlanAuditLimits limits = AmpleLimits();
  // 64 rows / 4 bins = 16 rows x 16 bytes per bin; allow only 8 rows.
  limits.emt_bytes = 8 * plan.geom.row_bytes();
  CheckReport report;
  AuditPlan(plan, limits, &report);
  EXPECT_GE(report.count(Rule::kPlanCapacity), 1u);
}

// Rule: kCacheColocation — item_list disagreeing with the lists.
TEST(PlanAuditTest, InconsistentItemListFiresColocation) {
  partition::PartitionPlan plan = SmallPlan();
  plan.cache.lists.push_back(cache::CacheList{{1, 2}, 10.0});
  plan.list_bin = {0};
  plan.item_list = plan.cache.BuildItemToList(plan.geom.table.rows);
  plan.item_list[5] = 0;  // row 5 claims list 0 membership it lacks
  CheckReport report;
  AuditPlan(plan, AmpleLimits(), &report);
  EXPECT_EQ(report.count(Rule::kCacheColocation), 1u);
}

// Rule: kCacheColocation — a list placed in a bin that does not exist.
TEST(PlanAuditTest, UnplacedListFiresColocation) {
  partition::PartitionPlan plan = SmallPlan();
  plan.cache.lists.push_back(cache::CacheList{{1, 2}, 10.0});
  plan.list_bin = {-1};
  plan.item_list = plan.cache.BuildItemToList(plan.geom.table.rows);
  CheckReport report;
  AuditPlan(plan, AmpleLimits(), &report);
  EXPECT_GE(report.count(Rule::kCacheColocation), 1u);
}

// Rule: kTileShape — Nc outside the §3.1 uniform-model claim.
TEST(PlanAuditTest, WideNcUnderModelClaimFiresTileShape) {
  auto geom = partition::GroupGeometry::Make(
      dlrm::TableShape{.rows = 64, .cols = 32}, /*dpus_per_table=*/4,
      /*nc=*/16);
  UPDLRM_CHECK(geom.ok());
  auto plan = partition::UniformPartition(*geom);
  UPDLRM_CHECK(plan.ok());
  PlanAuditLimits limits = AmpleLimits();
  CheckReport report;
  AuditPlan(*plan, limits, &report);
  EXPECT_EQ(report.count(Rule::kTileShape), 0u);  // no claim, no rule
  limits.claims_uniform_model = true;
  AuditPlan(*plan, limits, &report);
  EXPECT_EQ(report.count(Rule::kTileShape), 1u);
}

// Rule: kWramCapacity — pinning beyond the kernel's clamp.
TEST(PlanAuditTest, OverfullWramTierFiresCapacity) {
  CheckReport report;
  AuditWramCapacity(/*bin=*/2, /*pinned_rows=*/512, /*max_rows=*/512,
                    &report);
  EXPECT_EQ(report.count(Rule::kWramCapacity), 0u);
  AuditWramCapacity(2, 513, 512, &report);
  EXPECT_EQ(report.count(Rule::kWramCapacity), 1u);
  EXPECT_NE(report.first_offender(Rule::kWramCapacity).find("bin 2"),
            std::string::npos);
}

}  // namespace
}  // namespace updlrm::check
