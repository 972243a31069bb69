#include "check/dataflow_audit.h"

#include <gtest/gtest.h>

#include <vector>

namespace updlrm::check {
namespace {

// ---- Plan shape. ----

DataFlowShape LegalShape() {
  DataFlowShape s;
  s.depth = 2;
  s.bottom_overlap_layers = 1;
  s.bottom_layers = 3;
  s.bottom_on_gpu = false;
  s.top_on_gpu = true;
  s.gpu_available = true;
  return s;
}

TEST(DataFlowShapeAudit, CleanShapeAddsNothing) {
  CheckReport report;
  AuditDataFlowShape(LegalShape(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(DataFlowShapeAudit, FiresOnZeroDepth) {
  CheckReport report;
  DataFlowShape s = LegalShape();
  s.depth = 0;
  AuditDataFlowShape(s, &report);
  EXPECT_EQ(report.count(Rule::kDataFlowShape), 1u);
}

TEST(DataFlowShapeAudit, FiresOnExcessiveDepth) {
  CheckReport report;
  DataFlowShape s = LegalShape();
  s.depth = kMaxPipelineDepth + 1;
  AuditDataFlowShape(s, &report);
  EXPECT_EQ(report.count(Rule::kDataFlowShape), 1u);
  EXPECT_NE(report.first_offender(Rule::kDataFlowShape).find("depth"),
            std::string::npos);
}

TEST(DataFlowShapeAudit, FiresOnOverlapSplitBeyondStack) {
  CheckReport report;
  DataFlowShape s = LegalShape();
  s.bottom_overlap_layers = 4;  // stack has 3
  AuditDataFlowShape(s, &report);
  EXPECT_EQ(report.count(Rule::kDataFlowShape), 1u);
}

TEST(DataFlowShapeAudit, FiresOnGpuPlacementWithoutGpu) {
  CheckReport report;
  DataFlowShape s = LegalShape();
  s.gpu_available = false;  // but top_on_gpu stays true
  AuditDataFlowShape(s, &report);
  EXPECT_EQ(report.count(Rule::kDataFlowShape), 1u);
  EXPECT_NE(report.first_offender(Rule::kDataFlowShape).find("GPU"),
            std::string::npos);
}

// ---- In-flight IO capacity. ----

TEST(DataFlowCapacityAudit, CleanWhenBufferPairsFit) {
  CheckReport report;
  DataFlowCapacity cap;
  cap.depth = 2;
  cap.max_index_bytes = 1024;
  cap.max_output_bytes = 4096;
  cap.index_region_bytes = 4 * 1024;
  cap.output_region_bytes = 16 * 1024;
  AuditDataFlowCapacity(cap, &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(DataFlowCapacityAudit, FiresWhenDepthOverflowsIndexRegion) {
  CheckReport report;
  DataFlowCapacity cap;
  cap.depth = 4;
  cap.max_index_bytes = 2048;  // 4 x 2048 > 4096
  cap.max_output_bytes = 16;
  cap.index_region_bytes = 4096;
  cap.output_region_bytes = 4096;
  AuditDataFlowCapacity(cap, &report);
  EXPECT_EQ(report.count(Rule::kDataFlowCapacity), 1u);
  EXPECT_NE(report.first_offender(Rule::kDataFlowCapacity).find("index"),
            std::string::npos);
}

TEST(DataFlowCapacityAudit, FiresWhenDepthOverflowsOutputRegion) {
  CheckReport report;
  DataFlowCapacity cap;
  cap.depth = 2;
  cap.max_index_bytes = 16;
  cap.max_output_bytes = 3000;  // 2 x 3000 > 4096
  cap.index_region_bytes = 4096;
  cap.output_region_bytes = 4096;
  AuditDataFlowCapacity(cap, &report);
  EXPECT_EQ(report.count(Rule::kDataFlowCapacity), 1u);
  EXPECT_NE(report.first_offender(Rule::kDataFlowCapacity).find("output"),
            std::string::npos);
}

// ---- Stage ordering. ----

StageInstants WellOrdered() {
  StageInstants t;
  t.cut_ns = 100;
  t.bpre_start_ns = 100;
  t.bpre_end_ns = 150;
  t.fabric_start_ns = 100;
  t.fabric_end_ns = 100;
  t.s1_start_ns = 100;
  t.s1_end_ns = 200;
  t.s2_start_ns = 200;
  t.s2_end_ns = 400;
  t.s3_start_ns = 410;
  t.pull_end_ns = 460;
  t.s3_end_ns = 500;
  t.bottom_done_ns = 450;
  t.top_start_ns = 500;
  t.top_end_ns = 600;
  return t;
}

TEST(StageOrderingAudit, CleanBatchAddsNothing) {
  CheckReport report;
  AuditStageOrdering(0, WellOrdered(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(StageOrderingAudit, ExactlyTouchingStagesAreClean) {
  // Back-to-back scheduling (end == next start) is the common case and
  // must not fire.
  CheckReport report;
  StageInstants t = WellOrdered();
  t.s3_start_ns = t.s2_end_ns;
  t.top_start_ns = t.s3_end_ns;
  AuditStageOrdering(3, t, &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(StageOrderingAudit, FiresWhenStageStartsBeforeCut) {
  CheckReport report;
  StageInstants t = WellOrdered();
  t.s1_start_ns = t.cut_ns - 50;
  AuditStageOrdering(7, t, &report);
  EXPECT_GE(report.count(Rule::kStageOrdering), 1u);
  EXPECT_NE(report.first_offender(Rule::kStageOrdering).find("batch 7"),
            std::string::npos);
}

TEST(StageOrderingAudit, FabricHopBetweenCutAndPushIsClean) {
  CheckReport report;
  StageInstants t = WellOrdered();
  t.fabric_start_ns = 110;
  t.fabric_end_ns = 130;
  t.s1_start_ns = 130;
  AuditStageOrdering(0, t, &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(StageOrderingAudit, FiresOnEachBrokenFabricEdge) {
  // cut <= fabric start <= fabric end <= s1 start: break each edge alone.
  {
    CheckReport report;
    StageInstants t = WellOrdered();
    t.fabric_start_ns = t.cut_ns - 10;
    AuditStageOrdering(0, t, &report);
    EXPECT_EQ(report.count(Rule::kStageOrdering), 1u);
    EXPECT_NE(report.first_offender(Rule::kStageOrdering).find("cut"),
              std::string::npos);
  }
  {
    CheckReport report;
    StageInstants t = WellOrdered();
    t.fabric_start_ns = 120;
    t.fabric_end_ns = 110;
    t.s1_start_ns = 120;
    AuditStageOrdering(0, t, &report);
    EXPECT_EQ(report.count(Rule::kStageOrdering), 1u);
  }
  {
    CheckReport report;
    StageInstants t = WellOrdered();
    t.fabric_end_ns = t.s1_start_ns + 5;  // the push outran its hop
    AuditStageOrdering(0, t, &report);
    EXPECT_EQ(report.count(Rule::kStageOrdering), 1u);
    EXPECT_NE(report.first_offender(Rule::kStageOrdering).find("fabric"),
              std::string::npos);
  }
}

TEST(StageOrderingAudit, FiresWhenLookupPrecedesPush) {
  CheckReport report;
  StageInstants t = WellOrdered();
  t.s2_start_ns = t.s1_end_ns - 10;
  AuditStageOrdering(0, t, &report);
  EXPECT_EQ(report.count(Rule::kStageOrdering), 1u);
}

TEST(StageOrderingAudit, FiresWhenTopIgnoresBottomDependency) {
  CheckReport report;
  StageInstants t = WellOrdered();
  t.bottom_done_ns = t.top_start_ns + 25;  // top started too early
  AuditStageOrdering(0, t, &report);
  EXPECT_GE(report.count(Rule::kStageOrdering), 1u);
}

TEST(StageOrderingAudit, FiresWhenAggregateEndsBeforeItsPull) {
  CheckReport report;
  StageInstants t = WellOrdered();
  t.pull_end_ns = t.s3_end_ns + 10;  // the aggregate outran its input
  AuditStageOrdering(2, t, &report);
  EXPECT_EQ(report.count(Rule::kStageOrdering), 1u);
  EXPECT_NE(report.first_offender(Rule::kStageOrdering).find("pull"),
            std::string::npos);
}

TEST(StageOrderingAudit, FiresOnNegativeDuration) {
  CheckReport report;
  StageInstants t = WellOrdered();
  t.s3_end_ns = t.s3_start_ns - 1;
  AuditStageOrdering(0, t, &report);
  EXPECT_GE(report.count(Rule::kStageOrdering), 1u);
}

// `t` moved `by` ns later.
StageInstants Shifted(StageInstants t, double by) {
  for (double* x :
       {&t.cut_ns, &t.bpre_start_ns, &t.bpre_end_ns, &t.fabric_start_ns,
        &t.fabric_end_ns, &t.s1_start_ns, &t.s1_end_ns, &t.s2_start_ns,
        &t.s2_end_ns, &t.s3_start_ns, &t.pull_end_ns, &t.s3_end_ns,
        &t.bottom_done_ns, &t.top_start_ns, &t.top_end_ns}) {
    *x += by;
  }
  return t;
}

TEST(StageOrderingAudit, SlotEdgesCleanWhenEachSlotIsFree) {
  // Depth 2: batch 2 reuses batch 0's slots after its pull (t = 460).
  const std::vector<StageInstants> schedule = {
      WellOrdered(), Shifted(WellOrdered(), 100), Shifted(WellOrdered(), 400)};
  CheckReport report;
  AuditStageOrdering(schedule, 2, &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(StageOrderingAudit, FiresWhenAKernelOverwritesAnOutputSlotBeingPulled) {
  // Batch 2's stage 2 starts at 450, while batch 0's pull runs to 460.
  std::vector<StageInstants> schedule = {
      WellOrdered(), Shifted(WellOrdered(), 100), Shifted(WellOrdered(), 300)};
  schedule[2].s1_end_ns = 440;
  schedule[2].s2_start_ns = 450;
  CheckReport report;
  AuditStageOrdering(schedule, 2, &report);
  EXPECT_EQ(report.count(Rule::kStageOrdering), 1u);
  EXPECT_NE(report.first_offender(Rule::kStageOrdering).find("output slot"),
            std::string::npos);
  // At depth 3 batch 2 has a slot of its own.
  CheckReport deeper;
  AuditStageOrdering(schedule, 3, &deeper);
  EXPECT_TRUE(deeper.clean()) << deeper.ToString();
}

TEST(StageOrderingAudit, FiresWhenAPushOverwritesAnIndexSlotInUse) {
  // Batch 1's push starts at 300, while batch 0's stage 2 runs to 400.
  std::vector<StageInstants> schedule = {WellOrdered(),
                                         Shifted(WellOrdered(), 200)};
  CheckReport report;
  AuditStageOrdering(schedule, 1, &report);
  EXPECT_GE(report.count(Rule::kStageOrdering), 1u);
  EXPECT_NE(report.first_offender(Rule::kStageOrdering).find("index slot"),
            std::string::npos);
}

}  // namespace
}  // namespace updlrm::check
