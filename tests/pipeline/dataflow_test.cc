// Plan enumeration, per-batch task pricing, and the analytic
// steady-state predictor.
#include "pipeline/dataflow.h"

#include <gtest/gtest.h>

#include <set>

#include "check/dataflow_audit.h"

namespace updlrm::pipeline {
namespace {

dlrm::DlrmConfig SmallConfig() {
  dlrm::DlrmConfig config;
  config.num_tables = 2;
  config.rows_per_table = 600;
  config.embedding_dim = 8;
  config.dense_features = 5;
  config.bottom_hidden = {16};  // 2 bottom layers
  config.top_hidden = {16};
  return config;
}

core::BatchResult ProbeBatch() {
  core::BatchResult batch;
  batch.stages.cpu_to_dpu = 10'000.0;
  batch.stages.dpu_lookup = 40'000.0;
  batch.stages.dpu_to_cpu = 8'000.0;
  batch.stages.cpu_aggregate = 6'000.0;
  return batch;
}

TEST(EnumerateDataFlowsTest, CoversTheSpaceInDeterministicOrder) {
  DataFlowSpace space;
  space.max_depth = 2;
  space.bottom_layers = 2;
  space.allow_gpu = true;
  const auto plans = EnumerateDataFlows(space);
  // Per depth: split 0 has all 4 backend mixes; splits 1 and 2 only the
  // CPU-bottom pair -> 4 + 2 + 2 = 8 plans per depth.
  ASSERT_EQ(plans.size(), 16u);
  EXPECT_EQ(Name(plans[0]), "d1.split0.cpu-cpu");
  EXPECT_EQ(Name(plans[1]), "d1.split0.cpu-gpu");
  EXPECT_EQ(Name(plans[2]), "d1.split0.gpu-cpu");
  EXPECT_EQ(Name(plans[3]), "d1.split0.gpu-gpu");
  EXPECT_EQ(Name(plans[4]), "d1.split1.cpu-cpu");
  EXPECT_EQ(Name(plans.back()), "d2.split2.cpu-gpu");
  // Names are unique (the enumeration never repeats a plan).
  std::set<std::string> names;
  for (const auto& p : plans) names.insert(Name(p));
  EXPECT_EQ(names.size(), plans.size());
  // GPU-bottom plans always carry split 0.
  for (const auto& p : plans) {
    if (p.bottom == Backend::kGpu) {
      EXPECT_EQ(p.bottom_split, 0u);
    }
  }
}

TEST(EnumerateDataFlowsTest, GpuPlacementsGatedOnAvailability) {
  DataFlowSpace space;
  space.max_depth = 3;
  space.bottom_layers = 2;
  space.allow_gpu = false;
  const auto plans = EnumerateDataFlows(space);
  ASSERT_EQ(plans.size(), 9u);  // 3 depths x 3 splits, CPU-CPU only
  for (const auto& p : plans) {
    EXPECT_EQ(p.bottom, Backend::kCpu);
    EXPECT_EQ(p.top, Backend::kCpu);
  }
}

TEST(EnumerateDataFlowsTest, DepthClampsToTheAuditBound) {
  DataFlowSpace space;
  space.max_depth = 99;
  space.bottom_layers = 1;
  space.allow_gpu = false;
  const auto plans = EnumerateDataFlows(space);
  for (const auto& p : plans) {
    EXPECT_LE(p.depth, check::kMaxPipelineDepth);
    EXPECT_GE(p.depth, 1u);
  }
  EXPECT_EQ(plans.size(), check::kMaxPipelineDepth * 2u);
}

TEST(ComputeBatchTaskCostsTest, SplitPartitionsTheBottomStack) {
  const auto config = SmallConfig();
  const host::CpuTimingModel cpu;
  const host::GpuTimingModel gpu;
  const auto batch = ProbeBatch();

  DataFlowPlan whole;  // split 0: everything in the post task
  whole.bottom_split = 0;
  const auto c0 = ComputeBatchTaskCosts(config, cpu, gpu, batch, 64, whole);
  EXPECT_EQ(c0.bottom_pre, 0.0);
  EXPECT_GT(c0.bottom_post, 0.0);
  EXPECT_EQ(c0.bottom_gpu, 0.0);
  EXPECT_EQ(c0.top_gpu, 0.0);
  EXPECT_GT(c0.interact, 0.0);
  EXPECT_GT(c0.top_mlp, 0.0);

  DataFlowPlan split;
  split.bottom_split = 1;
  const auto c1 = ComputeBatchTaskCosts(config, cpu, gpu, batch, 64, split);
  EXPECT_GT(c1.bottom_pre, 0.0);
  EXPECT_GT(c1.bottom_post, 0.0);
  // The split moves work between the halves without changing the total
  // (MlpTime is linear in FLOPs).
  EXPECT_NEAR(c1.bottom_host(), c0.bottom_host(),
              1e-9 * c0.bottom_host());
  // Embedding stage times pass through untouched.
  EXPECT_EQ(c1.emb.dpu_lookup, batch.stages.dpu_lookup);
}

TEST(ComputeBatchTaskCostsTest, GpuOffloadCarriesTheSyncTax) {
  const auto config = SmallConfig();
  const host::CpuTimingModel cpu;
  const host::GpuTimingModel gpu;
  const auto batch = ProbeBatch();

  DataFlowPlan plan;
  plan.bottom = Backend::kGpu;
  plan.top = Backend::kGpu;
  const auto c = ComputeBatchTaskCosts(config, cpu, gpu, batch, 64, plan);
  EXPECT_EQ(c.bottom_pre, 0.0);
  EXPECT_EQ(c.bottom_post, 0.0);
  EXPECT_GE(c.bottom_gpu, gpu.BatchSyncOverhead());
  EXPECT_GE(c.top_gpu, gpu.BatchSyncOverhead());
  // At batch 64 the fixed per-batch overheads dwarf the host's dense
  // time for this small model — the paper's hybrid-slower-than-CPU
  // asymmetry the tuner must navigate.
  EXPECT_GT(c.bottom_gpu, c.bottom_host());
  EXPECT_GT(c.top_gpu, c.top_host());
}

// Completion of ProbeBatch() scheduled alone under `plan` (depth 1,
// split 0, both dense stages on `backend`).
Nanos SingleBatchLatency(const dlrm::DlrmConfig& config, Backend backend) {
  const host::CpuTimingModel cpu;
  const host::GpuTimingModel gpu;
  DataFlowPlan plan;
  plan.depth = 1;
  plan.bottom = backend;
  plan.top = backend;
  serve::DataFlowExecutor executor(plan);
  executor.Submit(
      ComputeBatchTaskCosts(config, cpu, gpu, ProbeBatch(), 64, plan), 0.0);
  executor.Drain();
  return executor.batches()[0].done_ns;
}

TEST(ComputeBatchTaskCostsTest, GpuOffloadPaysOffOnlyForWideStacks) {
  // The UpDLRM-G crossover (§6 future work): with small MLPs the PCIe +
  // sync overheads make the offload slower than host-side MLPs; with
  // wide stacks the GPU wins despite them.
  const auto small = SmallConfig();
  EXPECT_LT(SingleBatchLatency(small, Backend::kCpu),
            SingleBatchLatency(small, Backend::kGpu));
  auto wide = SmallConfig();
  wide.bottom_hidden = {4096, 4096, 4096};
  wide.top_hidden = {4096, 4096, 4096};
  EXPECT_GT(SingleBatchLatency(wide, Backend::kCpu),
            SingleBatchLatency(wide, Backend::kGpu));
}

TEST(PredictFlowTest, BoundsAndDepthMonotonicity) {
  const auto config = SmallConfig();
  const host::CpuTimingModel cpu;
  const host::GpuTimingModel gpu;
  const auto batch = ProbeBatch();

  DataFlowPlan d1;
  d1.depth = 1;
  DataFlowPlan d2;
  d2.depth = 2;
  const auto c1 = ComputeBatchTaskCosts(config, cpu, gpu, batch, 64, d1);
  const auto c2 = ComputeBatchTaskCosts(config, cpu, gpu, batch, 64, d2);
  const Nanos p1 = PredictFlow(c1, d1);
  const Nanos p2 = PredictFlow(c2, d2);
  // Depth 1 serializes push + lookup into the admission period; deeper
  // pipelines can only help the steady-state score.
  EXPECT_GE(p1, p2);
  // Nothing beats the single-batch critical path.
  EXPECT_GE(p2, batch.stages.EmbeddingTotal());
  EXPECT_GE(p2, c2.top_host());
}

TEST(PredictFlowTest, HostLanesAreSeparateResources) {
  // Transfers and core work overlap on the executor, so the period is
  // the busier lane, not their sum.
  BatchTaskCosts c;
  c.emb.cpu_to_dpu = 100.0;
  c.emb.dpu_lookup = 50.0;
  c.emb.dpu_to_cpu = 100.0;
  c.emb.cpu_aggregate = 30.0;
  c.bottom_post = 500.0;
  c.interact = 10.0;
  c.top_mlp = 40.0;
  DataFlowPlan plan;
  plan.depth = 2;
  // Core lane 30 + 500 + 50 = 580 beats the critical path
  // max(280, 500) + 50 = 550 and the transfer lane's 200.
  EXPECT_DOUBLE_EQ(PredictFlow(c, plan), 580.0);
  // Moving the dense stages to the GPU leaves the core lane only the
  // aggregation: the critical path binds.
  plan.bottom = Backend::kGpu;
  plan.top = Backend::kGpu;
  c.bottom_gpu = 120.0;
  c.top_gpu = 90.0;
  EXPECT_DOUBLE_EQ(PredictFlow(c, plan), 280.0 + 90.0);
}

}  // namespace
}  // namespace updlrm::pipeline
