#include "updlrm/pipelining.h"

#include <gtest/gtest.h>

#include <vector>

namespace updlrm::core {
namespace {

StageBreakdown Batch(Nanos s1, Nanos s2, Nanos s3, Nanos agg = 0.0,
                     Nanos ingress = 0.0) {
  StageBreakdown b;
  b.cpu_to_dpu = s1;
  b.dpu_lookup = s2;
  b.dpu_to_cpu = s3;
  b.cpu_aggregate = agg;
  b.ingress = ingress;
  return b;
}

TEST(PipeliningTest, SingleBatchGainsNothing) {
  const std::vector<StageBreakdown> batches = {Batch(10, 50, 10)};
  const auto e = EstimatePipelinedEmbedding(batches);
  EXPECT_DOUBLE_EQ(e.serial_ns, 70.0);
  // DPUs: fill(10) + 50 + drain(10) = 70 == serial.
  EXPECT_DOUBLE_EQ(e.pipelined_ns, 70.0);
  EXPECT_DOUBLE_EQ(e.Speedup(), 1.0);
}

TEST(PipeliningTest, DpuBoundSteadyState) {
  // Host work per batch 20, DPU work 80: the DPUs bound the pipeline.
  std::vector<StageBreakdown> batches(10, Batch(10, 80, 10));
  const auto e = EstimatePipelinedEmbedding(batches);
  EXPECT_DOUBLE_EQ(e.serial_ns, 1000.0);
  EXPECT_DOUBLE_EQ(e.dpu_work_ns, 800.0);
  EXPECT_DOUBLE_EQ(e.pipelined_ns, 800.0 + 10.0 + 10.0);
  EXPECT_EQ(e.Binding(), PipelineResource::kDpus);
  EXPECT_NEAR(e.Speedup(), 1000.0 / 820.0, 1e-12);
}

TEST(PipeliningTest, TransferBoundSteadyState) {
  std::vector<StageBreakdown> batches(10, Batch(40, 20, 40, 10));
  const auto e = EstimatePipelinedEmbedding(batches);
  EXPECT_EQ(e.Binding(), PipelineResource::kTransferLane);
  EXPECT_DOUBLE_EQ(e.host_work_ns, 800.0);
  EXPECT_DOUBLE_EQ(e.core_work_ns, 100.0);
  // Transfer lane: 800 + the last aggregation 10 = 810 < serial 1100.
  // (Adding the DPUs' fill and drain to it would count the first push
  // and the last pull twice.)
  EXPECT_DOUBLE_EQ(e.pipelined_ns, 810.0);
}

TEST(PipeliningTest, CoreBoundSteadyState) {
  // Aggregation runs on the cores, off the transfer lane: a batch
  // sequence whose aggregation outweighs its transfers and lookups is
  // bound by the cores alone.
  std::vector<StageBreakdown> batches(10, Batch(10, 20, 10, 30));
  const auto e = EstimatePipelinedEmbedding(batches);
  EXPECT_EQ(e.Binding(), PipelineResource::kCoreLane);
  EXPECT_DOUBLE_EQ(e.host_work_ns, 200.0);
  EXPECT_DOUBLE_EQ(e.dpu_work_ns, 200.0);
  EXPECT_DOUBLE_EQ(e.core_work_ns, 300.0);
  // Core lane: the first push, lookup and pull (40) + 300 = 340 <
  // serial 700.
  EXPECT_DOUBLE_EQ(e.pipelined_ns, 340.0);
  EXPECT_EQ(ResourceName(e.Binding()), "host cores");
}

TEST(PipeliningTest, BindingTiesPreferTransferThenDpus) {
  std::vector<StageBreakdown> batches(4, Batch(10, 20, 10, 20));
  EXPECT_EQ(EstimatePipelinedEmbedding(batches).Binding(),
            PipelineResource::kTransferLane);
  batches.assign(4, Batch(5, 20, 5, 20));
  EXPECT_EQ(EstimatePipelinedEmbedding(batches).Binding(),
            PipelineResource::kDpus);
}

TEST(PipeliningTest, NeverSlowerThanSerial) {
  // Pathological single-stage batches: every resource term stays at or
  // below serial execution.
  std::vector<StageBreakdown> batches(3, Batch(100, 0, 100, 50));
  const auto e = EstimatePipelinedEmbedding(batches);
  EXPECT_LE(e.pipelined_ns, e.serial_ns);
}

TEST(PipeliningTest, HeterogeneousBatches) {
  std::vector<StageBreakdown> batches = {Batch(10, 100, 5),
                                         Batch(30, 10, 5),
                                         Batch(20, 60, 15, 5)};
  const auto e = EstimatePipelinedEmbedding(batches);
  EXPECT_DOUBLE_EQ(e.dpu_work_ns, 170.0);
  EXPECT_DOUBLE_EQ(e.host_work_ns, 10 + 5 + 30 + 5 + 20 + 15);
  EXPECT_DOUBLE_EQ(e.core_work_ns, 5.0);
  // DPUs: fill = 10 (first batch s1), drain = 15 + 5 (last batch pull
  // + agg).
  EXPECT_DOUBLE_EQ(e.pipelined_ns, 170.0 + 10.0 + 20.0);
  EXPECT_GT(e.Speedup(), 1.0);
}

TEST(PipeliningTest, EmptyInputYieldsZeroedEstimate) {
  // Serving loops can reach the estimator before any batch executed;
  // that must be a zeroed estimate, not an abort.
  const std::vector<StageBreakdown> empty;
  const auto e = EstimatePipelinedEmbedding(empty);
  EXPECT_DOUBLE_EQ(e.serial_ns, 0.0);
  EXPECT_DOUBLE_EQ(e.pipelined_ns, 0.0);
  EXPECT_DOUBLE_EQ(e.host_work_ns, 0.0);
  EXPECT_DOUBLE_EQ(e.dpu_work_ns, 0.0);
  EXPECT_DOUBLE_EQ(e.core_work_ns, 0.0);
  EXPECT_DOUBLE_EQ(e.Speedup(), 0.0);
}

TEST(PipeliningTest, OneBatchFillAndDrainDpuBound) {
  // A single DPU-bound batch is pure fill + work + drain: the bound
  // equals serial exactly.
  const std::vector<StageBreakdown> batches = {Batch(10, 100, 5, 3)};
  const auto e = EstimatePipelinedEmbedding(batches);
  EXPECT_DOUBLE_EQ(e.serial_ns, 118.0);
  // fill(10) + dpu(100) + drain(5 + 3) = 118 == serial.
  EXPECT_DOUBLE_EQ(e.pipelined_ns, 118.0);
  EXPECT_EQ(e.Binding(), PipelineResource::kDpus);
}

TEST(PipeliningTest, OneBatchTransferBoundIsSerial) {
  // Transfer-bound single batch: the transfer lane's term (80 + 10)
  // sits below the DPUs' and the core lane's, which both span the
  // whole serial chain.
  const std::vector<StageBreakdown> batches = {Batch(40, 5, 40, 10)};
  const auto e = EstimatePipelinedEmbedding(batches);
  EXPECT_DOUBLE_EQ(e.serial_ns, 95.0);
  EXPECT_DOUBLE_EQ(e.pipelined_ns, 95.0);
  EXPECT_EQ(e.Binding(), PipelineResource::kTransferLane);
}

TEST(PipeliningTest, FabricBoundNamesTheFabric) {
  // 45 of each batch's 50 ns of stage 1 cross the fabric: the hops,
  // not the buses, bound the pipeline.
  std::vector<StageBreakdown> batches(10, Batch(50, 10, 5, 0, 45));
  const auto e = EstimatePipelinedEmbedding(batches);
  EXPECT_DOUBLE_EQ(e.fabric_work_ns, 450.0);
  EXPECT_DOUBLE_EQ(e.host_work_ns, 100.0);  // 5 bus + 5 pull per batch
  EXPECT_EQ(e.Binding(), PipelineResource::kFabric);
  EXPECT_EQ(ResourceName(e.Binding()), "cross-host fabric");
  // Fabric: 450 + the last batch's bus push and pull (10).
  EXPECT_DOUBLE_EQ(e.pipelined_ns, 460.0);
  // The serial time still counts each stage 1 once.
  EXPECT_DOUBLE_EQ(e.serial_ns, 650.0);
}

TEST(PipeliningTest, IngressMovesStageOneOffTheTransferLane) {
  // Transfer-bound batches: moving 20 ns of each stage 1 onto the
  // fabric takes it off the transfer lane's work, and the lane's fill
  // becomes the first batch's hop.
  const std::vector<StageBreakdown> folded(10, Batch(40, 20, 40, 10));
  const std::vector<StageBreakdown> remote(10, Batch(40, 20, 40, 10, 20));
  const auto a = EstimatePipelinedEmbedding(folded);
  const auto b = EstimatePipelinedEmbedding(remote);
  EXPECT_DOUBLE_EQ(a.fabric_work_ns, 0.0);
  EXPECT_DOUBLE_EQ(b.fabric_work_ns, 200.0);
  EXPECT_DOUBLE_EQ(b.host_work_ns, a.host_work_ns - 200.0);
  EXPECT_DOUBLE_EQ(b.serial_ns, a.serial_ns);
  EXPECT_EQ(b.Binding(), PipelineResource::kTransferLane);
  // Transfer lane: the first hop (20) + 600 + the last aggregation 10.
  EXPECT_DOUBLE_EQ(b.pipelined_ns, 630.0);
  EXPECT_DOUBLE_EQ(a.pipelined_ns, 810.0);
}

// Under backlog one launch or call serves up to `depth` batches, so
// the bound counts each batch's stage 2 and pull less its fixed share,
// plus the fixed shares of the fewest calls: ceil(n / depth).
TEST(PipeliningTest, FixedSharesCountOncePerCallAtDepth) {
  StageBreakdown b = Batch(10, 80, 30);
  b.lookup_fixed = 50.0;
  b.pull_fixed = 20.0;
  const std::vector<StageBreakdown> batches(10, b);
  const auto serial = EstimatePipelinedEmbedding(batches, 1);
  EXPECT_DOUBLE_EQ(serial.dpu_work_ns, 800.0);
  EXPECT_DOUBLE_EQ(serial.host_work_ns, 10 * (10.0 + 30.0));
  const auto deep = EstimatePipelinedEmbedding(batches, 4);
  // ceil(10 / 4) = 3 launches and 3 calls.
  EXPECT_DOUBLE_EQ(deep.dpu_work_ns, 10 * 30.0 + 3 * 50.0);
  EXPECT_DOUBLE_EQ(deep.host_work_ns, 10 * (10.0 + 10.0) + 3 * 20.0);
  EXPECT_DOUBLE_EQ(deep.serial_ns, serial.serial_ns);
  EXPECT_LT(deep.pipelined_ns, serial.pipelined_ns);
  // With no fixed shares depth changes nothing, to the bit.
  const std::vector<StageBreakdown> plain(10, Batch(10, 80, 30, 5));
  EXPECT_EQ(EstimatePipelinedEmbedding(plain, 1).pipelined_ns,
            EstimatePipelinedEmbedding(plain, 4).pipelined_ns);
}

}  // namespace
}  // namespace updlrm::core
