// Embedding-only execution on the data-flow executor (the plan with no
// dense stages), and the validation of the `EstimatePipelinedEmbedding`
// two-resource bound against the executed schedule (the bound used to
// be the only pipelining story; now it is checked against what the
// executor actually achieves).
#include "serve/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "updlrm/pipelining.h"

namespace updlrm::serve {
namespace {

core::StageBreakdown Batch(Nanos s1, Nanos s2, Nanos s3,
                           Nanos agg = 0.0) {
  core::StageBreakdown b;
  b.cpu_to_dpu = s1;
  b.dpu_lookup = s2;
  b.dpu_to_cpu = s3;
  b.cpu_aggregate = agg;
  return b;
}

BatchTaskCosts EmbeddingOnly(const core::StageBreakdown& stages) {
  BatchTaskCosts costs;
  costs.emb = stages;
  return costs;
}

DataFlowPlan PlanOfDepth(std::uint32_t depth) {
  DataFlowPlan plan;
  plan.depth = depth;
  return plan;
}

// Executes a fixed batch sequence under the embedding-only plan, each
// batch cut as soon as the buffer window admits it.
DataFlowExecutor Execute(std::span<const core::StageBreakdown> batches,
                         std::uint32_t depth = 2) {
  DataFlowExecutor executor(PlanOfDepth(depth));
  executor.Reserve(batches.size());
  for (const core::StageBreakdown& b : batches) {
    executor.Submit(EmbeddingOnly(b), executor.NextAdmitTime());
  }
  executor.Drain();
  return executor;
}

// An embedding-only batch completes at its stage-3 end.
Nanos Makespan(const DataFlowExecutor& executor) {
  return executor.batches().empty() ? 0.0
                                    : executor.batches().back().s3_end_ns;
}

Nanos Serial(std::span<const core::StageBreakdown> batches) {
  Nanos total = 0.0;
  for (const auto& b : batches) total += b.EmbeddingTotal();
  return total;
}

TEST(ExecutorTest, EmptySequenceHasZeroMakespan) {
  const auto exec = Execute({});
  EXPECT_DOUBLE_EQ(Makespan(exec), 0.0);
  EXPECT_TRUE(exec.batches().empty());
}

TEST(ExecutorTest, SingleBatchRunsSerially) {
  const std::vector<core::StageBreakdown> batches = {Batch(10, 50, 7, 3)};
  const auto exec = Execute(batches);
  const auto& b = exec.batches()[0];
  EXPECT_DOUBLE_EQ(b.s1_start_ns, 0.0);
  EXPECT_DOUBLE_EQ(b.s2_start_ns, 10.0);
  EXPECT_DOUBLE_EQ(b.s3_start_ns, 60.0);
  EXPECT_DOUBLE_EQ(Makespan(exec), 70.0);
  EXPECT_DOUBLE_EQ(Makespan(exec), Serial(batches));
}

TEST(ExecutorTest, DoubleBufferOverlapsAdjacentBatches) {
  // DPU-bound homogeneous: stage 2 back-to-back after the first fill.
  const std::vector<core::StageBreakdown> batches(4, Batch(10, 80, 5, 5));
  const auto exec = Execute(batches);
  for (std::size_t k = 0; k < batches.size(); ++k) {
    const auto& b = exec.batches()[k];
    EXPECT_DOUBLE_EQ(b.s2_start_ns, 10.0 + 80.0 * static_cast<double>(k))
        << k;
  }
  // fill(10) + 4 * 80 + drain(10) vs serial 400.
  EXPECT_DOUBLE_EQ(Makespan(exec), 340.0);
  EXPECT_LT(Makespan(exec), Serial(batches));
}

TEST(ExecutorTest, DepthLimitsInFlightBatches) {
  DataFlowExecutor exec(PlanOfDepth(2));
  EXPECT_DOUBLE_EQ(exec.NextAdmitTime(), 0.0);
  exec.Submit(EmbeddingOnly(Batch(10, 100, 5)), 0.0);
  EXPECT_DOUBLE_EQ(exec.NextAdmitTime(), 0.0);  // second buffer free
  exec.Submit(EmbeddingOnly(Batch(10, 100, 5)), 0.0);
  // The third batch reuses batch 0's buffers: admit at its s2 end.
  EXPECT_DOUBLE_EQ(exec.NextAdmitTime(), 110.0);
  exec.Submit(EmbeddingOnly(Batch(10, 100, 5)), 110.0);
  EXPECT_DOUBLE_EQ(exec.NextAdmitTime(), 210.0);
  exec.Drain();
  EXPECT_DOUBLE_EQ(Makespan(exec), 315.0);
}

TEST(ExecutorTest, DepthOneSerializesAdmission) {
  const std::vector<core::StageBreakdown> batches(3, Batch(10, 80, 5, 5));
  const auto pipelined = Execute(batches, 2);
  const auto serial_admit = Execute(batches, 1);
  // With one buffer pair batch k+1's push waits for batch k's stage-2
  // end; the DPUs idle during every push.
  EXPECT_GT(Makespan(serial_admit), Makespan(pipelined));
}

TEST(ExecutorTest, Stage1PriorityKeepsDpusFed) {
  // Host has a long stage 3; the next batch's push must still happen
  // at the tie instant so the DPUs never wait on a pull.
  const std::vector<core::StageBreakdown> batches(3, Batch(10, 60, 30, 0));
  const auto exec = Execute(batches);
  // s2 chain: [10, 70), [70, 130), [130, 190): batch 2's push (cut at
  // batch 0's s2 end, t = 70) wins the tie against batch 0's pull.
  EXPECT_DOUBLE_EQ(exec.batches()[1].s2_start_ns, 70.0);
  EXPECT_DOUBLE_EQ(exec.batches()[2].s1_start_ns, 70.0);
  EXPECT_DOUBLE_EQ(exec.batches()[0].s3_start_ns, 80.0);
  EXPECT_DOUBLE_EQ(exec.batches()[2].s2_start_ns, 130.0);
}

// The acceptance contract between the estimator and the executor: for
// homogeneous DPU-bound batches (the regime the paper's workloads live
// in — stage 2 dominates), the two-resource estimate is a true lower
// bound of any schedule, and the executed double-buffered schedule
// lands within fill + drain of it.
TEST(ExecutorTest, ExecutedMakespanMatchesBoundForHomogeneousBatches) {
  for (const std::size_t n : {1u, 2u, 3u, 10u, 64u}) {
    const std::vector<core::StageBreakdown> batches(n,
                                                    Batch(12, 90, 6, 4));
    const auto estimate = core::EstimatePipelinedEmbedding(batches);
    const auto exec = Execute(batches);
    const Nanos fill = batches.front().cpu_to_dpu;
    const Nanos drain = batches.back().dpu_to_cpu +
                        batches.back().cpu_aggregate;
    EXPECT_GE(Makespan(exec), estimate.pipelined_ns - 1e-9) << n;
    EXPECT_LE(Makespan(exec),
              estimate.pipelined_ns + fill + drain + 1e-9)
        << n;
    // DPU-bound homogeneous is exactly the bound: fill + Σ s2 + drain.
    EXPECT_NEAR(Makespan(exec), estimate.pipelined_ns, 1e-9) << n;
  }
}

TEST(ExecutorTest, ExecutedRespectsTrueLowerBoundsOnMixedBatches) {
  const std::vector<core::StageBreakdown> batches = {
      Batch(10, 100, 5, 2), Batch(30, 10, 5, 1), Batch(20, 60, 15, 5),
      Batch(5, 40, 5, 0),   Batch(25, 80, 10, 3)};
  const auto exec = Execute(batches);
  // Any schedule is bounded below by each serial resource and by the
  // fill + DPU chain + drain critical path.
  Nanos host = 0.0, dpu = 0.0;
  for (const auto& b : batches) {
    host += b.cpu_to_dpu + b.dpu_to_cpu + b.cpu_aggregate;
    dpu += b.dpu_lookup;
  }
  const Nanos fill = batches.front().cpu_to_dpu;
  const Nanos drain =
      batches.back().dpu_to_cpu + batches.back().cpu_aggregate;
  EXPECT_GE(Makespan(exec), host);
  EXPECT_GE(Makespan(exec), fill + dpu + drain);
  EXPECT_LE(Makespan(exec), Serial(batches));
  // Resource accounting adds up, with no dense time anywhere.
  EXPECT_DOUBLE_EQ(exec.host_busy_ns(), host);
  EXPECT_DOUBLE_EQ(exec.dpu_busy_ns(), dpu);
  EXPECT_DOUBLE_EQ(exec.host_mlp_busy_ns(), 0.0);
  EXPECT_DOUBLE_EQ(exec.gpu_busy_ns(), 0.0);
}

// The two-resource embedding schedule with no dense tasks at all,
// written out directly: the host runs stage 1 at the cut (winning
// ties) and stage 3 work-conserving in batch order, the DPUs run
// stage 2 FIFO, and `depth` buffer pairs gate the cuts.
class TwoResourceSchedule {
 public:
  explicit TwoResourceSchedule(std::uint32_t depth) : depth_(depth) {}

  Nanos NextAdmitTime() const {
    if (batches_.size() < depth_) return last_cut_;
    return std::max(last_cut_,
                    batches_[batches_.size() - depth_].s2_end_ns);
  }

  void Submit(const core::StageBreakdown& stages, Nanos cut_ns) {
    AdvanceHost(cut_ns);
    ExecutedFlowBatch b;
    b.costs.emb = stages;
    b.cut_ns = cut_ns;
    b.s1_start_ns = std::max(cut_ns, host_free_);
    b.s1_end_ns = b.s1_start_ns + stages.cpu_to_dpu;
    host_free_ = b.s1_end_ns;
    host_busy_ += stages.cpu_to_dpu;
    b.s2_start_ns = std::max(b.s1_end_ns, dpu_free_);
    b.s2_end_ns = b.s2_start_ns + stages.dpu_lookup;
    dpu_free_ = b.s2_end_ns;
    dpu_busy_ += stages.dpu_lookup;
    last_cut_ = cut_ns;
    batches_.push_back(b);
  }

  void Drain() { AdvanceHost(std::numeric_limits<double>::infinity()); }

  const std::vector<ExecutedFlowBatch>& batches() const { return batches_; }
  Nanos host_busy_ns() const { return host_busy_; }
  Nanos dpu_busy_ns() const { return dpu_busy_; }

 private:
  void AdvanceHost(Nanos until) {
    while (next_s3_ < batches_.size()) {
      ExecutedFlowBatch& b = batches_[next_s3_];
      const Nanos start = std::max(host_free_, b.s2_end_ns);
      if (start >= until) break;
      const Nanos dur = b.costs.emb.dpu_to_cpu + b.costs.emb.cpu_aggregate;
      b.s3_start_ns = start;
      b.s3_end_ns = start + dur;
      host_free_ = b.s3_end_ns;
      host_busy_ += dur;
      ++next_s3_;
    }
  }

  std::uint32_t depth_;
  std::vector<ExecutedFlowBatch> batches_;
  std::size_t next_s3_ = 0;
  Nanos host_free_ = 0.0;
  Nanos dpu_free_ = 0.0;
  Nanos last_cut_ = 0.0;
  Nanos host_busy_ = 0.0;
  Nanos dpu_busy_ = 0.0;
};

// Zero-cost dense tasks are invisible to the embedding stages: under
// every backend mix and split, with random integer stage costs and cut
// gaps (integers force exact ties), the executor reproduces the
// two-resource schedule instant for instant — every cut, stage-1/2/3
// instant, admission instant, busy total and the makespan — and the
// embedding-only completion instant is the stage-3 end. (done_ns is
// not: a zero-cost top may queue behind a later batch's stage 3.)
TEST(ExecutorTest, ZeroCostDenseTasksMoveNoEmbeddingInstant) {
  std::vector<DataFlowPlan> plans;
  for (const Backend bottom : {Backend::kCpu, Backend::kGpu}) {
    for (const Backend top : {Backend::kCpu, Backend::kGpu}) {
      for (const std::uint32_t split : {0u, 1u}) {
        if (bottom == Backend::kGpu && split != 0) continue;
        DataFlowPlan plan;
        plan.bottom_split = split;
        plan.bottom = bottom;
        plan.top = top;
        plans.push_back(plan);
      }
    }
  }
  Rng rng(20240611);
  auto cost = [&rng](std::uint64_t max) {
    return static_cast<Nanos>(rng.NextBounded(max + 1));
  };
  for (int schedule = 0; schedule < 2000; ++schedule) {
    const auto depth = static_cast<std::uint32_t>(1 + schedule % 4);
    std::vector<core::StageBreakdown> stages;
    std::vector<Nanos> gaps;
    for (int b = 0; b < 24; ++b) {
      stages.push_back(Batch(cost(6), cost(12), cost(6), cost(3)));
      gaps.push_back(rng.NextBounded(2) == 0 ? 0.0 : cost(20));
    }
    for (DataFlowPlan plan : plans) {
      plan.depth = depth;
      TwoResourceSchedule ref(depth);
      DataFlowExecutor flow(plan);
      Nanos cut = 0.0;
      for (std::size_t b = 0; b < stages.size(); ++b) {
        ASSERT_EQ(flow.NextAdmitTime(), ref.NextAdmitTime())
            << "schedule " << schedule << " batch " << b;
        cut = std::max(cut + gaps[b], ref.NextAdmitTime());
        ref.Submit(stages[b], cut);
        flow.Submit(EmbeddingOnly(stages[b]), cut);
      }
      ASSERT_EQ(flow.NextAdmitTime(), ref.NextAdmitTime());
      ref.Drain();
      flow.Drain();
      for (std::size_t b = 0; b < stages.size(); ++b) {
        const ExecutedFlowBatch& want = ref.batches()[b];
        const ExecutedFlowBatch& got = flow.batches()[b];
        const auto where = ::testing::Message()
                           << "schedule " << schedule << " depth " << depth
                           << " split " << plan.bottom_split << " batch "
                           << b;
        ASSERT_EQ(got.cut_ns, want.cut_ns) << where;
        ASSERT_EQ(got.s1_start_ns, want.s1_start_ns) << where;
        ASSERT_EQ(got.s1_end_ns, want.s1_end_ns) << where;
        ASSERT_EQ(got.s2_start_ns, want.s2_start_ns) << where;
        ASSERT_EQ(got.s2_end_ns, want.s2_end_ns) << where;
        ASSERT_EQ(got.s3_start_ns, want.s3_start_ns) << where;
        ASSERT_EQ(got.s3_end_ns, want.s3_end_ns) << where;
      }
      ASSERT_EQ(flow.host_busy_ns(), ref.host_busy_ns());
      ASSERT_EQ(flow.dpu_busy_ns(), ref.dpu_busy_ns());
      ASSERT_EQ(flow.host_mlp_busy_ns(), 0.0);
      ASSERT_EQ(flow.gpu_busy_ns(), 0.0);
      ASSERT_EQ(Makespan(flow), ref.batches().back().s3_end_ns);
    }
  }
}

}  // namespace
}  // namespace updlrm::serve
