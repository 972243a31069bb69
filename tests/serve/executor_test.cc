// Embedding-only execution on the data-flow executor (the plan with no
// dense stages), and the validation of the `EstimatePipelinedEmbedding`
// three-resource bound against the executed schedule (the bound used
// to be the only pipelining story; now it is checked against what the
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
                           Nanos agg = 0.0, Nanos ingress = 0.0) {
  core::StageBreakdown b;
  b.cpu_to_dpu = s1;
  b.dpu_lookup = s2;
  b.dpu_to_cpu = s3;
  b.cpu_aggregate = agg;
  b.ingress = ingress;
  return b;
}

// `b` with its cross-host hop folded back onto the transfer lane.
core::StageBreakdown Folded(core::StageBreakdown b) {
  b.ingress = 0.0;
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
  EXPECT_DOUBLE_EQ(b.pull_end_ns, 67.0);
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
// in — stage 2 dominates), the three-resource estimate is a true lower
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
  const auto estimate = core::EstimatePipelinedEmbedding(batches);
  // Any schedule is bounded below on each of the three resources:
  //   * transfer lane: every push and pull, then the last aggregation;
  //   * DPUs: the first push, every lookup, then the last pull and
  //     aggregation;
  //   * core lane: the first batch's push, lookup and pull, then every
  //     aggregation.
  const core::StageBreakdown& first = batches.front();
  const core::StageBreakdown& last = batches.back();
  const Nanos transfer_bound = estimate.host_work_ns + last.cpu_aggregate;
  const Nanos dpu_bound = first.cpu_to_dpu + estimate.dpu_work_ns +
                          last.dpu_to_cpu + last.cpu_aggregate;
  const Nanos core_bound = first.cpu_to_dpu + first.dpu_lookup +
                           first.dpu_to_cpu + estimate.core_work_ns;
  EXPECT_GE(Makespan(exec), transfer_bound);
  EXPECT_GE(Makespan(exec), dpu_bound);
  EXPECT_GE(Makespan(exec), core_bound);
  EXPECT_DOUBLE_EQ(estimate.pipelined_ns,
                   std::max({transfer_bound, dpu_bound, core_bound}));
  EXPECT_LE(Makespan(exec), Serial(batches));
  // Resource accounting adds up, with no dense time anywhere.
  EXPECT_DOUBLE_EQ(exec.host_busy_ns(), estimate.host_work_ns);
  EXPECT_DOUBLE_EQ(exec.host_core_busy_ns(), estimate.core_work_ns);
  EXPECT_DOUBLE_EQ(exec.dpu_busy_ns(), estimate.dpu_work_ns);
  EXPECT_DOUBLE_EQ(exec.host_mlp_busy_ns(), 0.0);
  EXPECT_DOUBLE_EQ(exec.gpu_busy_ns(), 0.0);
}

// The two-resource embedding schedule with no dense tasks at all,
// written out directly: the host runs stage 1 at the cut (winning
// ties) and stage 3 work-conserving in batch order, the DPUs run
// stage 2 FIFO once the batch's push and its output slot (batch
// k - depth's stage 3) are done, and `depth` buffer slots gate the
// cuts. This was the executor's schedule when one host resource ran
// every transfer and the aggregation; with no aggregation work the two
// host lanes must reproduce it exactly.
class TwoResourceSchedule {
 public:
  explicit TwoResourceSchedule(std::uint32_t depth) : depth_(depth) {}

  // Places stage 3s until batch n - depth's stage 2 is placed: its
  // output slot's stage 3 starts before any later cut.
  Nanos NextAdmitTime() {
    if (batches_.size() < depth_) return last_cut_;
    const std::size_t reuse = batches_.size() - depth_;
    while (next_s2_ <= reuse) RunStage3();
    return std::max(last_cut_, batches_[reuse].s2_end_ns);
  }

  void Submit(const core::StageBreakdown& stages, Nanos cut_ns) {
    AdvanceHost(cut_ns);
    ExecutedFlowBatch b;
    b.costs.emb = stages;
    b.cut_ns = cut_ns;
    b.fabric_start_ns = cut_ns;  // one host: no cross-host hop
    b.fabric_end_ns = cut_ns;
    b.s1_start_ns = std::max(cut_ns, host_free_);
    b.s1_end_ns = b.s1_start_ns + stages.cpu_to_dpu;
    host_free_ = b.s1_end_ns;
    host_busy_ += stages.cpu_to_dpu;
    last_cut_ = cut_ns;
    batches_.push_back(b);
    PlaceStage2();
  }

  void Drain() { AdvanceHost(std::numeric_limits<double>::infinity()); }

  const std::vector<ExecutedFlowBatch>& batches() const { return batches_; }
  Nanos host_busy_ns() const { return host_busy_; }
  Nanos dpu_busy_ns() const { return dpu_busy_; }

 private:
  // Stage 2 of every pushed batch whose output slot's stage 3 is
  // placed, in batch order.
  void PlaceStage2() {
    while (next_s2_ < batches_.size()) {
      Nanos slot = 0.0;
      if (next_s2_ >= depth_) {
        if (next_s2_ - depth_ >= next_s3_) return;
        slot = batches_[next_s2_ - depth_].s3_end_ns;
      }
      ExecutedFlowBatch& b = batches_[next_s2_];
      b.s2_start_ns = std::max({b.s1_end_ns, dpu_free_, slot});
      b.s2_end_ns = b.s2_start_ns + b.costs.emb.dpu_lookup;
      dpu_free_ = b.s2_end_ns;
      dpu_busy_ += b.costs.emb.dpu_lookup;
      ++next_s2_;
    }
  }

  void RunStage3() {
    ExecutedFlowBatch& b = batches_[next_s3_];
    const Nanos dur = b.costs.emb.dpu_to_cpu + b.costs.emb.cpu_aggregate;
    b.s3_start_ns = std::max(host_free_, b.s2_end_ns);
    b.s3_end_ns = b.s3_start_ns + dur;
    host_free_ = b.s3_end_ns;
    host_busy_ += dur;
    ++next_s3_;
    PlaceStage2();
  }

  void AdvanceHost(Nanos until) {
    while (next_s3_ < next_s2_ &&
           std::max(host_free_, batches_[next_s3_].s2_end_ns) < until) {
      RunStage3();
    }
  }

  std::uint32_t depth_;
  std::vector<ExecutedFlowBatch> batches_;
  std::size_t next_s2_ = 0;
  std::size_t next_s3_ = 0;
  Nanos host_free_ = 0.0;
  Nanos dpu_free_ = 0.0;
  Nanos last_cut_ = 0.0;
  Nanos host_busy_ = 0.0;
  Nanos dpu_busy_ = 0.0;
};

// The three-resource embedding schedule with no dense tasks, written
// out directly, plus the fabric lane (empty when no batch has a
// cross-host hop): the fabric runs each batch's hop FIFO from its cut,
// the transfer lane runs the bus push at the hop's end (winning ties)
// and the stage-3 pulls work-conserving in batch order, the DPUs run
// stage 2 FIFO once the batch's push and its output slot (batch
// k - depth's pull) are done, the core lane aggregates each batch FIFO
// once its pull is done, and `depth` buffer slots gate the cuts.
class ThreeResourceSchedule {
 public:
  explicit ThreeResourceSchedule(std::uint32_t depth) : depth_(depth) {}

  // Places pulls until batch n - depth's stage 2 is placed: its
  // output slot's pull starts before any later cut.
  Nanos NextAdmitTime() {
    if (batches_.size() < depth_) return last_cut_;
    const std::size_t reuse = batches_.size() - depth_;
    while (next_s2_ <= reuse) RunPull();
    return std::max(last_cut_, batches_[reuse].s2_end_ns);
  }

  void Submit(const core::StageBreakdown& stages, Nanos cut_ns) {
    ExecutedFlowBatch b;
    b.costs.emb = stages;
    b.cut_ns = cut_ns;
    b.fabric_start_ns = std::max(cut_ns, fabric_free_);
    b.fabric_end_ns = b.fabric_start_ns + stages.ingress;
    fabric_free_ = b.fabric_end_ns;
    AdvanceTransfer(b.fabric_end_ns);
    b.s1_start_ns = std::max(b.fabric_end_ns, transfer_free_);
    b.s1_end_ns = b.s1_start_ns + (stages.cpu_to_dpu - stages.ingress);
    transfer_free_ = b.s1_end_ns;
    transfer_busy_ += stages.cpu_to_dpu - stages.ingress;
    last_cut_ = cut_ns;
    batches_.push_back(b);
    PlaceStage2();
  }

  void Drain() { AdvanceTransfer(std::numeric_limits<double>::infinity()); }

  const std::vector<ExecutedFlowBatch>& batches() const { return batches_; }
  Nanos host_busy_ns() const { return transfer_busy_; }
  Nanos host_core_busy_ns() const { return core_busy_; }
  Nanos dpu_busy_ns() const { return dpu_busy_; }

 private:
  // Stage 2 of every pushed batch whose output slot's pull is placed,
  // in batch order.
  void PlaceStage2() {
    while (next_s2_ < batches_.size()) {
      Nanos slot = 0.0;
      if (next_s2_ >= depth_) {
        if (next_s2_ - depth_ >= next_pull_) return;
        slot = batches_[next_s2_ - depth_].pull_end_ns;
      }
      ExecutedFlowBatch& b = batches_[next_s2_];
      b.s2_start_ns = std::max({b.s1_end_ns, dpu_free_, slot});
      b.s2_end_ns = b.s2_start_ns + b.costs.emb.dpu_lookup;
      dpu_free_ = b.s2_end_ns;
      dpu_busy_ += b.costs.emb.dpu_lookup;
      ++next_s2_;
    }
  }

  void RunPull() {
    ExecutedFlowBatch& b = batches_[next_pull_];
    b.s3_start_ns = std::max(transfer_free_, b.s2_end_ns);
    b.pull_end_ns = b.s3_start_ns + b.costs.emb.dpu_to_cpu;
    transfer_free_ = b.pull_end_ns;
    transfer_busy_ += b.costs.emb.dpu_to_cpu;
    // Aggregations are the core lane's only work, in pull order.
    b.s3_end_ns = std::max(core_free_, b.pull_end_ns) +
                  b.costs.emb.cpu_aggregate;
    core_free_ = b.s3_end_ns;
    core_busy_ += b.costs.emb.cpu_aggregate;
    ++next_pull_;
    PlaceStage2();
  }

  void AdvanceTransfer(Nanos until) {
    while (next_pull_ < next_s2_ &&
           std::max(transfer_free_, batches_[next_pull_].s2_end_ns) <
               until) {
      RunPull();
    }
  }

  std::uint32_t depth_;
  std::vector<ExecutedFlowBatch> batches_;
  std::size_t next_s2_ = 0;
  std::size_t next_pull_ = 0;
  Nanos fabric_free_ = 0.0;
  Nanos transfer_free_ = 0.0;
  Nanos core_free_ = 0.0;
  Nanos dpu_free_ = 0.0;
  Nanos last_cut_ = 0.0;
  Nanos transfer_busy_ = 0.0;
  Nanos core_busy_ = 0.0;
  Nanos dpu_busy_ = 0.0;
};

// Runs 2,000 random schedules under every backend mix and split, with
// zero-cost dense tasks and random integer stage costs and cut gaps
// (integers force exact ties), through the executor and through the
// reference schedule `Reference`, and checks that they agree instant
// for instant: every cut, stage-1/2/3 instant, admission instant, busy
// total and the makespan, which the three-resource estimate bounds
// from below. `with_aggregate` draws aggregation costs; without it
// every batch's aggregation is zero. The random stream is the same
// either way, so both variants run the same schedules. `with_ingress`
// also draws each batch's cross-host hop, up to its whole stage 1.
template <typename Reference>
void ExpectZeroCostDenseMatches(bool with_aggregate,
                                bool with_ingress = false) {
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
      if (!with_aggregate) stages.back().cpu_aggregate = 0.0;
      if (with_ingress) {
        stages.back().ingress =
            std::min(cost(4), stages.back().cpu_to_dpu);
      }
      gaps.push_back(rng.NextBounded(2) == 0 ? 0.0 : cost(20));
    }
    for (DataFlowPlan plan : plans) {
      plan.depth = depth;
      Reference ref(depth);
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
      Nanos aggregate = 0.0;
      for (std::size_t b = 0; b < stages.size(); ++b) {
        const ExecutedFlowBatch& want = ref.batches()[b];
        const ExecutedFlowBatch& got = flow.batches()[b];
        const auto where = ::testing::Message()
                           << "schedule " << schedule << " depth " << depth
                           << " split " << plan.bottom_split << " batch "
                           << b;
        ASSERT_EQ(got.cut_ns, want.cut_ns) << where;
        ASSERT_EQ(got.fabric_start_ns, want.fabric_start_ns) << where;
        ASSERT_EQ(got.fabric_end_ns, want.fabric_end_ns) << where;
        ASSERT_EQ(got.s1_start_ns, want.s1_start_ns) << where;
        ASSERT_EQ(got.s1_end_ns, want.s1_end_ns) << where;
        ASSERT_EQ(got.s2_start_ns, want.s2_start_ns) << where;
        ASSERT_EQ(got.s2_end_ns, want.s2_end_ns) << where;
        ASSERT_EQ(got.s3_start_ns, want.s3_start_ns) << where;
        ASSERT_EQ(got.s3_end_ns, want.s3_end_ns) << where;
        aggregate += stages[b].cpu_aggregate;
      }
      ASSERT_EQ(flow.host_busy_ns(), ref.host_busy_ns());
      ASSERT_EQ(flow.host_core_busy_ns(), aggregate);
      ASSERT_EQ(flow.dpu_busy_ns(), ref.dpu_busy_ns());
      ASSERT_EQ(flow.host_mlp_busy_ns(), 0.0);
      ASSERT_EQ(flow.gpu_busy_ns(), 0.0);
      ASSERT_EQ(Makespan(flow), ref.batches().back().s3_end_ns);
      ASSERT_GE(Makespan(flow),
                core::EstimatePipelinedEmbedding(stages).pipelined_ns);
    }
  }
}

// Old == new: with no aggregation work, splitting the host into a
// transfer lane and a core lane moves no stage-1/2/3 instant of the
// one-host schedule. Zero-cost dense tasks are invisible to the
// embedding stages. (done_ns is not: a zero-cost top may queue behind
// a later batch's aggregation, so the embedding-only completion
// instant is the stage-3 end.)
TEST(ExecutorTest, ZeroCostDenseTasksMoveNoEmbeddingInstant) {
  ExpectZeroCostDenseMatches<TwoResourceSchedule>(/*with_aggregate=*/false);
}

// With aggregation work, the executor is the three-resource schedule:
// the core lane aggregates while the transfer lane already pushes and
// pulls later batches.
TEST(ExecutorTest, ZeroCostDenseTasksFollowThreeResourceSchedule) {
  ExpectZeroCostDenseMatches<ThreeResourceSchedule>(/*with_aggregate=*/true);
}

// The fabric lane: each batch's cross-host hop runs FIFO from its cut,
// so the next batch's hop overlaps this batch's bus push and pull, and
// only the bus part occupies the transfer lane. With no hop the
// executor is the three-resource schedule above, instant for instant.
TEST(ExecutorTest, ZeroCostDenseTasksFollowFabricLaneSchedule) {
  ExpectZeroCostDenseMatches<ThreeResourceSchedule>(/*with_aggregate=*/true,
                                                    /*with_ingress=*/true);
}

TEST(ExecutorTest, UnloadedBatchEndsStageOneAtCutPlusPush) {
  DataFlowExecutor exec(PlanOfDepth(2));
  exec.Submit(EmbeddingOnly(Batch(30, 50, 7, 3, 20)), 100.0);
  exec.Drain();
  const ExecutedFlowBatch& b = exec.batches()[0];
  EXPECT_DOUBLE_EQ(b.fabric_start_ns, 100.0);
  EXPECT_DOUBLE_EQ(b.fabric_end_ns, 120.0);
  EXPECT_DOUBLE_EQ(b.s1_start_ns, 120.0);
  EXPECT_EQ(b.s1_end_ns, 100.0 + 30.0);
  EXPECT_DOUBLE_EQ(b.s3_end_ns, 100.0 + 30.0 + 50.0 + 7.0 + 3.0);

  // To the bit, even where hop + bus rounds away from cpu_to_dpu.
  const Nanos cut = 47.6;
  const core::StageBreakdown odd = Batch(27.2, 1.0, 1.0, 0.0, 10.1);
  ASSERT_NE(cut + odd.ingress + (odd.cpu_to_dpu - odd.ingress),
            cut + odd.cpu_to_dpu);
  DataFlowExecutor rounding(PlanOfDepth(2));
  rounding.Submit(EmbeddingOnly(odd), cut);
  EXPECT_EQ(rounding.batches()[0].s1_end_ns, cut + odd.cpu_to_dpu);
}

TEST(ExecutorTest, NextFabricHopOverlapsThisBatchsPush) {
  // Stage 1 = 20 ns of fabric + 10 ns of bus; both batches cut at 0.
  const std::vector<core::StageBreakdown> batches(2,
                                                  Batch(30, 5, 10, 0, 20));
  const auto exec = Execute(batches);
  const ExecutedFlowBatch& b0 = exec.batches()[0];
  const ExecutedFlowBatch& b1 = exec.batches()[1];
  // Fabric [0,20) and [20,40); batch 0's bus push [20,30).
  EXPECT_DOUBLE_EQ(b0.s1_start_ns, 20.0);
  EXPECT_DOUBLE_EQ(b1.fabric_start_ns, 20.0);
  EXPECT_LT(b1.fabric_start_ns, b0.s1_end_ns);
  EXPECT_GT(b1.fabric_end_ns, b0.s1_start_ns);
  // Batch 0's pull [35,45) starts while batch 1's hop still owns the
  // fabric, and batch 1's push waits for the lane [45,55).
  EXPECT_DOUBLE_EQ(b0.s3_start_ns, 35.0);
  EXPECT_DOUBLE_EQ(b1.s1_start_ns, 45.0);
  EXPECT_DOUBLE_EQ(Makespan(exec), 70.0);

  // The same costs with the hop folded onto the transfer lane run the
  // two stage-1s back to back, 30 ns each, and finish at 80.
  std::vector<core::StageBreakdown> folded;
  for (const auto& b : batches) folded.push_back(Folded(b));
  const auto serial_lane = Execute(folded);
  EXPECT_DOUBLE_EQ(serial_lane.batches()[1].s1_end_ns, 60.0);
  EXPECT_DOUBLE_EQ(Makespan(serial_lane), 80.0);
  EXPECT_GE(Makespan(exec),
            core::EstimatePipelinedEmbedding(batches).pipelined_ns);
}

TEST(ExecutorTest, TransferLaneBusyExcludesIngress) {
  const std::vector<core::StageBreakdown> batches = {
      Batch(30, 40, 10, 5, 20), Batch(25, 30, 8, 2, 5),
      Batch(12, 50, 6, 1, 0), Batch(40, 20, 9, 3, 40)};
  const auto exec = Execute(batches);
  const auto estimate = core::EstimatePipelinedEmbedding(batches);
  Nanos bus = 0.0;
  Nanos ingress = 0.0;
  for (const auto& b : batches) {
    bus += (b.cpu_to_dpu - b.ingress) + b.dpu_to_cpu;
    ingress += b.ingress;
  }
  EXPECT_DOUBLE_EQ(exec.host_busy_ns(), bus);
  EXPECT_DOUBLE_EQ(exec.fabric_busy_ns(), ingress);
  EXPECT_DOUBLE_EQ(estimate.host_work_ns, bus);
  EXPECT_DOUBLE_EQ(estimate.fabric_work_ns, ingress);
  EXPECT_GE(Makespan(exec), estimate.pipelined_ns);
  for (const ExecutedFlowBatch& b : exec.batches()) {
    EXPECT_DOUBLE_EQ(b.fabric_end_ns - b.fabric_start_ns,
                     b.costs.emb.ingress);
    EXPECT_LE(b.fabric_end_ns, b.s1_start_ns);
  }
}

TEST(ExecutorTest, AggregationOverlapsLaterTransfers) {
  // Core-heavy batches: the pull of batch k+1 runs while batch k
  // aggregates, so the makespan is the core chain, not the one-host
  // sum of transfers and aggregation.
  const std::vector<core::StageBreakdown> batches(4, Batch(10, 20, 10, 40));
  const auto exec = Execute(batches);
  // Batch 0: push [0,10), lookup [10,30), pull [40,50) (batch 2's
  // push takes the lane at its cut, t = 30), aggregate [50,90).
  // Batch 1's pull [60,70) runs while batch 0 aggregates, and each
  // later aggregation starts as the previous one ends.
  EXPECT_DOUBLE_EQ(exec.batches()[0].s3_start_ns, 40.0);
  EXPECT_DOUBLE_EQ(exec.batches()[0].pull_end_ns, 50.0);
  EXPECT_DOUBLE_EQ(exec.batches()[0].s3_end_ns, 90.0);
  EXPECT_DOUBLE_EQ(exec.batches()[1].s3_start_ns, 60.0);
  EXPECT_DOUBLE_EQ(exec.batches()[1].pull_end_ns, 70.0);
  EXPECT_DOUBLE_EQ(exec.batches()[1].s3_end_ns, 130.0);
  EXPECT_DOUBLE_EQ(Makespan(exec), 50.0 + 4 * 40.0);
  EXPECT_DOUBLE_EQ(exec.host_busy_ns(), 4 * 20.0);
  EXPECT_DOUBLE_EQ(exec.host_core_busy_ns(), 4 * 40.0);
}

// Under a standing backlog with fixed shares, launches and pulls
// coalesce; the bound at the same depth still holds from below, and
// depth 1 never coalesces.
TEST(ExecutorTest, BoundHoldsWhenLaunchesAndPullsCoalesce) {
  Rng rng(77);
  for (int run = 0; run < 200; ++run) {
    const auto depth = static_cast<std::uint32_t>(1 + run % 4);
    std::vector<core::StageBreakdown> batches;
    for (int b = 0; b < 20; ++b) {
      core::StageBreakdown s =
          Batch(10.0 + 40.0 * rng.NextDouble(), 0.0, 0.0,
                20.0 * rng.NextDouble(), 0.0);
      s.lookup_fixed = 30.0;
      s.dpu_lookup = s.lookup_fixed + 150.0 * rng.NextDouble();
      s.pull_fixed = 25.0;
      s.dpu_to_cpu = s.pull_fixed + 40.0 * rng.NextDouble();
      if (run % 2 == 1) s.ingress = s.cpu_to_dpu * rng.NextDouble();
      batches.push_back(s);
    }
    const auto exec = Execute(batches, depth);
    EXPECT_GE(Makespan(exec) * (1.0 + 1e-12),
              core::EstimatePipelinedEmbedding(batches, depth).pipelined_ns)
        << "run " << run << " depth " << depth;
    if (depth == 1) {
      EXPECT_EQ(exec.kernel_launches(), batches.size());
      EXPECT_EQ(exec.pull_calls(), batches.size());
    }
  }
}

}  // namespace
}  // namespace updlrm::serve
