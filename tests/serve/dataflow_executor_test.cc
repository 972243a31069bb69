// The full-path data-flow executor: deterministic transfer-lane and
// core-lane scheduling around the embedding stages, GPU offload FIFO,
// depth-bounded admission, coalesced launches and pull calls, and the
// stage-ordering and buffer-slot invariants under random load.
#include "serve/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/report.h"
#include "common/rng.h"
#include "pipeline/dataflow.h"
#include "serve/loop.h"

namespace updlrm::serve {
namespace {

BatchTaskCosts CpuCosts() {
  BatchTaskCosts c;
  c.emb.cpu_to_dpu = 100.0;
  c.emb.dpu_lookup = 200.0;
  c.emb.dpu_to_cpu = 50.0;
  c.emb.cpu_aggregate = 50.0;
  c.bottom_pre = 0.0;
  c.bottom_post = 300.0;
  c.interact = 40.0;
  c.top_mlp = 60.0;
  return c;
}

TEST(DataFlowExecutorTest, SingleBatchCpuFlowSchedulesInOrder) {
  DataFlowPlan plan;
  plan.depth = 1;
  DataFlowExecutor ex(plan);
  ex.Submit(CpuCosts(), 0.0);
  ex.Drain();
  const ExecutedFlowBatch& b = ex.batches().front();
  // Transfer lane: S1 [0,100], then the pull once S2 [100,300] ends
  // [300,350]. Core lane: the bottom stack starts at the cut [0,300]
  // (the push runs on the other lane), the aggregation waits for the
  // pull [350,400], and top closes the batch [400,500].
  EXPECT_DOUBLE_EQ(b.s1_start_ns, 0.0);
  EXPECT_DOUBLE_EQ(b.s1_end_ns, 100.0);
  EXPECT_DOUBLE_EQ(b.s2_start_ns, 100.0);
  EXPECT_DOUBLE_EQ(b.s2_end_ns, 300.0);
  EXPECT_DOUBLE_EQ(b.bpost_start_ns, 0.0);
  EXPECT_DOUBLE_EQ(b.bpost_end_ns, 300.0);
  EXPECT_DOUBLE_EQ(b.bottom_done_ns, 300.0);
  EXPECT_DOUBLE_EQ(b.s3_start_ns, 300.0);
  EXPECT_DOUBLE_EQ(b.pull_end_ns, 350.0);
  EXPECT_DOUBLE_EQ(b.s3_end_ns, 400.0);
  EXPECT_DOUBLE_EQ(b.top_start_ns, 400.0);
  EXPECT_DOUBLE_EQ(b.top_end_ns, 500.0);
  EXPECT_DOUBLE_EQ(b.done_ns, 500.0);
  EXPECT_DOUBLE_EQ(ex.host_busy_ns(), 100.0 + 50.0);
  EXPECT_DOUBLE_EQ(ex.host_core_busy_ns(), 300.0 + 50.0 + 100.0);
  EXPECT_DOUBLE_EQ(ex.host_mlp_busy_ns(), 300.0 + 100.0);
  EXPECT_DOUBLE_EQ(ex.dpu_busy_ns(), 200.0);
  EXPECT_DOUBLE_EQ(ex.gpu_busy_ns(), 0.0);
}

TEST(DataFlowExecutorTest, DepthBoundsAdmission) {
  DataFlowPlan d1;
  d1.depth = 1;
  DataFlowExecutor serial(d1);
  EXPECT_DOUBLE_EQ(serial.NextAdmitTime(), 0.0);
  serial.Submit(CpuCosts(), 0.0);
  // One buffer pair: the next cut waits for this batch's stage 2
  // (which asking for the admit instant resolves).
  const Nanos serial_admit = serial.NextAdmitTime();
  EXPECT_DOUBLE_EQ(serial_admit, serial.batches().front().s2_end_ns);

  DataFlowPlan d2;
  d2.depth = 2;
  DataFlowExecutor doubled(d2);
  doubled.Submit(CpuCosts(), 0.0);
  // Double buffering admits immediately after the previous cut.
  EXPECT_DOUBLE_EQ(doubled.NextAdmitTime(), 0.0);
  doubled.Submit(CpuCosts(), 10.0);
  const Nanos doubled_admit = doubled.NextAdmitTime();
  EXPECT_DOUBLE_EQ(doubled_admit,
                   std::max(10.0, doubled.batches()[0].s2_end_ns));
}

TEST(DataFlowExecutorTest, BottomOverlapsTheNextBatchWindow) {
  // Depth 2: batch 1's bottom stack should run while batch 0's lookup
  // still owns the DPUs — the asymmetric overlap the plans exist for.
  DataFlowPlan plan;
  plan.depth = 2;
  DataFlowExecutor ex(plan);
  BatchTaskCosts c = CpuCosts();
  c.bottom_post = 50.0;  // cheap enough to fit inside the DPU window
  ex.Submit(c, 0.0);
  ex.Submit(c, 100.0);
  ex.Drain();
  const auto& b0 = ex.batches()[0];
  const auto& b1 = ex.batches()[1];
  // Batch 1's S1 takes the transfer lane right at its cut, and its
  // bottom stack runs on the core lane inside batch 0's S2 window.
  EXPECT_DOUBLE_EQ(b1.s1_start_ns, 100.0);
  EXPECT_LT(b1.bpost_start_ns, b0.s2_end_ns);
  // Batch order is preserved on the DPU resource.
  EXPECT_GE(b1.s2_start_ns, b0.s2_end_ns);
  // Both batches complete, in order.
  EXPECT_GE(b1.done_ns, b0.done_ns);
}

TEST(DataFlowExecutorTest, StageThreePreemptsQueuedBottomWork) {
  // The aggregation outranks queued dense work at equal start instants
  // on the core lane, but never interrupts a running task; the pull
  // never waits for dense work at all.
  BatchTaskCosts c = CpuCosts();
  c.bottom_pre = 120.0;
  c.bottom_post = 180.0;
  DataFlowPlan plan;
  plan.depth = 2;
  plan.bottom_split = 1;
  DataFlowExecutor ex(plan);
  ex.Submit(c, 0.0);
  ex.Submit(c, 0.0);
  ex.Drain();
  const auto& b0 = ex.batches()[0];
  const auto& b1 = ex.batches()[1];
  // Transfer lane: S1 [0,100] and [100,200]; pulls [300,350] and
  // [500,550] as each S2 ([100,300], [300,500]) ends.
  EXPECT_DOUBLE_EQ(b0.s3_start_ns, 300.0);
  EXPECT_DOUBLE_EQ(b0.pull_end_ns, 350.0);
  EXPECT_DOUBLE_EQ(b1.s3_start_ns, 500.0);
  EXPECT_DOUBLE_EQ(b1.pull_end_ns, 550.0);
  // Core lane: BPRE0 [0,120], then BPOST0 beats BPRE1 on the tie at
  // 120 [120,300], then BPRE1 [300,420]. Batch 0's aggregation becomes
  // ready at 350 mid-BPRE1 and waits (non-preemptive); at 420 it beats
  // BPOST1 on the tie [420,470], and TOP0 beats BPOST1 on the next tie
  // at 470 [470,570]. Batch 1's aggregation (ready at 550) beats BPOST1
  // once more at 570 [570,620]; BPOST1 [620,800] and TOP1 [800,900]
  // close the run.
  EXPECT_DOUBLE_EQ(b0.bpre_start_ns, 0.0);
  EXPECT_DOUBLE_EQ(b0.bpre_end_ns, 120.0);
  EXPECT_DOUBLE_EQ(b0.bpost_start_ns, 120.0);
  EXPECT_DOUBLE_EQ(b0.bpost_end_ns, 300.0);
  EXPECT_DOUBLE_EQ(b1.bpre_start_ns, 300.0);
  EXPECT_DOUBLE_EQ(b1.bpre_end_ns, 420.0);
  EXPECT_DOUBLE_EQ(b0.s3_end_ns, 470.0);
  EXPECT_DOUBLE_EQ(b0.top_start_ns, 470.0);
  EXPECT_DOUBLE_EQ(b0.done_ns, 570.0);
  EXPECT_DOUBLE_EQ(b1.s3_end_ns, 620.0);
  EXPECT_DOUBLE_EQ(b1.bpost_start_ns, 620.0);
  EXPECT_DOUBLE_EQ(b1.bpost_end_ns, 800.0);
  EXPECT_DOUBLE_EQ(b1.top_start_ns, 800.0);
  EXPECT_DOUBLE_EQ(b1.done_ns, 900.0);
}

TEST(DataFlowExecutorTest, GpuBottomRunsOffHostAndInFifoOrder) {
  BatchTaskCosts c = CpuCosts();
  c.bottom_pre = 0.0;
  c.bottom_post = 0.0;
  c.bottom_gpu = 500.0;
  DataFlowPlan plan;
  plan.depth = 2;
  plan.bottom = Backend::kGpu;
  DataFlowExecutor ex(plan);
  ex.Submit(c, 0.0);
  ex.Submit(c, 100.0);
  ex.Drain();
  const auto& b0 = ex.batches()[0];
  const auto& b1 = ex.batches()[1];
  // The offload starts at each batch's cut, FIFO on the GPU.
  EXPECT_DOUBLE_EQ(b0.bpre_start_ns, 0.0);
  EXPECT_DOUBLE_EQ(b0.bottom_done_ns, 500.0);
  EXPECT_DOUBLE_EQ(b1.bpre_start_ns, 500.0);  // queued behind batch 0
  EXPECT_DOUBLE_EQ(b1.bottom_done_ns, 1000.0);
  EXPECT_DOUBLE_EQ(ex.gpu_busy_ns(), 1000.0);
  // The core lane never ran dense bottom work; its MLP time is the tops.
  EXPECT_DOUBLE_EQ(ex.host_mlp_busy_ns(),
                   2.0 * (c.interact + c.top_mlp));
  // Tops wait for the (slow) GPU bottom.
  EXPECT_GE(b0.top_start_ns, b0.bottom_done_ns);
  EXPECT_GE(b1.top_start_ns, b1.bottom_done_ns);
}

TEST(DataFlowExecutorTest, GpuTopWaitsForPullAndBottom) {
  BatchTaskCosts c = CpuCosts();
  c.top_gpu = 250.0;
  DataFlowPlan plan;
  plan.depth = 2;
  plan.top = Backend::kGpu;
  DataFlowExecutor ex(plan);
  ex.Submit(c, 0.0);
  ex.Submit(c, 100.0);
  ex.Drain();
  for (const auto& b : ex.batches()) {
    EXPECT_GE(b.top_start_ns, b.s3_end_ns);
    EXPECT_GE(b.top_start_ns, b.bottom_done_ns);
    EXPECT_DOUBLE_EQ(b.top_end_ns - b.top_start_ns, 250.0);
  }
  // FIFO on the GPU resource.
  EXPECT_GE(ex.batches()[1].top_start_ns, ex.batches()[0].top_end_ns);
  EXPECT_DOUBLE_EQ(ex.gpu_busy_ns(), 500.0);
}

TEST(DataFlowExecutorTest, FabricHopDelaysOnlyThePushOnTheFullPath) {
  // A remote engine's batch: 60 of its 100 ns of stage 1 cross the
  // fabric first. The bottom stack still starts at the cut on the core
  // lane; the bus push starts when the hop ends, and stage 1 still
  // ends at cut + cpu_to_dpu.
  BatchTaskCosts c = CpuCosts();
  c.emb.ingress = 60.0;
  DataFlowPlan plan;
  plan.depth = 1;
  DataFlowExecutor ex(plan);
  ex.Submit(c, 0.0);
  ex.Drain();
  const ExecutedFlowBatch& b = ex.batches().front();
  EXPECT_DOUBLE_EQ(b.fabric_start_ns, 0.0);
  EXPECT_DOUBLE_EQ(b.fabric_end_ns, 60.0);
  EXPECT_DOUBLE_EQ(b.s1_start_ns, 60.0);
  EXPECT_DOUBLE_EQ(b.s1_end_ns, 100.0);
  EXPECT_DOUBLE_EQ(b.bpost_start_ns, 0.0);
  EXPECT_DOUBLE_EQ(b.done_ns, 500.0);
  EXPECT_DOUBLE_EQ(ex.host_busy_ns(), 40.0 + 50.0);
  EXPECT_DOUBLE_EQ(ex.fabric_busy_ns(), 60.0);
}

// Randomized loads across every backend mix, with and without
// cross-host hops: the executed schedule must satisfy the
// stage-ordering audit and never double-book a resource. The two host
// lanes and the fabric are separate resources: tasks never overlap
// within a lane, but a transfer may overlap a core task or a hop.
TEST(DataFlowExecutorTest, RandomLoadsKeepOrderingAndResourceInvariants) {
  Rng rng(99);
  const Backend kinds[] = {Backend::kCpu, Backend::kGpu};
  for (const bool remote : {false, true}) {
    for (const Backend bottom : kinds) {
      for (const Backend top : kinds) {
        for (const std::uint32_t depth : {1u, 2u, 3u}) {
          DataFlowPlan plan;
          plan.depth = depth;
          plan.bottom_split = 1;
          plan.bottom = bottom;
          plan.top = top;
          DataFlowExecutor ex(plan);
          Nanos cut = 0.0;
          for (int b = 0; b < 40; ++b) {
            BatchTaskCosts c;
            c.emb.cpu_to_dpu = 10.0 + 90.0 * rng.NextDouble();
            c.emb.dpu_lookup = 50.0 + 300.0 * rng.NextDouble();
            c.emb.dpu_to_cpu = 5.0 + 50.0 * rng.NextDouble();
            c.emb.cpu_aggregate = 5.0 + 50.0 * rng.NextDouble();
            if (remote) c.emb.ingress = c.emb.cpu_to_dpu * rng.NextDouble();
            if (bottom == Backend::kCpu) {
              c.bottom_pre = 100.0 * rng.NextDouble();
              c.bottom_post = 100.0 * rng.NextDouble();
            } else {
              c.bottom_gpu = 50.0 + 200.0 * rng.NextDouble();
            }
            c.interact = 20.0 * rng.NextDouble();
            c.top_mlp = 50.0 * rng.NextDouble();
            if (top == Backend::kGpu) {
              c.top_gpu = 50.0 + 200.0 * rng.NextDouble();
            }
            cut = std::max(cut + 100.0 * rng.NextDouble(),
                           ex.NextAdmitTime());
            ex.Submit(c, cut);
          }
          ex.Drain();

          check::CheckReport report;
          std::vector<std::pair<Nanos, Nanos>> fabric, transfer, core, dpu,
              gpu;
          for (std::size_t i = 0; i < ex.batches().size(); ++i) {
            const ExecutedFlowBatch& b = ex.batches()[i];

            fabric.emplace_back(b.fabric_start_ns, b.fabric_end_ns);
            transfer.emplace_back(b.s1_start_ns, b.s1_end_ns);
            transfer.emplace_back(b.s3_start_ns, b.pull_end_ns);
            core.emplace_back(b.s3_end_ns - b.costs.emb.cpu_aggregate,
                              b.s3_end_ns);
            dpu.emplace_back(b.s2_start_ns, b.s2_end_ns);
            if (bottom == Backend::kCpu) {
              core.emplace_back(b.bpre_start_ns, b.bpre_end_ns);
              core.emplace_back(b.bpost_start_ns, b.bpost_end_ns);
            } else {
              gpu.emplace_back(b.bpre_start_ns, b.bpre_end_ns);
            }
            if (top == Backend::kCpu) {
              core.emplace_back(b.top_start_ns, b.top_end_ns);
            } else {
              gpu.emplace_back(b.top_start_ns, b.top_end_ns);
            }
          }
          AuditSchedule(ex.batches(), depth, &report);
          EXPECT_TRUE(report.clean())
              << pipeline::Name(plan) << ": " << report.ToString();
          for (auto* intervals : {&fabric, &transfer, &core, &dpu, &gpu}) {
            std::sort(intervals->begin(), intervals->end());
            for (std::size_t i = 1; i < intervals->size(); ++i) {
              EXPECT_LE((*intervals)[i - 1].second,
                        (*intervals)[i].first + 1e-6)
                  << pipeline::Name(plan) << ": resource double-booked";
            }
          }
        }
      }
    }
  }
}

// Runs `costs` through an executor under `plan`, cutting batch b at
// max(previous cut + gaps[b], NextAdmitTime()).
DataFlowExecutor RunCuts(const DataFlowPlan& plan,
                         const std::vector<BatchTaskCosts>& costs,
                         const std::vector<Nanos>& gaps) {
  DataFlowExecutor ex(plan);
  Nanos cut = 0.0;
  for (std::size_t b = 0; b < costs.size(); ++b) {
    cut = std::max(cut + gaps[b], ex.NextAdmitTime());
    ex.Submit(costs[b], cut);
  }
  ex.Drain();
  return ex;
}

// `c` with no fixed shares: nothing can join a launch or call.
BatchTaskCosts Uncoalesced(BatchTaskCosts c) {
  c.emb.lookup_fixed = 0.0;
  c.emb.pull_fixed = 0.0;
  return c;
}

void ExpectSameInstants(const ExecutedFlowBatch& got,
                        const ExecutedFlowBatch& want,
                        const ::testing::Message& where) {
  EXPECT_EQ(got.cut_ns, want.cut_ns) << where;
  EXPECT_EQ(got.fabric_start_ns, want.fabric_start_ns) << where;
  EXPECT_EQ(got.fabric_end_ns, want.fabric_end_ns) << where;
  EXPECT_EQ(got.s1_start_ns, want.s1_start_ns) << where;
  EXPECT_EQ(got.s1_end_ns, want.s1_end_ns) << where;
  EXPECT_EQ(got.s2_start_ns, want.s2_start_ns) << where;
  EXPECT_EQ(got.s2_end_ns, want.s2_end_ns) << where;
  EXPECT_EQ(got.s3_start_ns, want.s3_start_ns) << where;
  EXPECT_EQ(got.pull_end_ns, want.pull_end_ns) << where;
  EXPECT_EQ(got.s3_end_ns, want.s3_end_ns) << where;
  EXPECT_EQ(got.bpre_start_ns, want.bpre_start_ns) << where;
  EXPECT_EQ(got.bpost_end_ns, want.bpost_end_ns) << where;
  EXPECT_EQ(got.top_start_ns, want.top_start_ns) << where;
  EXPECT_EQ(got.done_ns, want.done_ns) << where;
}

// Coalescing under backlog, over random stage costs (each launch and
// pull carrying a fixed share), random cut sequences (half the cuts
// back to back), every backend mix and depths 1-4:
//   * the cross-batch slot edges hold (index slot: s1 after batch
//     k-depth's stage 2; output slot: s2 after batch k-depth's pull);
//   * no launch or call serves more than `depth` batches, a launch
//     takes consecutive batches and runs for its first batch's stage 2
//     plus each joiner's stage 2 less its fixed share (a call likewise
//     for the pull), and a call never wraps the output-slot ring;
//   * launches and calls never overlap on their resource;
//   * a schedule in which nothing joined equals the uncoalesced one
//     (the same costs with no fixed shares), instant for instant.
TEST(DataFlowExecutorTest, CoalescingKeepsSlotEdgesAndDepthBound) {
  Rng rng(31);
  const Backend kinds[] = {Backend::kCpu, Backend::kGpu};
  std::size_t coalesced_runs = 0;
  std::size_t uncoalesced_runs = 0;
  for (int run = 0; run < 400; ++run) {
    DataFlowPlan plan;
    plan.depth = 1 + static_cast<std::uint32_t>(run % 4);
    plan.bottom_split = 1;
    plan.bottom = kinds[rng.NextBounded(2)];
    plan.top = kinds[rng.NextBounded(2)];
    const bool remote = rng.NextBounded(2) == 0;
    // A quarter of the runs space their cuts out: no backlog at all.
    const bool spaced = run % 8 < 2;
    std::vector<BatchTaskCosts> costs;
    std::vector<Nanos> gaps;
    for (int b = 0; b < 32; ++b) {
      BatchTaskCosts c;
      c.emb.cpu_to_dpu = 10.0 + 60.0 * rng.NextDouble();
      c.emb.lookup_fixed = 40.0;
      c.emb.dpu_lookup = c.emb.lookup_fixed + 200.0 * rng.NextDouble();
      c.emb.pull_fixed = 30.0;
      c.emb.dpu_to_cpu = c.emb.pull_fixed + 60.0 * rng.NextDouble();
      c.emb.cpu_aggregate = 5.0 + 30.0 * rng.NextDouble();
      if (remote) c.emb.ingress = c.emb.cpu_to_dpu * rng.NextDouble();
      if (plan.bottom == Backend::kCpu) {
        c.bottom_pre = 40.0 * rng.NextDouble();
        c.bottom_post = 40.0 * rng.NextDouble();
      } else {
        c.bottom_gpu = 20.0 + 80.0 * rng.NextDouble();
      }
      c.interact = 10.0 * rng.NextDouble();
      c.top_mlp = 30.0 * rng.NextDouble();
      if (plan.top == Backend::kGpu) c.top_gpu = 20.0 + 80.0 * rng.NextDouble();
      costs.push_back(c);
      gaps.push_back(spaced ? 10'000.0
                            : (rng.NextBounded(2) == 0
                                   ? 0.0
                                   : 300.0 * rng.NextDouble()));
    }
    const DataFlowExecutor ex = RunCuts(plan, costs, gaps);
    const std::vector<ExecutedFlowBatch>& got = ex.batches();
    const auto where = ::testing::Message()
                       << "run " << run << " " << pipeline::Name(plan);

    check::CheckReport report;
    AuditSchedule(got, plan.depth, &report);
    EXPECT_TRUE(report.clean()) << where << ": " << report.ToString();

    std::size_t launches = 0;
    std::size_t calls = 0;
    std::vector<std::pair<Nanos, Nanos>> dpu, transfer;
    for (std::size_t b = 0; b < got.size(); ++b) {
      transfer.emplace_back(got[b].s1_start_ns, got[b].s1_end_ns);
      if (got[b].kernel_batches > 0) {
        const std::size_t n = got[b].kernel_batches;
        ++launches;
        ASSERT_LE(n, plan.depth) << where;
        ASSERT_LE(b + n, got.size()) << where;
        Nanos dur = costs[b].emb.dpu_lookup;
        for (std::size_t k = b + 1; k < b + n; ++k) {
          EXPECT_EQ(got[k].kernel_batches, 0u) << where;
          EXPECT_EQ(got[k].s2_start_ns, got[b].s2_start_ns) << where;
          EXPECT_EQ(got[k].s2_end_ns, got[b].s2_end_ns) << where;
          dur += costs[k].emb.dpu_lookup - costs[k].emb.lookup_fixed;
        }
        EXPECT_EQ(got[b].s2_end_ns, got[b].s2_start_ns + dur) << where;
        dpu.emplace_back(got[b].s2_start_ns, got[b].s2_end_ns);
      }
      if (got[b].pull_batches > 0) {
        const std::size_t n = got[b].pull_batches;
        ++calls;
        ASSERT_LE(n, plan.depth) << where;
        EXPECT_LE(b % plan.depth + n, plan.depth) << where << ": wraps";
        Nanos dur = costs[b].emb.dpu_to_cpu;
        for (std::size_t k = b + 1; k < b + n; ++k) {
          EXPECT_EQ(got[k].pull_batches, 0u) << where;
          EXPECT_EQ(got[k].s3_start_ns, got[b].s3_start_ns) << where;
          EXPECT_EQ(got[k].pull_end_ns, got[b].pull_end_ns) << where;
          dur += costs[k].emb.dpu_to_cpu - costs[k].emb.pull_fixed;
        }
        EXPECT_EQ(got[b].pull_end_ns, got[b].s3_start_ns + dur) << where;
        transfer.emplace_back(got[b].s3_start_ns, got[b].pull_end_ns);
      }
    }
    EXPECT_EQ(launches, ex.kernel_launches()) << where;
    EXPECT_EQ(calls, ex.pull_calls()) << where;
    for (auto* intervals : {&dpu, &transfer}) {
      std::sort(intervals->begin(), intervals->end());
      for (std::size_t i = 1; i < intervals->size(); ++i) {
        EXPECT_LE((*intervals)[i - 1].second, (*intervals)[i].first + 1e-6)
            << where << ": resource double-booked";
      }
    }

    if (spaced) {
      EXPECT_EQ(launches, got.size()) << where << ": spaced cuts coalesced";
      EXPECT_EQ(calls, got.size()) << where << ": spaced cuts coalesced";
    }
    if (launches == got.size() && calls == got.size()) {
      ++uncoalesced_runs;
      std::vector<BatchTaskCosts> plain;
      for (const BatchTaskCosts& c : costs) plain.push_back(Uncoalesced(c));
      const DataFlowExecutor reference = RunCuts(plan, plain, gaps);
      for (std::size_t b = 0; b < got.size(); ++b) {
        ExpectSameInstants(got[b], reference.batches()[b],
                           ::testing::Message(where) << " batch " << b);
      }
      EXPECT_EQ(ex.dpu_busy_ns(), reference.dpu_busy_ns()) << where;
      EXPECT_EQ(ex.host_busy_ns(), reference.host_busy_ns()) << where;
    } else {
      ++coalesced_runs;
      EXPECT_GT(plan.depth, 1u) << where << ": depth 1 coalesced";
    }
  }
  // Both regimes were exercised.
  EXPECT_GT(coalesced_runs, 50u);
  EXPECT_GT(uncoalesced_runs, 100u);
}

// Two batches cut together behind a long first kernel share the
// second launch; their pulls share one call.
TEST(DataFlowExecutorTest, BacklogSharesOneLaunchAndOneCall) {
  DataFlowPlan plan;
  plan.depth = 4;
  BatchTaskCosts c;
  c.emb.cpu_to_dpu = 10.0;
  c.emb.dpu_lookup = 100.0;
  c.emb.lookup_fixed = 60.0;
  c.emb.dpu_to_cpu = 50.0;
  c.emb.pull_fixed = 40.0;
  DataFlowExecutor ex(plan);
  for (int b = 0; b < 3; ++b) ex.Submit(c, 0.0);
  ex.Drain();
  const auto& bs = ex.batches();
  // Pushes [0,10) [10,20) [20,30); batch 0's kernel [10,110). At 110
  // batches 1 and 2 are pushed: one launch, 100 + (100 - 60) long.
  EXPECT_EQ(bs[0].kernel_batches, 1u);
  EXPECT_EQ(bs[1].kernel_batches, 2u);
  EXPECT_EQ(bs[2].kernel_batches, 0u);
  EXPECT_DOUBLE_EQ(bs[1].s2_start_ns, 110.0);
  EXPECT_DOUBLE_EQ(bs[2].s2_end_ns, 250.0);
  // Batch 0's pull [110,160) runs alone; batches 1 and 2 share one
  // call at 250, 50 + (50 - 40) long.
  EXPECT_EQ(bs[0].pull_batches, 1u);
  EXPECT_EQ(bs[1].pull_batches, 2u);
  EXPECT_DOUBLE_EQ(bs[2].s3_start_ns, 250.0);
  EXPECT_DOUBLE_EQ(bs[2].pull_end_ns, 310.0);
  EXPECT_EQ(ex.kernel_launches(), 2u);
  EXPECT_EQ(ex.pull_calls(), 2u);
  EXPECT_DOUBLE_EQ(ex.dpu_busy_ns(), 100.0 + 140.0);
  EXPECT_DOUBLE_EQ(ex.host_busy_ns(), 30.0 + 50.0 + 60.0);
}

// A kernel waits for its output slot: at depth 1 batch 1's kernel may
// not start before batch 0's pull has ended, even though its push
// (which wins the transfer lane) ended first.
TEST(DataFlowExecutorTest, KernelWaitsForItsOutputSlot) {
  DataFlowPlan plan;
  plan.depth = 1;
  BatchTaskCosts c;
  c.emb.cpu_to_dpu = 10.0;
  c.emb.dpu_lookup = 100.0;
  c.emb.dpu_to_cpu = 50.0;
  DataFlowExecutor ex(plan);
  ex.Submit(c, 0.0);
  const Nanos admit = ex.NextAdmitTime();
  EXPECT_DOUBLE_EQ(admit, 110.0);
  ex.Submit(c, admit);
  ex.Drain();
  const auto& bs = ex.batches();
  // Batch 1's push [110,120) wins the tie against batch 0's pull,
  // which runs [120,170); batch 1's kernel then starts at 170.
  EXPECT_DOUBLE_EQ(bs[1].s1_start_ns, 110.0);
  EXPECT_DOUBLE_EQ(bs[0].s3_start_ns, 120.0);
  EXPECT_DOUBLE_EQ(bs[0].pull_end_ns, 170.0);
  EXPECT_DOUBLE_EQ(bs[1].s2_start_ns, 170.0);
}

}  // namespace
}  // namespace updlrm::serve
