// Per-tasklet timeline capture in kernel_sim: recording is pure
// observation (same makespan with or without a timeline), and the
// periodic engine's recorded retirement cycles match the exact-cycle
// reference bit for bit — finishes happen only at the two death
// transitions, which period jumps never replay.
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pim/dpu_config.h"
#include "pim/kernel_sim.h"
#include "pim/mram_timing.h"

namespace updlrm::pim {
namespace {

TEST(KernelSimTraceTest, PhaseFinishesMatchExactEngine) {
  Rng rng(0xfaceULL);
  for (int trial = 0; trial < 200; ++trial) {
    KernelPhase phase;
    phase.num_items = rng.NextBounded(600);
    phase.instr_per_item = 1 + rng.NextBounded(80);
    if (rng.NextBounded(4) != 0) {
      phase.dma_latency = rng.NextBounded(150);
      phase.dma_occupancy = rng.NextBounded(100);
    }
    const auto tasklets =
        static_cast<std::uint32_t>(1 + rng.NextBounded(24));
    const auto revolver =
        static_cast<std::uint32_t>(1 + rng.NextBounded(14));

    std::uint64_t instructions = 0;
    std::uint64_t dmas = 0;
    std::vector<Cycles> exact_finish;
    const Cycles exact =
        SimulatePhase(phase, tasklets, revolver, PhaseEngine::kExactCycle,
                      &instructions, &dmas, &exact_finish);
    std::vector<Cycles> fast_finish;
    const Cycles fast =
        SimulatePhase(phase, tasklets, revolver, PhaseEngine::kPeriodic,
                      &instructions, &dmas, &fast_finish);
    ASSERT_EQ(exact, fast);
    ASSERT_EQ(exact_finish.size(), tasklets);
    ASSERT_EQ(fast_finish, exact_finish)
        << "items=" << phase.num_items
        << " instr=" << phase.instr_per_item
        << " lat=" << phase.dma_latency
        << " occ=" << phase.dma_occupancy << " tasklets=" << tasklets
        << " revolver=" << revolver;
    // Every tasklet with work retires within the phase makespan.
    for (std::uint32_t t = 0; t < tasklets; ++t) {
      EXPECT_LE(exact_finish[t], exact) << "tasklet " << t;
    }
  }
}

TEST(KernelSimTraceTest, RecordingIsPureObservation) {
  std::uint64_t instructions = 0;
  std::uint64_t dmas = 0;
  const KernelPhase phase{500, 12, 48, 32};
  const Cycles bare = SimulatePhase(phase, 14, 11, PhaseEngine::kPeriodic,
                                    &instructions, &dmas);
  const std::uint64_t bare_instructions = instructions;
  instructions = 0;
  dmas = 0;
  std::vector<Cycles> finish;
  const Cycles traced = SimulatePhase(
      phase, 14, 11, PhaseEngine::kPeriodic, &instructions, &dmas, &finish);
  EXPECT_EQ(bare, traced);
  EXPECT_EQ(bare_instructions, instructions);
}

TEST(KernelSimTraceTest, FullKernelTimelineMatchesExactEngine) {
  const DpuConfig dpu;
  const MramTimingModel mram;
  EmbeddingKernelCostParams params;
  EmbeddingKernelWork work;
  work.num_lookups = 1200;
  work.num_cache_reads = 300;
  work.num_samples = 64;
  work.row_bytes = 128;
  work.num_wram_hits = 150;

  KernelTimeline fast_tl;
  const KernelSimResult fast = SimulateEmbeddingKernel(
      dpu, mram, params, work, PhaseEngine::kPeriodic, &fast_tl);
  KernelTimeline exact_tl;
  const KernelSimResult exact = SimulateEmbeddingKernel(
      dpu, mram, params, work, PhaseEngine::kExactCycle, &exact_tl);

  EXPECT_EQ(fast.makespan, exact.makespan);
  EXPECT_EQ(fast_tl.boot_cycles, exact_tl.boot_cycles);
  EXPECT_EQ(fast_tl.tasklets, exact_tl.tasklets);
  ASSERT_EQ(fast_tl.phases.size(), exact_tl.phases.size());
  ASSERT_EQ(fast_tl.phases.size(), kEmbeddingKernelNumPhases);
  for (std::size_t p = 0; p < fast_tl.phases.size(); ++p) {
    const PhaseTrace& f = fast_tl.phases[p];
    const PhaseTrace& e = exact_tl.phases[p];
    EXPECT_EQ(f.start, e.start) << kEmbeddingKernelPhaseNames[p];
    EXPECT_EQ(f.makespan, e.makespan) << kEmbeddingKernelPhaseNames[p];
    EXPECT_EQ(f.num_items, e.num_items) << kEmbeddingKernelPhaseNames[p];
    EXPECT_EQ(f.dma_busy, e.dma_busy) << kEmbeddingKernelPhaseNames[p];
    EXPECT_EQ(f.tasklet_finish, e.tasklet_finish)
        << kEmbeddingKernelPhaseNames[p];
    EXPECT_EQ(f.tasklet_items, e.tasklet_items)
        << kEmbeddingKernelPhaseNames[p];
  }
}

TEST(KernelSimTraceTest, TimelineInvariantsHold) {
  const DpuConfig dpu;
  const MramTimingModel mram;
  EmbeddingKernelCostParams params;
  EmbeddingKernelWork work;
  work.num_lookups = 777;
  work.num_cache_reads = 111;
  work.num_samples = 32;
  work.row_bytes = 64;

  KernelTimeline tl;
  const KernelSimResult result = SimulateEmbeddingKernel(
      dpu, mram, params, work, PhaseEngine::kPeriodic, &tl);
  ASSERT_EQ(tl.phases.size(), kEmbeddingKernelNumPhases);
  EXPECT_EQ(tl.boot_cycles, params.boot_cycles);

  // Phases tile [boot, makespan): each starts where the previous
  // ended, and the last one ends at the kernel makespan.
  Cycles cursor = tl.boot_cycles;
  std::uint64_t items = 0;
  for (std::size_t p = 0; p < tl.phases.size(); ++p) {
    const PhaseTrace& phase = tl.phases[p];
    EXPECT_EQ(phase.start, cursor) << kEmbeddingKernelPhaseNames[p];
    cursor += phase.makespan;
    items += phase.num_items;
    EXPECT_LE(phase.dma_busy, phase.makespan)
        << kEmbeddingKernelPhaseNames[p];
    // Round-robin item distribution sums back to the phase total.
    EXPECT_EQ(std::accumulate(phase.tasklet_items.begin(),
                              phase.tasklet_items.end(), std::uint64_t{0}),
              phase.num_items)
        << kEmbeddingKernelPhaseNames[p];
    for (std::uint32_t t = 0; t < tl.tasklets; ++t) {
      EXPECT_LE(phase.tasklet_finish[t], phase.makespan)
          << kEmbeddingKernelPhaseNames[p] << " tasklet " << t;
      if (phase.tasklet_items[t] == 0) {
        EXPECT_EQ(phase.tasklet_finish[t], 0u)
            << kEmbeddingKernelPhaseNames[p] << " tasklet " << t;
      }
    }
  }
  EXPECT_EQ(cursor, result.makespan);
  EXPECT_GT(items, 0u);

  // A null timeline produces the same simulated result.
  const KernelSimResult bare =
      SimulateEmbeddingKernel(dpu, mram, params, work);
  EXPECT_EQ(bare.makespan, result.makespan);
  EXPECT_EQ(bare.instructions_issued, result.instructions_issued);
  EXPECT_EQ(bare.dma_transfers, result.dma_transfers);
}

}  // namespace
}  // namespace updlrm::pim
