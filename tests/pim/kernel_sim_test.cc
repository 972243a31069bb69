#include "pim/kernel_sim.h"

#include <gtest/gtest.h>

#include <tuple>

namespace updlrm::pim {
namespace {

DpuConfig ConfigWithTasklets(std::uint32_t t) {
  DpuConfig config;
  config.num_tasklets = t;
  return config;
}

EmbeddingKernelWork Work(std::uint64_t lookups, std::uint32_t row_bytes,
                         std::uint64_t samples = 64) {
  return EmbeddingKernelWork{.num_lookups = lookups,
                             .num_cache_reads = 0,
                             .num_samples = samples,
                             .row_bytes = row_bytes};
}

TEST(KernelSimTest, EmptyWorkIsFree) {
  const auto result = SimulateEmbeddingKernel(
      ConfigWithTasklets(14), MramTimingModel{},
      EmbeddingKernelCostParams{}, EmbeddingKernelWork{});
  EXPECT_EQ(result.makespan, 0u);
  EXPECT_EQ(result.instructions_issued, 0u);
}

TEST(KernelSimTest, CountsInstructionsAndDmas) {
  const EmbeddingKernelCostParams params;
  const auto work = Work(100, 32, 16);
  const auto result = SimulateEmbeddingKernel(
      ConfigWithTasklets(14), MramTimingModel{}, params, work);
  // Phase 1: ceil(100/64)=2 chunks x 16 instr; phase 2: 100 x
  // (56 + 2*8); phase 3: 16 x 32.
  EXPECT_EQ(result.instructions_issued, 2u * 16 + 100u * 72 + 16u * 32);
  EXPECT_EQ(result.dma_transfers, 2u + 100u + 16u);
  EXPECT_GT(result.makespan, params.boot_cycles);
}

TEST(KernelSimTest, FourteenTaskletsNearFullUtilization) {
  // §4.4's masking claim, checked by execution: with 14 tasklets and an
  // instruction-heavy kernel, the pipeline issues nearly every cycle.
  const auto result = SimulateEmbeddingKernel(
      ConfigWithTasklets(14), MramTimingModel{},
      EmbeddingKernelCostParams{}, Work(2000, 32));
  // Exclude the boot cycles from the utilization estimate.
  const double busy =
      static_cast<double>(result.instructions_issued) /
      static_cast<double>(result.makespan -
                          EmbeddingKernelCostParams{}.boot_cycles);
  EXPECT_GT(busy, 0.85);
}

TEST(KernelSimTest, SingleTaskletBoundByRevolver) {
  const auto result = SimulateEmbeddingKernel(
      ConfigWithTasklets(1), MramTimingModel{},
      EmbeddingKernelCostParams{}, Work(200, 8, 8));
  // One tasklet can issue at most once per revolver_depth (11) cycles.
  EXPECT_LT(result.issue_utilization, 1.0 / 10.0);
}

class SimVsAnalytic
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> {};

TEST_P(SimVsAnalytic, AnalyticModelIsATightLowerBound) {
  const auto [tasklets, row_bytes, lookups] = GetParam();
  const DpuConfig dpu = ConfigWithTasklets(tasklets);
  const MramTimingModel mram;
  const EmbeddingKernelCostParams params;
  const EmbeddingKernelCostModel analytic(params, dpu, mram);
  // Word indices and packed 3-byte ones (decoded in WRAM).
  for (const std::uint32_t index_bytes : {4U, 3U}) {
    auto work = Work(lookups, row_bytes);
    work.index_bytes = index_bytes;
    const Cycles predicted = analytic.KernelCycles(work);
    const auto sim = SimulateEmbeddingKernel(dpu, mram, params, work);

    // The analytic makespan is a max of lower bounds, so execution can
    // only be slower — but it should not be much slower (tail effects,
    // imperfect overlap at phase boundaries).
    EXPECT_GE(static_cast<double>(sim.makespan),
              0.98 * static_cast<double>(predicted))
        << "index_bytes " << index_bytes;
    EXPECT_LE(static_cast<double>(sim.makespan),
              1.45 * static_cast<double>(predicted))
        << "index_bytes " << index_bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SimVsAnalytic,
    ::testing::Values(
        std::make_tuple(14u, 8u, 1600ull),    // Fig. 11's 8 B regime
        std::make_tuple(14u, 32u, 1000ull),   // the Nc <= 8 sweet spot
        std::make_tuple(14u, 128u, 400ull),   // wide reads
        std::make_tuple(11u, 32u, 1000ull),   // exactly revolver depth
        std::make_tuple(4u, 32u, 500ull),     // under-subscribed
        std::make_tuple(1u, 8u, 200ull),      // serial execution
        std::make_tuple(24u, 64u, 800ull)),   // hardware max tasklets
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_b" +
             std::to_string(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param));
    });

TEST(KernelSimTest, MoreTaskletsNeverSlower) {
  const MramTimingModel mram;
  const EmbeddingKernelCostParams params;
  const auto work = Work(800, 32);
  Cycles prev = ~0ULL;
  for (std::uint32_t t : {1u, 2u, 4u, 8u, 11u, 14u, 24u}) {
    const auto sim =
        SimulateEmbeddingKernel(ConfigWithTasklets(t), mram, params, work);
    EXPECT_LE(sim.makespan, prev + prev / 50) << t << " tasklets";
    prev = sim.makespan;
  }
}

}  // namespace
}  // namespace updlrm::pim
