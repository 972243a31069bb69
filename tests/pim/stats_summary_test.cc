#include "pim/stats_summary.h"

#include <gtest/gtest.h>

namespace updlrm::pim {
namespace {

std::unique_ptr<DpuSystem> SmallSystem() {
  DpuSystemConfig config;
  config.num_dpus = 4;
  config.dpus_per_rank = 4;
  config.dpu.mram_bytes = 1 * kMiB;
  auto system = DpuSystem::Create(config);
  UPDLRM_CHECK(system.ok());
  return std::move(system).value();
}

TEST(StatsSummaryTest, EmptySystemIsZero) {
  auto system = SmallSystem();
  const DpuStatsSummary s = SummarizeStats(*system);
  EXPECT_EQ(s.total_lookups, 0u);
  EXPECT_EQ(s.max_kernel_cycles, 0u);
  EXPECT_DOUBLE_EQ(s.cycle_imbalance, 0.0);
  EXPECT_DOUBLE_EQ(s.cache_read_share, 0.0);
}

TEST(StatsSummaryTest, AggregatesCounters) {
  auto system = SmallSystem();
  for (std::uint32_t d = 0; d < 4; ++d) {
    system->dpu(d).stats().lookups = 10 * (d + 1);
    system->dpu(d).stats().cache_reads = 5;
    system->dpu(d).stats().kernel_cycles = 100 * (d + 1);
    system->dpu(d).stats().mram_bytes_read = 1000;
  }
  const DpuStatsSummary s = SummarizeStats(*system);
  EXPECT_EQ(s.total_lookups, 100u);
  EXPECT_EQ(s.total_cache_reads, 20u);
  EXPECT_EQ(s.total_mram_bytes_read, 4000u);
  EXPECT_EQ(s.max_kernel_cycles, 400u);
  EXPECT_EQ(s.mean_kernel_cycles, 250u);
  EXPECT_DOUBLE_EQ(s.cycle_imbalance, 400.0 / 250.0);
  EXPECT_DOUBLE_EQ(s.cache_read_share, 20.0 / 120.0);
}

TEST(StatsSummaryTest, EveryListedCounterIsAggregated) {
  // Walks UPDLRM_DPU_COUNTER_FIELDS itself: every counter in the list
  // gets a distinct per-DPU value and must show up summed in its
  // total_<name> field. A counter added to DpuStats but not to the list
  // trips the layout static_assert in stats_summary.cc; one added to
  // the list but mis-aggregated fails here.
  auto system = SmallSystem();
  std::uint64_t salt = 1;
#define UPDLRM_FILL_COUNTER(name)                        \
  for (std::uint32_t d = 0; d < 4; ++d) {                \
    system->dpu(d).stats().name = salt * 1000 + d;       \
  }                                                      \
  ++salt;
  UPDLRM_DPU_COUNTER_FIELDS(UPDLRM_FILL_COUNTER)
#undef UPDLRM_FILL_COUNTER

  const DpuStatsSummary s = SummarizeStats(*system);
  salt = 1;
#define UPDLRM_CHECK_TOTAL(name)                                   \
  EXPECT_EQ(s.total_##name, salt * 4000 + 0 + 1 + 2 + 3) << #name; \
  ++salt;
  UPDLRM_DPU_COUNTER_FIELDS(UPDLRM_CHECK_TOTAL)
#undef UPDLRM_CHECK_TOTAL
}

TEST(StatsSummaryTest, CheckViolationsDefaultZeroAndUntouched) {
  // SummarizeStats never writes check_violations: it is the engine's
  // field (filled from UpDlrmEngine::check_violations() by benches).
  auto system = SmallSystem();
  DpuStatsSummary s = SummarizeStats(*system);
  EXPECT_EQ(s.check_violations, 0u);
  s.check_violations = 7;
  s = SummarizeStats(*system);
  EXPECT_EQ(s.check_violations, 0u);
}

TEST(StatsSummaryTest, LeverSharesComputedFromCounters) {
  auto system = SmallSystem();
  system->dpu(0).stats().lookups = 60;
  system->dpu(0).stats().wram_hits = 40;
  const DpuStatsSummary s = SummarizeStats(*system);
  EXPECT_DOUBLE_EQ(s.wram_hit_share, 40.0 / 100.0);
}

TEST(StatsSummaryTest, BalancedWorkHasUnitImbalance) {
  auto system = SmallSystem();
  for (std::uint32_t d = 0; d < 4; ++d) {
    system->dpu(d).stats().kernel_cycles = 500;
  }
  const DpuStatsSummary s = SummarizeStats(*system);
  EXPECT_DOUBLE_EQ(s.cycle_imbalance, 1.0);
  EXPECT_DOUBLE_EQ(s.cycle_cv, 0.0);
}

}  // namespace
}  // namespace updlrm::pim
