#include "pim/system.h"

#include <gtest/gtest.h>

#include <vector>

namespace updlrm::pim {
namespace {

DpuSystemConfig SmallConfig() {
  DpuSystemConfig config;
  config.num_dpus = 16;
  config.dpus_per_rank = 8;
  config.dpu.mram_bytes = 1 * kMiB;  // keep test allocations small
  return config;
}

TEST(SystemTest, CreateWithPaperDefaults) {
  auto system = DpuSystem::Create(DpuSystemConfig{});
  ASSERT_TRUE(system.ok());
  // Table 2: 256 DPUs at 350 MHz with 14 tasklets.
  EXPECT_EQ((*system)->num_dpus(), 256u);
  EXPECT_EQ((*system)->num_ranks(), 4u);
  EXPECT_DOUBLE_EQ((*system)->config().dpu.clock_hz, 350.0e6);
  EXPECT_EQ((*system)->config().dpu.num_tasklets, 14u);
  EXPECT_EQ((*system)->config().dpu.mram_bytes, 64u * kMiB);
}

TEST(SystemTest, DpusAreIndexed) {
  auto system = DpuSystem::Create(SmallConfig());
  ASSERT_TRUE(system.ok());
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ((*system)->dpu(i).id(), i);
  }
}

TEST(SystemTest, MramIsolatedPerDpu) {
  auto system = DpuSystem::Create(SmallConfig());
  ASSERT_TRUE(system.ok());
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE((*system)->dpu(0).mram().Write(0, data).ok());
  std::vector<std::uint8_t> out(8, 0xff);
  ASSERT_TRUE((*system)->dpu(1).mram().Read(0, out).ok());
  for (std::uint8_t b : out) EXPECT_EQ(b, 0u);
}

TEST(SystemTest, StatsAccumulateAndReset) {
  auto system = DpuSystem::Create(SmallConfig());
  ASSERT_TRUE(system.ok());
  (*system)->dpu(3).stats().lookups = 42;
  (*system)->dpu(3).stats().kernel_cycles = 7;
  (*system)->ResetStats();
  EXPECT_EQ((*system)->dpu(3).stats().lookups, 0u);
  EXPECT_EQ((*system)->dpu(3).stats().kernel_cycles, 0u);
}

TEST(SystemTest, HighWatermarkAggregates) {
  auto system = DpuSystem::Create(SmallConfig());
  ASSERT_TRUE(system.ok());
  EXPECT_EQ((*system)->TotalHighWatermark(), 0u);
  const std::vector<std::uint8_t> data(64, 1);
  ASSERT_TRUE((*system)->dpu(0).mram().Write(0, data).ok());
  ASSERT_TRUE((*system)->dpu(5).mram().Write(128, data).ok());
  EXPECT_EQ((*system)->TotalHighWatermark(), 64u + 192u);
}

TEST(SystemTest, InvalidConfigsRejected) {
  DpuSystemConfig config = SmallConfig();
  config.num_dpus = 0;
  EXPECT_FALSE(DpuSystem::Create(config).ok());

  config = SmallConfig();
  config.dpus_per_rank = 0;
  EXPECT_FALSE(DpuSystem::Create(config).ok());

  config = SmallConfig();
  config.dpu.num_tasklets = 25;  // above hardware max
  EXPECT_FALSE(DpuSystem::Create(config).ok());

  config = SmallConfig();
  config.transfer.serial_bytes_per_sec = 0.0;
  EXPECT_FALSE(DpuSystem::Create(config).ok());

  // A packed index chunk of 3 x 12 bytes is not an 8-byte-aligned DMA.
  config = SmallConfig();
  config.kernel_cost.index_chunk = 12;
  EXPECT_EQ(DpuSystem::Create(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SystemTest, ModelsShareConfiguration) {
  DpuSystemConfig config = SmallConfig();
  config.mram_timing.base_latency = 123;
  auto system = DpuSystem::Create(config);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ((*system)->mram_timing().AccessLatency(8), 123u);
  EXPECT_EQ(
      (*system)->kernel_cost().mram_timing().AccessLatency(8), 123u);
}

}  // namespace
}  // namespace updlrm::pim
