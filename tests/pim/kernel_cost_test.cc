#include "pim/kernel_cost.h"

#include <gtest/gtest.h>

namespace updlrm::pim {
namespace {

EmbeddingKernelCostModel DefaultModel(std::uint32_t tasklets = 14) {
  DpuConfig dpu;
  dpu.num_tasklets = tasklets;
  return EmbeddingKernelCostModel(EmbeddingKernelCostParams{}, dpu,
                                  MramTimingModel{});
}

TEST(KernelCostTest, EmptyWorkIsFree) {
  const auto model = DefaultModel();
  EXPECT_EQ(model.KernelCycles(EmbeddingKernelWork{}), 0u);
}

TEST(KernelCostTest, BootCostIncluded) {
  const auto model = DefaultModel();
  const EmbeddingKernelWork w{
      .num_lookups = 1, .num_cache_reads = 0, .num_samples = 1,
      .row_bytes = 8};
  EXPECT_GT(model.KernelCycles(w), model.params().boot_cycles);
}

TEST(KernelCostTest, LinearInLookupsWhenIssueBound) {
  // Fig. 11's 8 B series: lookup time grows ~linearly with the number
  // of lookups (i.e. with average reduction).
  const auto model = DefaultModel();
  auto cycles = [&](std::uint64_t lookups) {
    return model.KernelCycles(EmbeddingKernelWork{
        .num_lookups = lookups, .num_cache_reads = 0, .num_samples = 64,
        .row_bytes = 8});
  };
  const double base = static_cast<double>(cycles(1600));
  const double six_x = static_cast<double>(cycles(9600));
  const double fixed = static_cast<double>(model.params().boot_cycles);
  EXPECT_NEAR((six_x - fixed) / (base - fixed), 6.0, 0.5);
}

TEST(KernelCostTest, CacheReadsCostLikeLookups) {
  const auto model = DefaultModel();
  const EmbeddingKernelWork lookups{
      .num_lookups = 1000, .num_cache_reads = 0, .num_samples = 64,
      .row_bytes = 32};
  const EmbeddingKernelWork cached{
      .num_lookups = 0, .num_cache_reads = 1000, .num_samples = 64,
      .row_bytes = 32};
  EXPECT_EQ(model.KernelCycles(lookups), model.KernelCycles(cached));
}

TEST(KernelCostTest, CachingFewerReadsIsCheaper) {
  // The whole point of partial-sum caching: fewer MRAM reads, less time.
  const auto model = DefaultModel();
  const EmbeddingKernelWork uncached{
      .num_lookups = 2000, .num_cache_reads = 0, .num_samples = 64,
      .row_bytes = 32};
  const EmbeddingKernelWork cached{
      .num_lookups = 800, .num_cache_reads = 400, .num_samples = 64,
      .row_bytes = 32};
  EXPECT_LT(model.KernelCycles(cached), model.KernelCycles(uncached));
}

TEST(KernelCostTest, WiderRowsCostMorePerRead) {
  const auto model = DefaultModel();
  auto per_read = [&](std::uint32_t row_bytes) {
    const EmbeddingKernelWork w{
        .num_lookups = 10'000, .num_cache_reads = 0, .num_samples = 64,
        .row_bytes = row_bytes};
    return static_cast<double>(model.KernelCycles(w)) / 10'000.0;
  };
  EXPECT_LT(per_read(8), per_read(32));
  EXPECT_LT(per_read(32), per_read(128));
}

TEST(KernelCostTest, FewerWiderReadsBeatManyNarrowOnes) {
  // §4.4: growing the lookup size from 8 B to 32 B cuts lookup time
  // because the same payload needs 4x fewer reads at ~equal latency.
  const auto model = DefaultModel();
  const EmbeddingKernelWork narrow{
      .num_lookups = 4000, .num_cache_reads = 0, .num_samples = 64,
      .row_bytes = 8};
  const EmbeddingKernelWork wide{
      .num_lookups = 1000, .num_cache_reads = 0, .num_samples = 64,
      .row_bytes = 32};
  EXPECT_LT(model.KernelCycles(wide), model.KernelCycles(narrow));
}

TEST(KernelCostTest, MoreTaskletsNeverSlower) {
  const EmbeddingKernelWork w{
      .num_lookups = 5000, .num_cache_reads = 0, .num_samples = 64,
      .row_bytes = 32};
  Cycles prev = ~0ULL;
  for (std::uint32_t t : {1u, 2u, 4u, 8u, 11u, 14u, 24u}) {
    const Cycles c = DefaultModel(t).KernelCycles(w);
    EXPECT_LE(c, prev) << t;
    prev = c;
  }
}

TEST(KernelCostTest, WramHitsCheaperThanMramReads) {
  // The entire value of the pinned WRAM tier: a hit accumulates out of
  // WRAM with no MRAM DMA, so it must undercut the MRAM latency curve.
  const auto model = DefaultModel();
  const EmbeddingKernelWork from_mram{
      .num_lookups = 2000, .num_cache_reads = 0, .num_samples = 64,
      .row_bytes = 32};
  const EmbeddingKernelWork from_wram{
      .num_lookups = 0, .num_cache_reads = 0, .num_samples = 64,
      .row_bytes = 32, .num_wram_hits = 2000};
  EXPECT_LT(model.KernelCycles(from_wram), model.KernelCycles(from_mram));
}

TEST(KernelCostTest, WramHitsAddCycles) {
  const auto model = DefaultModel();
  const EmbeddingKernelWork base{
      .num_lookups = 1000, .num_cache_reads = 0, .num_samples = 64,
      .row_bytes = 32};
  EmbeddingKernelWork with_wram = base;
  with_wram.num_wram_hits = 500;
  EXPECT_GT(model.KernelCycles(with_wram), model.KernelCycles(base));
}

TEST(KernelCostTest, HotPathOnlyWorkStillPaysBoot) {
  // Work made purely of WRAM hits (no MRAM reads at all) is real work.
  const auto model = DefaultModel();
  const EmbeddingKernelWork w{
      .num_lookups = 0, .num_cache_reads = 0, .num_samples = 8,
      .row_bytes = 32, .num_wram_hits = 100};
  EXPECT_GT(model.KernelCycles(w), model.params().boot_cycles);
}

TEST(KernelCostTest, MaxWramCacheRowsShrinksWithRowWidth) {
  const auto model = DefaultModel();
  const std::uint32_t narrow = model.MaxWramCacheRows(8);
  const std::uint32_t wide = model.MaxWramCacheRows(128);
  EXPECT_GT(narrow, 0u);
  EXPECT_GT(narrow, wide);
  // A fit at the reported capacity must validate; one row over the
  // budget must not.
  EXPECT_TRUE(
      model.ValidateWramFit(128, static_cast<std::uint64_t>(wide) * 128)
          .ok());
  EXPECT_EQ(model
                .ValidateWramFit(
                    128, (static_cast<std::uint64_t>(wide) + 512) * 128)
                .code(),
            StatusCode::kCapacityExceeded);
}

TEST(KernelCostTest, WramFitValidation) {
  const auto model = DefaultModel();
  EXPECT_TRUE(model.ValidateWramFit(8).ok());
  EXPECT_TRUE(model.ValidateWramFit(128).ok());
  // An absurd row width blows the 64 KB WRAM across 14 tasklets.
  EXPECT_EQ(model.ValidateWramFit(16'384).code(),
            StatusCode::kCapacityExceeded);
}

TEST(KernelCostTest, ParamsValidation) {
  EmbeddingKernelCostParams params;
  params.index_chunk = 0;
  EXPECT_FALSE(params.Validate().ok());
  EXPECT_TRUE(EmbeddingKernelCostParams{}.Validate().ok());
  // 3 x index_chunk bytes must stay a multiple of 8.
  params.index_chunk = 12;
  EXPECT_EQ(params.Validate().code(), StatusCode::kInvalidArgument);
  params.index_chunk = 8;
  EXPECT_TRUE(params.Validate().ok());
}

TEST(KernelCostTest, PackedIndexChunkPricesItsDecode) {
  const EmbeddingKernelCostParams params;
  const MramTimingModel mram;
  EmbeddingKernelWork work{
      .num_lookups = 1000, .num_cache_reads = 0, .num_samples = 64,
      .row_bytes = 32};
  const KernelWorkload paper = EmbeddingKernelPhases(params, mram, work)[0];
  work.index_bytes = 3;
  const KernelWorkload packed = EmbeddingKernelPhases(params, mram, work)[0];
  // Same chunk count; a 3-byte-per-index DMA; +2 issue slots per index.
  EXPECT_EQ(packed.num_items, paper.num_items);
  EXPECT_EQ(packed.dma_latency_per_item,
            mram.AccessLatency(3 * params.index_chunk));
  EXPECT_EQ(paper.dma_latency_per_item,
            mram.AccessLatency(4 * params.index_chunk));
  EXPECT_EQ(packed.instr_cycles_per_item,
            paper.instr_cycles_per_item +
                kInstrPerPackedIndex * params.index_chunk);
}

}  // namespace
}  // namespace updlrm::pim
