// The embedding hot path's one lever (DESIGN.md §6e): the pinned WRAM
// hot-row tier. Pinning changes timing accounting only — pooled outputs
// must stay bit-identical with the tier on or off — and a WRAM hit
// costs less than the MRAM read it replaces, so the tier may not
// regress the modeled embedding time.
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "partition/uniform.h"
#include "pim/stats_summary.h"
#include "trace/generator.h"
#include "trace/profiler.h"
#include "updlrm/engine.h"
#include "updlrm/placement.h"

namespace updlrm::core {
namespace {

// ---------------------------------------------------------------------
// BuildWramCache: deterministic hottest-first pinning per bin.

pim::DpuSystemConfig SmallSystemConfig() {
  pim::DpuSystemConfig config;
  config.num_dpus = 8;
  config.dpus_per_rank = 8;
  config.dpu.mram_bytes = 1 * kMiB;
  config.functional = true;
  return config;
}

TableGroup UniformGroup(std::uint64_t rows) {
  auto geom = partition::GroupGeometry::Make(dlrm::TableShape{rows, 8}, 8, 4);
  UPDLRM_CHECK(geom.ok());
  auto plan = partition::UniformPartition(*geom);
  UPDLRM_CHECK(plan.ok());
  auto group = BuildTableGroup(0, 0, std::move(plan).value(),
                               SmallSystemConfig(), 128 * kKiB, true);
  UPDLRM_CHECK(group.ok());
  return std::move(group).value();
}

// Pins with the hottest-first order BuildWramCache expects.
void Pin(TableGroup& group, const std::vector<std::uint64_t>& freq,
         std::uint32_t rows) {
  BuildWramCache(group, freq, trace::ItemsByFrequency(freq), rows);
}

std::uint64_t PinnedRows(const TableGroup& group) {
  std::uint64_t pinned = 0;
  for (std::uint64_t row = 0; row < group.plan.geom.table.rows; ++row) {
    pinned += group.WramPinned(row) ? 1 : 0;
  }
  return pinned;
}

TEST(WramCacheTest, PinsHottestRowsPerBin) {
  TableGroup group = UniformGroup(100);  // 4 bins of 25 rows
  std::vector<std::uint64_t> freq(100, 1);
  // Make rows 3 and 7 of every bin the hottest.
  for (std::uint32_t bin = 0; bin < 4; ++bin) {
    freq[bin * 25 + 3] = 100;
    freq[bin * 25 + 7] = 50;
  }
  Pin(group, freq, 2);
  // One bit per row.
  ASSERT_EQ(group.wram_pinned.size(), 2u);
  ASSERT_EQ(group.wram_rows_per_bin.size(), 4u);
  for (std::uint32_t bin = 0; bin < 4; ++bin) {
    EXPECT_EQ(group.wram_rows_per_bin[bin], 2u);
    for (std::uint32_t slot = 0; slot < 25; ++slot) {
      const std::uint32_t row = bin * 25 + slot;
      EXPECT_EQ(group.WramPinned(row), slot == 3 || slot == 7)
          << "row " << row;
    }
  }
}

TEST(WramCacheTest, ColdRowsAreNeverPinned) {
  TableGroup group = UniformGroup(100);
  std::vector<std::uint64_t> freq(100, 0);
  freq[4] = 9;  // the only referenced row
  Pin(group, freq, 8);
  EXPECT_EQ(PinnedRows(group), 1u);
  EXPECT_TRUE(group.WramPinned(4));
}

TEST(WramCacheTest, TiesBreakByLowestRowId) {
  TableGroup group = UniformGroup(100);
  const std::vector<std::uint64_t> freq(100, 7);  // all equally hot
  Pin(group, freq, 3);
  for (std::uint32_t bin = 0; bin < 4; ++bin) {
    for (std::uint32_t slot = 0; slot < 25; ++slot) {
      EXPECT_EQ(group.WramPinned(bin * 25 + slot), slot < 3);
    }
  }
}

TEST(WramCacheTest, ZeroRowsIsANoOp) {
  TableGroup group = UniformGroup(100);
  const std::vector<std::uint64_t> freq(100, 7);
  Pin(group, freq, 0);
  EXPECT_TRUE(group.wram_pinned.empty());
  EXPECT_FALSE(group.WramPinned(0));
  EXPECT_TRUE(group.wram_rows_per_bin.empty());
}

// ---------------------------------------------------------------------
// Engine integration: the WRAM tier preserves functional outputs and
// never regresses the modeled embedding time.

struct Fixture {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(0, 1, 0);
};

Fixture MakeFixture(std::uint64_t seed = 31) {
  Fixture f;
  f.config.num_tables = 2;
  f.config.rows_per_table = 600;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  f.config.seed = seed;
  auto model = dlrm::DlrmModel::Create(f.config);
  UPDLRM_CHECK(model.ok());
  f.model = std::make_unique<dlrm::DlrmModel>(std::move(model).value());

  trace::DatasetSpec spec;
  spec.name = "hotpath";
  spec.num_items = 600;
  spec.avg_reduction = 12.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = seed;
  trace::TraceGeneratorOptions options;
  options.num_samples = 96;
  options.num_tables = 2;
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  f.trace = std::move(t).value();

  pim::DpuSystemConfig sys;
  sys.num_dpus = 8;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = true;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();

  f.dense = dlrm::DenseInputs::Generate(96, 5, seed + 1);
  return f;
}

struct WramRun {
  std::vector<float> pooled;
  std::vector<float> ctr;
  InferenceReport report;
  pim::DpuStatsSummary stats;
};

WramRun RunWithWramRows(std::uint32_t wram) {
  Fixture f = MakeFixture();
  EngineOptions options;
  options.method = partition::Method::kCacheAware;
  options.nc = 4;
  options.batch_size = 16;
  options.reserved_io_bytes = 128 * kKiB;
  options.grace.num_hot_items = 96;
  options.wram_cache_rows = wram;
  auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                     f.system.get(), options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());

  WramRun run;
  auto batch = (*engine)->RunBatch({0, 16}, &f.dense);
  UPDLRM_CHECK(batch.ok());
  run.pooled = std::move(batch->pooled);
  run.ctr = std::move(batch->ctr);
  auto report = (*engine)->RunAll(&f.dense);
  UPDLRM_CHECK(report.ok());
  run.report = std::move(report).value();
  run.stats = pim::SummarizeStats(*f.system);
  return run;
}

TEST(HotPathEngineTest, WramTierNeverChangesFunctionalOutputs) {
  const WramRun base = RunWithWramRows(0);
  ASSERT_FALSE(base.pooled.empty());
  const WramRun wram = RunWithWramRows(64);
  ASSERT_EQ(wram.pooled.size(), base.pooled.size());
  for (std::size_t i = 0; i < base.pooled.size(); ++i) {
    ASSERT_EQ(wram.pooled[i], base.pooled[i]) << "lane " << i;
  }
  ASSERT_EQ(wram.ctr, base.ctr);
}

TEST(HotPathEngineTest, WramTierNeverRegressesEmbeddingTime) {
  EXPECT_LE(RunWithWramRows(64).report.EmbeddingTotal(),
            RunWithWramRows(0).report.EmbeddingTotal());
}

TEST(HotPathEngineTest, DefaultPinsAsManyRowsAsFit) {
  Fixture f = MakeFixture();
  EngineOptions options;
  options.method = partition::Method::kUniform;
  options.nc = 4;
  options.reserved_io_bytes = 128 * kKiB;
  ASSERT_EQ(options.wram_cache_rows, kWramRowsAsFit);
  auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                     f.system.get(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::uint32_t fit =
      f.system->kernel_cost().MaxWramCacheRows(4 * 4);
  ASSERT_GT(fit, 0u);
  for (const TableGroup& group : (*engine)->groups()) {
    for (std::uint32_t bin = 0; bin < group.plan.geom.row_shards; ++bin) {
      // Capped by the clamp, or by the bin's referenced rows.
      EXPECT_LE(group.wram_rows_per_bin[bin], fit);
      EXPECT_GT(group.wram_rows_per_bin[bin], 0u);
    }
    EXPECT_EQ(PinnedRows(group),
              std::accumulate(group.wram_rows_per_bin.begin(),
                              group.wram_rows_per_bin.end(),
                              std::uint64_t{0}));
  }
}

TEST(HotPathEngineTest, WramTierActuallyHits) {
  const WramRun base = RunWithWramRows(0);
  EXPECT_EQ(base.stats.total_wram_hits, 0u);
  const WramRun wram = RunWithWramRows(64);
  EXPECT_GT(wram.stats.total_wram_hits, 0u);
  EXPECT_GT(wram.stats.wram_hit_share, 0.0);
  // Hits replace MRAM row reads one for one; batch geometry is fixed.
  EXPECT_LT(wram.report.stages.dpu_lookup, base.report.stages.dpu_lookup);
}

}  // namespace
}  // namespace updlrm::core
