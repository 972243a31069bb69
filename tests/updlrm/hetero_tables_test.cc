// Heterogeneous-table engine tests: mixed table sizes, per-table traces
// and DPU allocation policies (extension beyond the paper's duplicated
// EMTs).
#include <gtest/gtest.h>

#include <memory>

#include "trace/generator.h"
#include "updlrm/engine.h"

namespace updlrm::core {
namespace {

trace::DatasetSpec SpecFor(std::uint64_t items, double avg_red,
                           std::uint64_t seed) {
  trace::DatasetSpec spec;
  spec.name = "het" + std::to_string(items);
  spec.num_items = items;
  spec.avg_reduction = avg_red;
  spec.zipf_alpha = 0.9;
  spec.rank_jitter = 0.2;
  spec.clique_prob = 0.3;
  spec.num_hot_items = 64;
  spec.seed = seed;
  return spec;
}

struct Fixture {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(0, 1, 0);
};

Fixture MakeFixture(bool functional) {
  Fixture f;
  f.config.num_tables = 3;
  f.config.table_rows = {2'000, 200, 800};  // mixed sizes
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  if (functional) {
    auto model = dlrm::DlrmModel::Create(f.config);
    UPDLRM_CHECK(model.ok());
    f.model = std::make_unique<dlrm::DlrmModel>(std::move(model).value());
  }

  const trace::DatasetSpec specs[] = {SpecFor(2'000, 24.0, 5),
                                      SpecFor(200, 6.0, 6),
                                      SpecFor(800, 12.0, 7)};
  trace::TraceGeneratorOptions options;
  options.num_samples = 96;
  auto t = trace::GenerateHeterogeneousTrace(specs, options);
  UPDLRM_CHECK(t.ok());
  f.trace = std::move(t).value();

  pim::DpuSystemConfig sys;
  sys.num_dpus = 16;
  sys.dpus_per_rank = 16;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = functional;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();

  f.dense = dlrm::DenseInputs::Generate(96, 5, 3);
  return f;
}

EngineOptions HeteroOptions(partition::DpuAllocationPolicy policy,
                            std::uint32_t nc = 4) {
  EngineOptions options;
  options.method = partition::Method::kNonUniform;
  options.nc = nc;
  options.batch_size = 16;
  options.reserved_io_bytes = 128 * kKiB;
  options.allocation = policy;
  return options;
}

TEST(HeteroTablesTest, GeneratorBuildsPerTableItemCounts) {
  Fixture f = MakeFixture(false);
  EXPECT_EQ(f.trace.ItemsInTable(0), 2'000u);
  EXPECT_EQ(f.trace.ItemsInTable(1), 200u);
  EXPECT_EQ(f.trace.ItemsInTable(2), 800u);
  EXPECT_TRUE(f.trace.Validate().ok());
}

TEST(HeteroTablesTest, PooledEmbeddingsBitExactWithProportionalTraffic) {
  Fixture f = MakeFixture(true);
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      HeteroOptions(partition::DpuAllocationPolicy::kProportionalTraffic));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto batch = (*engine)->RunBatch({0, 16}, &f.dense);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  std::vector<float> expected(3 * 8);
  for (std::size_t s = 0; s < 16; ++s) {
    f.model->PooledEmbeddingsFixed(f.trace, s, expected);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(batch->pooled[s * 24 + i], expected[i])
          << "sample " << s << " lane " << i;
    }
  }
  // And the CTRs match the reference forward pass exactly.
  const auto ref = f.model->ForwardBatch(f.dense, f.trace, {0, 16}, true);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(batch->ctr[i], ref[i]);
  }
}

TEST(HeteroTablesTest, ProportionalAllocationGivesBigTablesMoreDpus) {
  Fixture f = MakeFixture(false);
  auto engine = UpDlrmEngine::Create(
      nullptr, f.config, f.trace, f.system.get(),
      HeteroOptions(partition::DpuAllocationPolicy::kProportionalTraffic));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const auto& groups = (*engine)->groups();
  ASSERT_EQ(groups.size(), 3u);
  // Table 0 carries most lookups (2000 items, reduction 24); it must
  // get the largest group.
  EXPECT_GT(groups[0].plan.geom.dpus_per_table,
            groups[1].plan.geom.dpus_per_table);
  EXPECT_GE(groups[0].plan.geom.dpus_per_table,
            groups[2].plan.geom.dpus_per_table);
}

TEST(HeteroTablesTest, TrafficAllocationBeatsEqualOnSkewedTables) {
  Fixture f1 = MakeFixture(false);
  Fixture f2 = MakeFixture(false);
  auto equal = UpDlrmEngine::Create(
      nullptr, f1.config, f1.trace, f1.system.get(),
      HeteroOptions(partition::DpuAllocationPolicy::kEqual));
  auto traffic = UpDlrmEngine::Create(
      nullptr, f2.config, f2.trace, f2.system.get(),
      HeteroOptions(partition::DpuAllocationPolicy::kProportionalTraffic));
  ASSERT_TRUE(equal.ok() && traffic.ok());
  auto re = (*equal)->RunAll(nullptr);
  auto rt = (*traffic)->RunAll(nullptr);
  ASSERT_TRUE(re.ok() && rt.ok());
  // Stage 2 waits on the slowest group; feeding the busy table more
  // DPUs must help.
  EXPECT_LT(rt->stages.dpu_lookup, re->stages.dpu_lookup);
}

TEST(HeteroTablesTest, AutoNcWorksWithAllocationSearch) {
  Fixture f = MakeFixture(false);
  auto engine = UpDlrmEngine::Create(
      nullptr, f.config, f.trace, f.system.get(),
      HeteroOptions(partition::DpuAllocationPolicy::kProportionalTraffic,
                    /*nc=*/0));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_GT((*engine)->nc(), 0u);
  EXPECT_FALSE((*engine)->tile_optimization().has_value());
  EXPECT_TRUE((*engine)->RunBatch({0, 16}, nullptr).ok());
}

TEST(HeteroTablesTest, MismatchedTraceRowsRejected) {
  Fixture f = MakeFixture(false);
  f.config.table_rows = {2'000, 300, 800};  // table 1 disagrees
  auto engine = UpDlrmEngine::Create(
      nullptr, f.config, f.trace, f.system.get(),
      HeteroOptions(partition::DpuAllocationPolicy::kEqual));
  EXPECT_FALSE(engine.ok());
}

TEST(HeteroTablesTest, ConfigValidation) {
  dlrm::DlrmConfig config;
  config.num_tables = 3;
  config.table_rows = {100, 200};  // wrong count
  config.embedding_dim = 8;
  EXPECT_FALSE(config.Validate().ok());
  config.table_rows = {100, 0, 300};  // empty table
  EXPECT_FALSE(config.Validate().ok());
  config.table_rows = {100, 200, 300};
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.RowsInTable(2), 300u);
  EXPECT_EQ(config.TotalTableBytes(), (100u + 200 + 300) * 8 * 4);
}

}  // namespace
}  // namespace updlrm::core
