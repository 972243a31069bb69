// Engine stress sweep: functional bit-exactness and accounting
// invariants across system shapes, tile widths, partitioning methods
// and feature combinations.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "trace/generator.h"
#include "updlrm/engine.h"

namespace updlrm::core {
namespace {

struct World {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(0, 1, 0);
};

World MakeWorld(std::uint32_t num_tables, std::uint32_t num_dpus,
                std::uint32_t dim, std::uint64_t seed) {
  World w;
  w.config.num_tables = num_tables;
  w.config.rows_per_table = 900;
  w.config.embedding_dim = dim;
  w.config.dense_features = 4;
  w.config.bottom_hidden = {8};
  w.config.top_hidden = {8};
  w.config.seed = seed;
  auto model = dlrm::DlrmModel::Create(w.config);
  UPDLRM_CHECK(model.ok());
  w.model = std::make_unique<dlrm::DlrmModel>(std::move(model).value());

  trace::DatasetSpec spec;
  spec.name = "stress";
  spec.num_items = 900;
  spec.avg_reduction = 14.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.15;
  spec.clique_prob = 0.5;
  spec.num_hot_items = 96;
  spec.seed = seed;
  trace::TraceGeneratorOptions options;
  options.num_samples = 70;  // deliberately not a batch multiple
  options.num_tables = num_tables;
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  w.trace = std::move(t).value();

  pim::DpuSystemConfig sys;
  sys.num_dpus = num_dpus;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = true;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  w.system = std::move(system).value();
  w.dense = dlrm::DenseInputs::Generate(70, 4, seed + 1);
  return w;
}

using StressParam =
    std::tuple<partition::Method, std::uint32_t /*tables*/,
               std::uint32_t /*dpus*/, std::uint32_t /*dim*/,
               std::uint32_t /*wram_cache_rows*/>;

class EngineStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(EngineStress, BitExactWithFullAccounting) {
  const auto [method, tables, dpus, dim, wram_rows] = GetParam();
  World w = MakeWorld(tables, dpus, dim, 41 + tables + dim);

  EngineOptions options;
  options.method = method;
  options.batch_size = 16;
  options.reserved_io_bytes = 128 * kKiB;
  options.grace.num_hot_items = 96;
  options.wram_cache_rows = wram_rows;
  auto engine = UpDlrmEngine::Create(w.model.get(), w.config, w.trace,
                                     w.system.get(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Run the whole trace (70 samples => 4 full batches + a 6-sample
  // tail) and verify every batch bit-exactly.
  std::vector<float> expected(static_cast<std::size_t>(tables) * dim);
  for (const auto& range : trace::MakeBatches(70, 16)) {
    auto batch = (*engine)->RunBatch(range, &w.dense);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->pooled.size(), range.size() * expected.size());
    for (std::size_t s = 0; s < range.size(); ++s) {
      w.model->PooledEmbeddingsFixed(w.trace, range.begin + s, expected);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(batch->pooled[s * expected.size() + i], expected[i])
            << "sample " << range.begin + s << " lane " << i;
      }
    }
    EXPECT_GT(batch->total, 0.0);
  }

  // Accounting invariant: total routed reads (MRAM rows + WRAM hits +
  // cache) never exceed the trace's lookups (caching only collapses),
  // and every lookup is replicated across its group's column shards.
  std::uint64_t trace_lookups = 0;
  for (const auto& table : w.trace.tables) {
    trace_lookups += table.num_lookups();
  }
  std::uint64_t routed = 0;
  for (std::uint32_t d = 0; d < w.system->num_dpus(); ++d) {
    const pim::DpuStats& st = w.system->dpu(d).stats();
    routed += st.lookups + st.wram_hits + st.cache_reads;
  }
  const std::uint32_t col_shards = dim / (*engine)->nc();
  EXPECT_LE(routed, trace_lookups * col_shards);
  EXPECT_GT(routed, 0u);
  if (method == partition::Method::kUniform) {
    EXPECT_EQ(routed, trace_lookups * col_shards);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineStress,
    ::testing::Values(
        // method, tables, dpus, dim, wram_cache_rows
        StressParam{partition::Method::kUniform, 2, 8, 8, 0},
        StressParam{partition::Method::kUniform, 4, 16, 16, 0},
        StressParam{partition::Method::kUniform, 2, 8, 8, 32},
        StressParam{partition::Method::kNonUniform, 2, 16, 8, 0},
        StressParam{partition::Method::kNonUniform, 3, 24, 16, 64},
        StressParam{partition::Method::kCacheAware, 2, 8, 8, 0},
        StressParam{partition::Method::kCacheAware, 4, 32, 16, 0},
        StressParam{partition::Method::kCacheAware, 2, 16, 32, 128},
        StressParam{partition::Method::kCacheAware, 1, 8, 8, 32}),
    [](const auto& info) {
      return std::string(partition::MethodShortName(
                 std::get<0>(info.param))) +
             "_t" + std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(std::get<2>(info.param)) + "_dim" +
             std::to_string(std::get<3>(info.param)) + "_w" +
             std::to_string(std::get<4>(info.param));
    });

}  // namespace
}  // namespace updlrm::core
