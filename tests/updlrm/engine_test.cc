#include "updlrm/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "trace/generator.h"

namespace updlrm::core {
namespace {

struct Fixture {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(0, 1, 0);
};

Fixture MakeFixture(bool functional = true, std::uint64_t seed = 31) {
  Fixture f;
  f.config.num_tables = 2;
  f.config.rows_per_table = 600;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  f.config.seed = seed;
  if (functional) {
    auto model = dlrm::DlrmModel::Create(f.config);
    UPDLRM_CHECK(model.ok());
    f.model = std::make_unique<dlrm::DlrmModel>(std::move(model).value());
  }

  trace::DatasetSpec spec;
  spec.name = "eng";
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
  sys.num_dpus = 8;  // 4 per table
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = functional;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();

  f.dense = dlrm::DenseInputs::Generate(96, 5, seed + 1);
  return f;
}

EngineOptions SmallEngineOptions(partition::Method method,
                                 std::uint32_t nc = 0) {
  EngineOptions options;
  options.method = method;
  options.nc = nc;
  options.batch_size = 16;
  options.reserved_io_bytes = 128 * kKiB;
  options.grace.num_hot_items = 96;
  return options;
}

// ---- Functional equivalence: the headline correctness property. ----

class EngineEquivalence
    : public ::testing::TestWithParam<
          std::tuple<partition::Method, std::uint32_t>> {};

TEST_P(EngineEquivalence, PooledEmbeddingsBitExactVsReference) {
  const auto [method, nc] = GetParam();
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                     f.system.get(),
                                     SmallEngineOptions(method, nc));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto batch = (*engine)->RunBatch({0, 16}, &f.dense);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->pooled.size(), 16u * 2 * 8);

  std::vector<float> expected(2 * 8);
  for (std::size_t s = 0; s < 16; ++s) {
    f.model->PooledEmbeddingsFixed(f.trace, s, expected);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      // Bit-exact: identical integer arithmetic, different order.
      ASSERT_EQ(batch->pooled[s * 16 + i], expected[i])
          << "sample " << s << " lane " << i << " method "
          << partition::MethodName(method) << " nc " << nc;
    }
  }
}

TEST_P(EngineEquivalence, CtrMatchesReferenceForward) {
  const auto [method, nc] = GetParam();
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                     f.system.get(),
                                     SmallEngineOptions(method, nc));
  ASSERT_TRUE(engine.ok());
  auto batch = (*engine)->RunBatch({16, 32}, &f.dense);
  ASSERT_TRUE(batch.ok());
  const auto expected =
      f.model->ForwardBatch(f.dense, f.trace, {16, 32}, /*fixed=*/true);
  ASSERT_EQ(batch->ctr.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(batch->ctr[i], expected[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndNc, EngineEquivalence,
    ::testing::Combine(::testing::Values(partition::Method::kUniform,
                                         partition::Method::kNonUniform,
                                         partition::Method::kCacheAware),
                       ::testing::Values(0u, 2u, 4u, 8u)),
    [](const auto& info) {
      return std::string(partition::MethodShortName(
                 std::get<0>(info.param))) +
             "_nc" + std::to_string(std::get<1>(info.param));
    });

// ---- Engine behaviour and timing structure. ----

TEST(EngineTest, AutoNcRecordsOptimizerResult) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 0));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->tile_optimization().has_value());
  EXPECT_EQ((*engine)->nc(), (*engine)->tile_optimization()->best.nc);
  EXPECT_FALSE((*engine)->tile_optimization()->candidates.empty());
}

TEST(EngineTest, ForcedNcSkipsOptimizer) {
  // Pinning both tile axes (Nc and R) leaves nothing to optimize.
  Fixture f = MakeFixture();
  EngineOptions options = SmallEngineOptions(partition::Method::kUniform, 4);
  options.replicas = 1;
  auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                     f.system.get(), options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->nc(), 4u);
  EXPECT_FALSE((*engine)->tile_optimization().has_value());
}

TEST(EngineTest, ForcedNcStillPricesReplicas) {
  // A pinned Nc with R left automatic searches R at that Nc only.
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->nc(), 4u);
  ASSERT_TRUE((*engine)->tile_optimization().has_value());
  for (const auto& cand : (*engine)->tile_optimization()->candidates) {
    EXPECT_EQ(cand.nc, 4u);
  }
  EXPECT_EQ((*engine)->replicas(), 1u);  // one rank: one copy
}

TEST(EngineTest, StageLatenciesArePositive) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kNonUniform, 4));
  ASSERT_TRUE(engine.ok());
  auto batch = (*engine)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(batch->stages.cpu_to_dpu, 0.0);
  EXPECT_GT(batch->stages.dpu_lookup, 0.0);
  EXPECT_GT(batch->stages.dpu_to_cpu, 0.0);
  EXPECT_GT(batch->stages.cpu_aggregate, 0.0);
  EXPECT_GT(batch->bottom_mlp, 0.0);
  EXPECT_GE(batch->total, batch->stages.EmbeddingTotal());
}

// The fixed shares of stage 2 and the pull come from the same SDK
// constants the stage prices charge: one dpu_launch() plus the tasklet
// boot, and one batched transfer call.
TEST(EngineTest, StageFixedSharesAreTheSdkConstants) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kCacheAware, 4));
  ASSERT_TRUE(engine.ok());
  auto batch = (*engine)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(batch.ok());
  const pim::DpuSystemConfig& config = f.system->config();
  const pim::HostTransferParams& transfer = f.system->transfer().params();
  EXPECT_EQ(batch->stages.lookup_fixed,
            transfer.kernel_launch_ns +
                CyclesToNanos(config.kernel_cost.boot_cycles,
                              config.dpu.clock_hz));
  EXPECT_EQ(batch->stages.pull_fixed, transfer.transfer_launch_ns);
  EXPECT_LT(batch->stages.lookup_fixed, batch->stages.dpu_lookup);
  EXPECT_LT(batch->stages.pull_fixed, batch->stages.dpu_to_cpu);
}

TEST(EngineTest, TimingOnlyModeMatchesFunctionalTiming) {
  // Timing must not depend on whether MRAM contents are materialized.
  Fixture functional = MakeFixture(true);
  Fixture timing = MakeFixture(false);
  auto e1 = UpDlrmEngine::Create(
      functional.model.get(), functional.config, functional.trace,
      functional.system.get(),
      SmallEngineOptions(partition::Method::kCacheAware, 4));
  auto e2 = UpDlrmEngine::Create(
      nullptr, timing.config, timing.trace, timing.system.get(),
      SmallEngineOptions(partition::Method::kCacheAware, 4));
  ASSERT_TRUE(e1.ok() && e2.ok());
  auto b1 = (*e1)->RunBatch({0, 16}, nullptr);
  auto b2 = (*e2)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_DOUBLE_EQ(b1->stages.cpu_to_dpu, b2->stages.cpu_to_dpu);
  EXPECT_DOUBLE_EQ(b1->stages.dpu_lookup, b2->stages.dpu_lookup);
  EXPECT_DOUBLE_EQ(b1->stages.dpu_to_cpu, b2->stages.dpu_to_cpu);
  EXPECT_TRUE(b2->pooled.empty());
  EXPECT_EQ(timing.system->TotalHighWatermark(), 0u);
}

TEST(EngineTest, CacheAwareReducesLookupTimeOnHotTrace) {
  // The §3.3 claim in miniature: CA stage-2 time <= NU stage-2 time on a
  // co-occurrence-heavy trace, with the paper's kernel (no WRAM tier,
  // which serves NU's hot rows as cheaply as CA's cache).
  Fixture f1 = MakeFixture(false);
  Fixture f2 = MakeFixture(false);
  EngineOptions nu_options =
      SmallEngineOptions(partition::Method::kNonUniform, 4);
  EngineOptions ca_options =
      SmallEngineOptions(partition::Method::kCacheAware, 4);
  nu_options.wram_cache_rows = 0;
  ca_options.wram_cache_rows = 0;
  auto nu = UpDlrmEngine::Create(nullptr, f1.config, f1.trace,
                                 f1.system.get(), nu_options);
  auto ca = UpDlrmEngine::Create(nullptr, f2.config, f2.trace,
                                 f2.system.get(), ca_options);
  ASSERT_TRUE(nu.ok() && ca.ok());
  auto rnu = (*nu)->RunAll(nullptr);
  auto rca = (*ca)->RunAll(nullptr);
  ASSERT_TRUE(rnu.ok() && rca.ok());
  EXPECT_LT(rca->stages.dpu_lookup, rnu->stages.dpu_lookup);
}

TEST(EngineTest, RunAllAggregatesBatches) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok());
  auto report = (*engine)->RunAll(&f.dense);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_batches, 6u);  // 96 samples / 16
  EXPECT_EQ(report->num_samples, 96u);
  EXPECT_GT(report->total, 0.0);
  EXPECT_GT(report->AvgBatchTotal(), 0.0);
}

TEST(EngineTest, DpuStatsAccumulate) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RunBatch({0, 16}, nullptr).ok());
  std::uint64_t total_lookups = 0;
  std::uint64_t total_lookups_per_shard = 0;
  // Every lookup is an MRAM read or a WRAM hit (the default tier).
  for (std::uint32_t d = 0; d < f.system->num_dpus(); ++d) {
    total_lookups += f.system->dpu(d).stats().lookups +
                     f.system->dpu(d).stats().wram_hits;
  }
  // Each lookup is replicated across the 2 column shards (nc=4, dim=8).
  std::uint64_t trace_lookups = 0;
  for (const auto& table : f.trace.tables) {
    trace_lookups += table.offsets()[16];
  }
  total_lookups_per_shard = total_lookups / 2;
  EXPECT_EQ(total_lookups_per_shard, trace_lookups);
}

// ---- Error handling. ----

TEST(EngineTest, RejectsMismatchedTraceTables) {
  Fixture f = MakeFixture();
  f.config.num_tables = 4;  // trace has 2
  auto model = dlrm::DlrmModel::Create(f.config);
  ASSERT_TRUE(model.ok());
  auto engine = UpDlrmEngine::Create(
      &model.value(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  EXPECT_FALSE(engine.ok());
}

TEST(EngineTest, RejectsIndivisibleDpuCount) {
  Fixture f = MakeFixture();
  pim::DpuSystemConfig sys;
  sys.num_dpus = 7;  // not divisible by 2 tables
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  auto system = pim::DpuSystem::Create(sys);
  ASSERT_TRUE(system.ok());
  auto engine = UpDlrmEngine::Create(
      nullptr, f.config, f.trace, system->get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  EXPECT_FALSE(engine.ok());
}

TEST(EngineTest, RejectsFunctionalModelOnTimingSystem) {
  Fixture f = MakeFixture();
  pim::DpuSystemConfig sys;
  sys.num_dpus = 8;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = false;
  auto system = pim::DpuSystem::Create(sys);
  ASSERT_TRUE(system.ok());
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, system->get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, RejectsInvalidBatchRange) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE((*engine)->RunBatch({0, 0}, nullptr).ok());
  EXPECT_FALSE((*engine)->RunBatch({90, 200}, nullptr).ok());
}

TEST(EngineTest, RejectsBadOptions) {
  Fixture f = MakeFixture();
  EngineOptions options = SmallEngineOptions(partition::Method::kUniform, 4);
  options.cache_capacity_fraction = 1.5;
  EXPECT_FALSE(UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                    f.system.get(), options)
                   .ok());
  options = SmallEngineOptions(partition::Method::kUniform, 4);
  options.batch_size = 0;
  EXPECT_FALSE(UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                    f.system.get(), options)
                   .ok());
}

TEST(EngineTest, RunSamplesMatchesRunBatchOnContiguousRange) {
  // RunBatch is specified as the contiguous special case of RunSamples;
  // the serving batcher relies on that equivalence.
  Fixture f1 = MakeFixture();
  Fixture f2 = MakeFixture();
  auto e1 = UpDlrmEngine::Create(
      f1.model.get(), f1.config, f1.trace, f1.system.get(),
      SmallEngineOptions(partition::Method::kCacheAware, 4));
  auto e2 = UpDlrmEngine::Create(
      f2.model.get(), f2.config, f2.trace, f2.system.get(),
      SmallEngineOptions(partition::Method::kCacheAware, 4));
  ASSERT_TRUE(e1.ok() && e2.ok());
  auto by_range = (*e1)->RunBatch({16, 32}, &f1.dense);
  std::vector<std::size_t> samples(16);
  for (std::size_t i = 0; i < 16; ++i) samples[i] = 16 + i;
  auto by_list = (*e2)->RunSamples(samples, &f2.dense);
  ASSERT_TRUE(by_range.ok() && by_list.ok());
  ASSERT_EQ(by_list->pooled.size(), by_range->pooled.size());
  for (std::size_t i = 0; i < by_range->pooled.size(); ++i) {
    ASSERT_EQ(by_list->pooled[i], by_range->pooled[i]) << i;
  }
  ASSERT_EQ(by_list->ctr.size(), by_range->ctr.size());
  for (std::size_t i = 0; i < by_range->ctr.size(); ++i) {
    EXPECT_EQ(by_list->ctr[i], by_range->ctr[i]) << i;
  }
  EXPECT_DOUBLE_EQ(by_list->stages.cpu_to_dpu, by_range->stages.cpu_to_dpu);
  EXPECT_DOUBLE_EQ(by_list->stages.dpu_lookup, by_range->stages.dpu_lookup);
  EXPECT_DOUBLE_EQ(by_list->stages.dpu_to_cpu, by_range->stages.dpu_to_cpu);
  EXPECT_DOUBLE_EQ(by_list->stages.cpu_aggregate,
                   by_range->stages.cpu_aggregate);
}

TEST(EngineTest, RunSamplesHandlesNonContiguousLists) {
  // A shed-gap batch: samples {3, 7, 40, 41, 90} must pool exactly the
  // per-sample reference rows, in list order.
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kNonUniform, 4));
  ASSERT_TRUE(engine.ok());
  const std::vector<std::size_t> samples = {3, 7, 40, 41, 90};
  auto batch = (*engine)->RunSamples(samples, nullptr);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->pooled.size(), samples.size() * 2 * 8);
  std::vector<float> expected(2 * 8);
  for (std::size_t s = 0; s < samples.size(); ++s) {
    f.model->PooledEmbeddingsFixed(f.trace, samples[s], expected);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(batch->pooled[s * 16 + i], expected[i])
          << "slot " << s << " lane " << i;
    }
  }
}

TEST(EngineTest, RunSamplesRejectsBadLists) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE((*engine)->RunSamples({}, nullptr).ok());
  const std::vector<std::size_t> out_of_range = {0, 96};
  EXPECT_FALSE((*engine)->RunSamples(out_of_range, nullptr).ok());
}

TEST(EngineTest, RunSamplesRejectsMismatchedDenseInputs) {
  // Dense inputs reach the CTR forward only in functional mode; a short
  // or wrong-width set is the caller's error, not a process abort.
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok());
  const std::vector<std::size_t> samples = {0, 40};

  const dlrm::DenseInputs short_dense =
      dlrm::DenseInputs::Generate(40, f.config.dense_features, 7);
  auto too_few = (*engine)->RunSamples(samples, &short_dense);
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*engine)->RunBatch({32, 48}, &short_dense).status().code(),
            StatusCode::kInvalidArgument);

  const dlrm::DenseInputs wide_dense =
      dlrm::DenseInputs::Generate(96, f.config.dense_features + 1, 7);
  auto wrong_dim = (*engine)->RunSamples(samples, &wide_dense);
  ASSERT_FALSE(wrong_dim.ok());
  EXPECT_EQ(wrong_dim.status().code(), StatusCode::kInvalidArgument);

  // The engine stays usable with matching inputs.
  EXPECT_TRUE((*engine)->RunSamples(samples, &f.dense).ok());
}

TEST(EngineTest, RunSamplesRejectsBatchLargerThanOutputRegion) {
  // At Nc = 8 a partial sum is 32 bytes, so the 64 KiB stage-3 output
  // region holds 2048 samples. A larger batch is a capacity error the
  // caller can act on (split the batch), not a process abort.
  Fixture f = MakeFixture();
  EngineOptions options = SmallEngineOptions(partition::Method::kUniform, 8);
  // Room for the stage-1 index lists of a 2049-sample batch, so the
  // output region is the limit that binds.
  options.reserved_io_bytes = 512 * kKiB;
  auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                     f.system.get(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const TableGroup& group = (*engine)->groups()[0];
  const std::uint64_t output_bytes = group.layout.output_bytes;
  const std::size_t max_samples = output_bytes / group.plan.geom.row_bytes();
  ASSERT_EQ(max_samples, 2048u);
  std::vector<std::size_t> samples(max_samples + 1);
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i] = i % 96;
  auto over = (*engine)->RunSamples(samples, nullptr);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kCapacityExceeded)
      << over.status().ToString();
  EXPECT_NE(over.status().message().find("output"), std::string::npos)
      << over.status().ToString();
  // A batch that exactly fills the region still runs, and the engine
  // stays usable after the rejection.
  samples.pop_back();
  auto full = (*engine)->RunSamples(samples, nullptr);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->max_output_bytes, output_bytes);
}

TEST(EngineTest, PreminedCacheMatchesFreshMining) {
  Fixture f1 = MakeFixture(false);
  Fixture f2 = MakeFixture(false);
  EngineOptions options =
      SmallEngineOptions(partition::Method::kCacheAware, 4);

  // Mine once with the same GraceOptions the engine would use.
  std::vector<cache::CacheRes> premined;
  cache::GraceMiner miner(options.grace);
  for (std::uint32_t t = 0; t < f1.config.num_tables; ++t) {
    auto res = miner.Mine(f1.trace.tables[t], f1.config.rows_per_table);
    ASSERT_TRUE(res.ok());
    premined.push_back(std::move(res).value());
  }

  auto fresh = UpDlrmEngine::Create(nullptr, f1.config, f1.trace,
                                    f1.system.get(), options);
  options.premined_cache = &premined;
  auto reused = UpDlrmEngine::Create(nullptr, f2.config, f2.trace,
                                     f2.system.get(), options);
  ASSERT_TRUE(fresh.ok() && reused.ok());
  auto rf = (*fresh)->RunBatch({0, 16}, nullptr);
  auto rr = (*reused)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(rf.ok() && rr.ok());
  EXPECT_DOUBLE_EQ(rf->stages.dpu_lookup, rr->stages.dpu_lookup);
  EXPECT_DOUBLE_EQ(rf->stages.cpu_to_dpu, rr->stages.cpu_to_dpu);
}

TEST(EngineTest, PreminedCacheSizeMustMatchTables) {
  Fixture f = MakeFixture(false);
  EngineOptions options =
      SmallEngineOptions(partition::Method::kCacheAware, 4);
  std::vector<cache::CacheRes> wrong_size(1);
  options.premined_cache = &wrong_size;
  EXPECT_FALSE(UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                    f.system.get(), options)
                   .ok());
}

TEST(EngineTest, SequentialTransfersSlowerThanPadded) {
  Fixture f1 = MakeFixture(false);
  Fixture f2 = MakeFixture(false);
  EngineOptions padded =
      SmallEngineOptions(partition::Method::kNonUniform, 4);
  EngineOptions ragged = padded;
  ragged.pad_transfers = false;
  auto a = UpDlrmEngine::Create(nullptr, f1.config, f1.trace,
                                f1.system.get(), padded);
  auto b = UpDlrmEngine::Create(nullptr, f2.config, f2.trace,
                                f2.system.get(), ragged);
  ASSERT_TRUE(a.ok() && b.ok());
  auto ra = (*a)->RunBatch({0, 16}, nullptr);
  auto rb = (*b)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(ra.ok() && rb.ok());
  // NU index buffers are ragged, so the sequential path must cost more.
  EXPECT_LT(ra->stages.cpu_to_dpu, rb->stages.cpu_to_dpu);
}

TEST(EngineTest, CacheCapacityFractionShrinksCache) {
  Fixture full = MakeFixture(false);
  Fixture tiny = MakeFixture(false);
  EngineOptions options =
      SmallEngineOptions(partition::Method::kCacheAware, 4);
  auto e_full = UpDlrmEngine::Create(nullptr, full.config, full.trace,
                                     full.system.get(), options);
  options.cache_capacity_fraction = 0.3;
  auto e_tiny = UpDlrmEngine::Create(nullptr, tiny.config, tiny.trace,
                                     tiny.system.get(), options);
  ASSERT_TRUE(e_full.ok() && e_tiny.ok());
  std::size_t full_lists = 0;
  std::size_t tiny_lists = 0;
  for (const auto& g : (*e_full)->groups()) {
    full_lists += g.plan.cache.lists.size();
  }
  for (const auto& g : (*e_tiny)->groups()) {
    tiny_lists += g.plan.cache.lists.size();
  }
  EXPECT_LT(tiny_lists, full_lists);
  EXPECT_GT(full_lists, 0u);
}

}  // namespace
}  // namespace updlrm::core
