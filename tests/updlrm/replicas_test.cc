// Rank replicas (EngineOptions::replicas): R whole-rank copies of the
// model, each serving ⌈batch/R⌉ samples of every bin, dealt per bin by
// LPT. Pooled outputs and CTRs stay bit-exact against DlrmModel (so
// against R = 1) at every R and thread count, in both stage-1 wire
// formats, with the WRAM tier on and off, also when some replicas are
// dealt no samples; the deal is thread-count invariant and keeps each
// bin's copy loads within one sample of each other; check mode stays
// clean; LocateDpu inverts the replica DPU map; the optimizer's R falls
// back to a smaller copy when a larger one does not fit MRAM; and
// malformed replica settings return a Status.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "telemetry/tracer.h"
#include "trace/generator.h"
#include "updlrm/engine.h"
#include "updlrm/scaleout.h"
#include "updlrm/timeline.h"

namespace updlrm::core {
namespace {

struct Fixture {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(0, 1, 0);
};

// Two tables of `rows` rows; 128 samples so a 64-sample batch can start
// anywhere in the first half.
Fixture MakeFixture(bool functional, std::uint64_t rows = 600) {
  Fixture f;
  f.config.num_tables = 2;
  f.config.rows_per_table = rows;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  f.config.seed = 53;
  if (functional) {
    auto model = dlrm::DlrmModel::Create(f.config);
    UPDLRM_CHECK(model.ok());
    f.model = std::make_unique<dlrm::DlrmModel>(std::move(model).value());
  }
  trace::DatasetSpec spec;
  spec.name = "replicas";
  spec.num_items = rows;
  spec.avg_reduction = 12.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = 53;
  trace::TraceGeneratorOptions options;
  options.num_samples = 128;
  options.num_tables = 2;
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  f.trace = std::move(t).value();
  f.dense = dlrm::DenseInputs::Generate(128, 5, 54);
  return f;
}

// 16 DPUs in 4 ranks: R can be 1, 2 or 4.
std::unique_ptr<pim::DpuSystem> MakeSystem(bool functional,
                                           std::uint32_t num_dpus = 16,
                                           std::uint32_t dpus_per_rank = 4) {
  pim::DpuSystemConfig sys;
  sys.num_dpus = num_dpus;
  sys.dpus_per_rank = dpus_per_rank;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = functional;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  return std::move(system).value();
}

EngineOptions ReplicaOptions(partition::Method method,
                             std::uint32_t replicas) {
  EngineOptions options;
  options.method = method;
  options.replicas = replicas;
  options.batch_size = 64;
  options.reserved_io_bytes = 128 * kKiB;
  options.grace.num_hot_items = 96;
  return options;
}

class ReplicaEquivalence
    : public ::testing::TestWithParam<
          std::tuple<partition::Method, std::uint32_t, bool, bool>> {};

TEST_P(ReplicaEquivalence, PooledAndCtrBitExactAtEveryThreadCount) {
  const auto [method, replicas, packed, wram] = GetParam();
  Fixture f = MakeFixture(/*functional=*/true);
  const std::size_t width = 2 * 8;
  std::vector<float> want(width);
  for (const std::uint32_t threads : {1U, 2U, 4U}) {
    auto system = MakeSystem(/*functional=*/true);
    EngineOptions options = ReplicaOptions(method, replicas);
    options.num_threads = threads;
    // The functional kernel decodes every slot and offset from the
    // wire image, so a codec fault breaks the comparison below.
    options.packed_indices = packed;
    // The tier re-weights the deal (a hit weighs less than a read).
    options.wram_cache_rows = wram ? kWramRowsAsFit : 0;
    auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                       system.get(), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_EQ((*engine)->replicas(), replicas);
    // 1 and 5 samples leave replicas without samples at R = 4; 63 makes
    // the last chunk short.
    for (const std::size_t n : {1U, 5U, 63U, 64U}) {
      const trace::BatchRange range{7, 7 + n};
      auto got = (*engine)->RunBatch(range, &f.dense);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->pooled.size(), n * width);
      for (std::size_t i = 0; i < n; ++i) {
        f.model->PooledEmbeddingsFixed(f.trace, range.begin + i, want);
        for (std::size_t k = 0; k < width; ++k) {
          ASSERT_EQ(got->pooled[i * width + k], want[k])
              << "R " << replicas << " threads " << threads << " batch "
              << n << " sample " << i << " lane " << k;
        }
      }
      EXPECT_EQ(got->ctr,
                f.model->ForwardBatch(f.dense, f.trace, range, true))
          << "R " << replicas << " threads " << threads << " batch " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndReplicas, ReplicaEquivalence,
    ::testing::Combine(::testing::Values(partition::Method::kUniform,
                                         partition::Method::kNonUniform,
                                         partition::Method::kCacheAware),
                       ::testing::Values(1U, 2U, 4U),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(partition::MethodShortName(
                 std::get<0>(info.param))) +
             "_r" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_packed" : "_paper") +
             (std::get<3>(info.param) ? "_wram" : "_nowram");
    });

// Per-(replica, table, bin) launch work of one traced batch.
std::vector<pim::EmbeddingKernelWork> TracedWork(UpDlrmEngine& engine,
                                                 trace::BatchRange range) {
  telemetry::Tracer::Get().Enable();
  auto batch = engine.RunBatch(range, nullptr);
  telemetry::Tracer::Get().Disable();
  UPDLRM_CHECK(batch.ok() && batch->dpu_trace != nullptr);
  std::vector<pim::EmbeddingKernelWork> work;
  for (const DpuTraceSlice& slice : batch->dpu_trace->slices) {
    work.push_back(slice.work);
  }
  return work;
}

bool SameWork(const pim::EmbeddingKernelWork& a,
              const pim::EmbeddingKernelWork& b) {
  return a.num_lookups == b.num_lookups &&
         a.num_cache_reads == b.num_cache_reads &&
         a.num_wram_hits == b.num_wram_hits &&
         a.num_samples == b.num_samples;
}

TEST(ReplicaTest, DealIsThreadCountInvariant) {
  Fixture f = MakeFixture(/*functional=*/false);
  for (const partition::Method method :
       {partition::Method::kNonUniform, partition::Method::kCacheAware}) {
    std::vector<pim::EmbeddingKernelWork> at_one;
    for (const std::uint32_t threads : {1U, 2U, 4U}) {
      auto system = MakeSystem(/*functional=*/false);
      EngineOptions options = ReplicaOptions(method, 4);
      options.num_threads = threads;
      auto engine = UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                         system.get(), options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      std::vector<pim::EmbeddingKernelWork> work;
      for (const std::size_t n : {5U, 63U, 64U}) {
        const auto batch = TracedWork(**engine, {9, 9 + n});
        work.insert(work.end(), batch.begin(), batch.end());
      }
      if (threads == 1) {
        at_one = work;
        continue;
      }
      ASSERT_EQ(work.size(), at_one.size());
      for (std::size_t i = 0; i < work.size(); ++i) {
        EXPECT_TRUE(SameWork(work[i], at_one[i]))
            << "threads " << threads << " slice " << i;
      }
    }
  }
}

// LPT's bound on a full batch: within each (table, bin), the heaviest
// copy carries at most one sample's weight more than the lightest.
TEST(ReplicaTest, DealKeepsEachBinsCopiesWithinOneSample) {
  Fixture f = MakeFixture(/*functional=*/false);
  for (const partition::Method method :
       {partition::Method::kUniform, partition::Method::kNonUniform,
        partition::Method::kCacheAware}) {
    auto system = MakeSystem(/*functional=*/false);
    auto engine = UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                       system.get(),
                                       ReplicaOptions(method, 4));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const auto& cost = system->config().kernel_cost;
    const std::uint32_t row_bytes = (*engine)->nc() * 4;
    auto weight = [&](const pim::EmbeddingKernelWork& w) {
      return (w.num_lookups + w.num_cache_reads) *
                 cost.ReadIssueCycles(row_bytes) +
             w.num_wram_hits * cost.WramHitIssueCycles(row_bytes);
    };
    const std::size_t first = 17;
    const std::size_t n = 64;
    const auto full = TracedWork(**engine, {first, first + n});
    const std::size_t bins = full.size() / 4;
    // A one-sample batch lands whole on replica 0: its first `bins`
    // slices are that sample's per-bin work.
    std::vector<std::uint64_t> heaviest(bins, 0);
    for (std::size_t i = first; i < first + n; ++i) {
      const auto one = TracedWork(**engine, {i, i + 1});
      for (std::size_t b = 0; b < bins; ++b) {
        heaviest[b] = std::max(heaviest[b], weight(one[b]));
      }
    }
    for (std::size_t b = 0; b < bins; ++b) {
      std::uint64_t lo = ~std::uint64_t{0};
      std::uint64_t hi = 0;
      for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_EQ(full[r * bins + b].num_samples, n / 4);
        lo = std::min(lo, weight(full[r * bins + b]));
        hi = std::max(hi, weight(full[r * bins + b]));
      }
      EXPECT_LE(hi - lo, heaviest[b])
          << partition::MethodShortName(method) << " bin " << b;
    }
    EXPECT_GT(bins, 0u);
  }
}

TEST(ReplicaTest, CheckModeCleanAtFourReplicas) {
  Fixture f = MakeFixture(/*functional=*/true);
  for (const partition::Method method :
       {partition::Method::kUniform, partition::Method::kNonUniform,
        partition::Method::kCacheAware}) {
    // Packed index DMAs are 3 x index_chunk bytes, paper ones 4 x.
    for (const bool packed : {true, false}) {
      auto system = MakeSystem(/*functional=*/true);
      EngineOptions options = ReplicaOptions(method, 4);
      options.check_mode = true;
      options.packed_indices = packed;
      auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                         system.get(), options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      for (const std::size_t n : {5U, 64U}) {
        ASSERT_TRUE((*engine)->RunBatch({0, n}, &f.dense).ok());
      }
      EXPECT_EQ((*engine)->check_violations(), 0u)
          << (*engine)->check_report()->ToString();
    }
  }
}

TEST(ReplicaTest, LocateDpuRoundTripsAcrossReplicas) {
  Fixture f = MakeFixture(/*functional=*/false);
  auto system = MakeSystem(/*functional=*/false);
  auto engine = UpDlrmEngine::Create(
      nullptr, f.config, f.trace, system.get(),
      ReplicaOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const UpDlrmEngine& e = **engine;
  ASSERT_EQ(e.replicas(), 4u);
  std::vector<bool> seen(system->num_dpus(), false);
  for (std::uint32_t r = 0; r < e.replicas(); ++r) {
    for (const TableGroup& group : e.groups()) {
      const auto& geom = group.plan.geom;
      for (std::uint32_t b = 0; b < geom.row_shards; ++b) {
        for (std::uint32_t c = 0; c < geom.col_shards; ++c) {
          const std::uint32_t dpu = e.ReplicaDpu(r, group, b, c);
          ASSERT_LT(dpu, system->num_dpus());
          EXPECT_FALSE(seen[dpu]) << "DPU " << dpu << " serves twice";
          seen[dpu] = true;
          const auto loc = e.LocateDpu(dpu);
          ASSERT_TRUE(loc.has_value());
          EXPECT_EQ(loc->replica, r);
          EXPECT_EQ(loc->table, group.table_index);
          EXPECT_EQ(loc->bin, b);
          EXPECT_EQ(loc->col, c);
        }
      }
    }
  }
  EXPECT_FALSE(e.LocateDpu(system->num_dpus()).has_value());
}

TEST(ReplicaTest, TraceSlicesNameTheirReplica) {
  Fixture f = MakeFixture(/*functional=*/false);
  auto system = MakeSystem(/*functional=*/false);
  auto engine = UpDlrmEngine::Create(
      nullptr, f.config, f.trace, system.get(),
      ReplicaOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  telemetry::Tracer::Get().Enable();
  auto batch = (*engine)->RunBatch({0, 5}, nullptr);  // chunks 2, 2, 1, 0
  telemetry::Tracer::Get().Disable();
  ASSERT_TRUE(batch.ok());
  ASSERT_NE(batch->dpu_trace, nullptr);
  const BatchDpuTrace& trace = *batch->dpu_trace;
  const std::size_t per_replica = trace.slices.size() / 4;
  for (std::size_t i = 0; i < trace.slices.size(); ++i) {
    const DpuTraceSlice& s = trace.slices[i];
    EXPECT_EQ(s.replica, i / per_replica);
    const auto loc = (*engine)->LocateDpu(s.first_dpu);
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(loc->replica, s.replica);
    EXPECT_EQ(loc->table, s.table);
    EXPECT_EQ(loc->bin, s.bin);
    // The last replica was dealt nothing and launched nothing.
    EXPECT_EQ(s.work.num_samples, s.replica == 3 ? 0u : s.replica == 2 ? 1u
                                                                      : 2u);
  }
  EXPECT_LT(trace.slices[trace.straggler].replica, 3u);
}

TEST(ReplicaTest, ReplicasShrinkThePullAndTheAggregate) {
  Fixture f = MakeFixture(/*functional=*/false);
  BatchResult at[3];
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto system = MakeSystem(/*functional=*/false);
    EngineOptions options =
        ReplicaOptions(partition::Method::kUniform, 1U << i);
    options.nc = 8;
    auto engine = UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                       system.get(), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto batch = (*engine)->RunBatch({0, 64}, nullptr);
    ASSERT_TRUE(batch.ok());
    at[i] = *batch;
  }
  for (std::uint32_t i = 1; i < 3; ++i) {
    // Every DPU pulls batch / R partial rows.
    EXPECT_EQ(at[i].partial_bytes * (1U << i), at[0].partial_bytes);
    EXPECT_LT(at[i].stages.dpu_to_cpu, at[i - 1].stages.dpu_to_cpu);
    EXPECT_LT(at[i].stages.cpu_aggregate, at[i - 1].stages.cpu_aggregate);
  }
}

TEST(ReplicaTest, OptimizerPicksTheLargestReplicaCount) {
  Fixture f = MakeFixture(/*functional=*/false);
  auto system = MakeSystem(/*functional=*/false);
  auto engine = UpDlrmEngine::Create(
      nullptr, f.config, f.trace, system.get(),
      ReplicaOptions(partition::Method::kUniform, 0));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->replicas(), 4u);
  ASSERT_TRUE((*engine)->tile_optimization().has_value());
  EXPECT_EQ((*engine)->tile_optimization()->best.replicas, 4u);
  EXPECT_EQ((*engine)->tile_optimization()->best.nc, (*engine)->nc());
}

// 40,000 rows with half of each 1 MiB bank reserved for I/O: at R = 4 a
// bin holds 20,000 rows, inside Eq. 2's 32,768-row bound at Nc = 8 but
// beyond the 512 KiB left for the EMT. R = 2 halves the bin.
constexpr std::uint64_t kTightRows = 40'000;

EngineOptions TightOptions(std::uint32_t replicas) {
  EngineOptions options =
      ReplicaOptions(partition::Method::kUniform, replicas);
  options.reserved_io_bytes = 512 * kKiB;
  return options;
}

TEST(ReplicaTest, FallsBackToTheReplicaCountThatFits) {
  Fixture f = MakeFixture(/*functional=*/false, kTightRows);
  auto system = MakeSystem(/*functional=*/false);
  auto engine = UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                     system.get(), TightOptions(0));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->replicas(), 2u);
  // The optimizer ranked a 4-copy tile first; Setup built the next best.
  const auto& tile = *(*engine)->tile_optimization();
  bool priced_four = false;
  for (const auto& cand : tile.candidates) {
    priced_four = priced_four || cand.replicas == 4;
  }
  EXPECT_TRUE(priced_four);
  EXPECT_EQ(tile.best.replicas, 2u);
  EXPECT_TRUE((*engine)->RunBatch({0, 64}, nullptr).ok());
}

TEST(ReplicaTest, PinnedReplicasThatDoNotFitReportCapacity) {
  Fixture f = MakeFixture(/*functional=*/false, kTightRows);
  auto system = MakeSystem(/*functional=*/false);
  auto engine = UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                     system.get(), TightOptions(4));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kCapacityExceeded)
      << engine.status().ToString();
  // Pinning Nc too skips the optimizer; the plan's capacity check fails.
  EngineOptions pinned = TightOptions(4);
  pinned.nc = 8;
  auto both = UpDlrmEngine::Create(nullptr, f.config, f.trace, system.get(),
                                   pinned);
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kCapacityExceeded)
      << both.status().ToString();
}

TEST(ReplicaTest, CreateRejectsANullSystem) {
  Fixture f = MakeFixture(/*functional=*/false);
  auto engine = UpDlrmEngine::Create(
      nullptr, f.config, f.trace, nullptr,
      ReplicaOptions(partition::Method::kUniform, 0));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReplicaTest, PinnedReplicasMustDivideTheRanks) {
  Fixture f = MakeFixture(/*functional=*/false);
  auto system = MakeSystem(/*functional=*/false);
  auto engine = UpDlrmEngine::Create(
      nullptr, f.config, f.trace, system.get(),
      ReplicaOptions(partition::Method::kUniform, 3));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument)
      << engine.status().ToString();
}

TEST(ReplicaTest, PinnedReplicasNeedADpuPerTable) {
  // 4 ranks of one DPU: 4 copies would leave one DPU for two tables.
  Fixture f = MakeFixture(/*functional=*/false);
  auto system = MakeSystem(/*functional=*/false, /*num_dpus=*/4,
                           /*dpus_per_rank=*/1);
  auto engine = UpDlrmEngine::Create(
      nullptr, f.config, f.trace, system.get(),
      ReplicaOptions(partition::Method::kUniform, 4));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument)
      << engine.status().ToString();
}

TEST(ReplicaTest, ShardedEngineReplicatesEveryShard) {
  Fixture f = MakeFixture(/*functional=*/true);
  ShardedEngineConfig fleet;
  pim::DpuSystemConfig shard;
  shard.num_dpus = 16;
  shard.dpus_per_rank = 4;
  shard.dpu.mram_bytes = 1 * kMiB;
  shard.functional = true;
  fleet.shard_system = shard;
  fleet.tiering.num_shards = 2;
  EngineOptions options = ReplicaOptions(partition::Method::kCacheAware, 0);
  options.check_mode = true;
  auto sharded =
      ShardedEngine::Create(f.model.get(), f.config, f.trace, fleet, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  for (std::uint32_t s = 0; s < (*sharded)->num_shards(); ++s) {
    EXPECT_GT((*sharded)->shard(s).replicas(), 1u);
  }
  const std::size_t width = 2 * 8;
  std::vector<float> want(width);
  for (const std::size_t n : {5U, 64U}) {
    const trace::BatchRange range{3, 3 + n};
    auto got = (*sharded)->RunBatch(range, &f.dense);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (std::size_t i = 0; i < n; ++i) {
      f.model->PooledEmbeddingsFixed(f.trace, range.begin + i, want);
      EXPECT_TRUE(std::equal(want.begin(), want.end(),
                             got->pooled.begin() + i * width))
          << "sample " << i;
    }
    EXPECT_EQ(got->ctr, f.model->ForwardBatch(f.dense, f.trace, range, true));
  }
  EXPECT_EQ((*sharded)->check_violations(), 0u);
}

}  // namespace
}  // namespace updlrm::core
