// The determinism contract of the host execution backend (DESIGN.md
// §"Host execution backend"): thread count changes wall-clock time
// only. Functional outputs, simulated latencies, mined cache lists and
// generated traces must be bit-exact at any width. These tests run the
// same configuration at 1, 2 and 4 threads on a real multi-worker pool
// and compare bytes; they carry the `tsan` ctest label so a
// -DUPDLRM_SANITIZE=thread build exercises the pool under TSan.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cache/grace.h"
#include "common/thread_pool.h"
#include "pipeline/runner.h"
#include "serve/workload.h"
#include "telemetry/tracer.h"
#include "trace/generator.h"
#include "updlrm/comparison.h"
#include "updlrm/engine.h"
#include "updlrm/scaleout.h"

namespace updlrm::core {
namespace {

// Force a real 4-worker default pool before anything touches
// ThreadPool::Default() (the CI host may report 1 hardware thread,
// which would make num_threads = 0 silently serial).
const bool g_pool_sized = [] {
  ThreadPool::SetDefaultThreads(4);
  return true;
}();

struct Fixture {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(0, 1, 0);
};

Fixture MakeFixture(bool functional, std::uint64_t seed = 31,
                    std::uint32_t dpus_per_rank = 8) {
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
  spec.name = "det";
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
  sys.dpus_per_rank = dpus_per_rank;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = functional;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();

  f.dense = dlrm::DenseInputs::Generate(96, 5, seed + 1);
  return f;
}

struct EngineRun {
  std::vector<float> pooled;
  std::vector<float> ctr;
  InferenceReport report;
};

// `replicas` > 1 runs that many whole-rank model copies on 4 ranks of 2
// DPUs, at Nc = 8 so each copy keeps one DPU per table.
EngineRun RunEngineAt(std::uint32_t threads, bool hot_path = false,
                      std::uint32_t replicas = 1) {
  Fixture f = MakeFixture(/*functional=*/true, 31,
                          /*dpus_per_rank=*/replicas > 1 ? 2 : 8);
  EngineOptions options;
  options.method = partition::Method::kCacheAware;
  options.nc = replicas > 1 ? 8 : 4;
  options.replicas = replicas;
  options.batch_size = 16;
  options.reserved_io_bytes = 128 * kKiB;
  options.grace.num_hot_items = 96;
  options.num_threads = threads;
  if (hot_path) {
    // The embedding hot-path lever: the WRAM hot-row tier.
    options.wram_cache_rows = 64;
  }
  auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                     f.system.get(), options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());

  UPDLRM_CHECK((*engine)->replicas() == replicas);

  EngineRun run;
  auto batch = (*engine)->RunBatch({0, 16}, &f.dense);
  UPDLRM_CHECK(batch.ok());
  run.pooled = std::move(batch->pooled);
  run.ctr = std::move(batch->ctr);
  // Three samples over four copies: one copy is dealt nothing.
  auto short_batch = (*engine)->RunBatch({40, 43}, &f.dense);
  UPDLRM_CHECK(short_batch.ok());
  run.pooled.insert(run.pooled.end(), short_batch->pooled.begin(),
                    short_batch->pooled.end());
  run.ctr.insert(run.ctr.end(), short_batch->ctr.begin(),
                 short_batch->ctr.end());
  auto report = (*engine)->RunAll(&f.dense);
  UPDLRM_CHECK(report.ok());
  run.report = std::move(report).value();
  return run;
}

void ExpectSameReport(const InferenceReport& a, const InferenceReport& b) {
  EXPECT_EQ(a.stages.cpu_to_dpu, b.stages.cpu_to_dpu);
  EXPECT_EQ(a.stages.dpu_lookup, b.stages.dpu_lookup);
  EXPECT_EQ(a.stages.dpu_to_cpu, b.stages.dpu_to_cpu);
  EXPECT_EQ(a.stages.cpu_aggregate, b.stages.cpu_aggregate);
  EXPECT_EQ(a.aggregate_parts.shard_reduce, b.aggregate_parts.shard_reduce);
  EXPECT_EQ(a.aggregate_parts.dram_gather, b.aggregate_parts.dram_gather);
  EXPECT_EQ(a.aggregate_parts.merge_tree, b.aggregate_parts.merge_tree);
  EXPECT_EQ(a.bottom_mlp, b.bottom_mlp);
  EXPECT_EQ(a.interaction_top, b.interaction_top);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.num_batches, b.num_batches);
  EXPECT_EQ(a.num_samples, b.num_samples);
}

TEST(DeterminismTest, EngineBitExactAcrossThreadCounts) {
  const EngineRun serial = RunEngineAt(1);
  ASSERT_FALSE(serial.pooled.empty());
  for (std::uint32_t threads : {2u, 4u, 0u}) {
    const EngineRun run = RunEngineAt(threads);
    ASSERT_EQ(run.pooled.size(), serial.pooled.size()) << threads;
    for (std::size_t i = 0; i < serial.pooled.size(); ++i) {
      ASSERT_EQ(run.pooled[i], serial.pooled[i])
          << "lane " << i << " at " << threads << " threads";
    }
    ASSERT_EQ(run.ctr, serial.ctr) << threads << " threads";
    ExpectSameReport(run.report, serial.report);
  }
}

TEST(DeterminismTest, HotPathLeversBitExactAcrossThreadCounts) {
  // WRAM pin sets are fixed at setup and routing splits each bin's
  // count per (group, bin) task into disjoint slots — enabling the
  // tier must not break the bit-exactness contract.
  const EngineRun serial = RunEngineAt(1, /*hot_path=*/true);
  ASSERT_FALSE(serial.pooled.empty());
  for (std::uint32_t threads : {2u, 4u, 0u}) {
    const EngineRun run = RunEngineAt(threads, /*hot_path=*/true);
    ASSERT_EQ(run.pooled.size(), serial.pooled.size()) << threads;
    for (std::size_t i = 0; i < serial.pooled.size(); ++i) {
      ASSERT_EQ(run.pooled[i], serial.pooled[i])
          << "lane " << i << " at " << threads << " threads";
    }
    ASSERT_EQ(run.ctr, serial.ctr) << threads << " threads";
    ExpectSameReport(run.report, serial.report);
  }
}

TEST(DeterminismTest, RankReplicasBitExactAcrossThreadCounts) {
  // Four model copies split each bin's samples by a per-bin deal that
  // reads only the batch, and merge in (replica, group, bin, col) order
  // through the slot table: thread count must not move a bit, and the
  // outputs equal the single-copy engine's.
  const EngineRun single = RunEngineAt(1);
  const EngineRun serial = RunEngineAt(1, /*hot_path=*/false, 4);
  ASSERT_EQ(serial.pooled, single.pooled);
  ASSERT_EQ(serial.ctr, single.ctr);
  for (std::uint32_t threads : {2u, 4u, 0u}) {
    const EngineRun run = RunEngineAt(threads, /*hot_path=*/false, 4);
    ASSERT_EQ(run.pooled, serial.pooled) << threads << " threads";
    ASSERT_EQ(run.ctr, serial.ctr) << threads << " threads";
    ExpectSameReport(run.report, serial.report);
  }
}

TEST(DeterminismTest, ShardedServingBitExactAcrossThreadCounts) {
  // End-to-end sharded case: statistical tiering (2 shards + DRAM
  // spill), per-shard engines, integer cross-shard merge. Functional
  // outputs and simulated times must not depend on the thread count.
  // Two DPUs per rank let every shard hold model replicas, so the
  // per-group routing and deal fan out inside the per-shard fan-out.
  auto run = [](std::uint32_t threads, std::uint32_t dpus_per_rank) {
    Fixture f = MakeFixture(/*functional=*/true, 31, dpus_per_rank);
    EngineOptions options;
    options.method = partition::Method::kCacheAware;
    options.nc = 4;
    options.batch_size = 16;
    options.reserved_io_bytes = 128 * kKiB;
    options.grace.num_hot_items = 96;
    options.num_threads = threads;
    options.check_mode = true;
    ShardedEngineConfig fleet;
    fleet.shard_system = f.system->config();
    fleet.tiering.num_shards = 2;
    // Full shards force accessed rows into host DRAM, so the DRAM fold
    // path is exercised.
    fleet.tiering.pim_capacity_rows_per_shard = 100;
    auto engine = ShardedEngine::Create(f.model.get(), f.config, f.trace,
                                        fleet, options);
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
    EXPECT_EQ((*engine)->shard(0).replicas() > 1, dpus_per_rank < 8);
    EngineRun result;
    auto batch = (*engine)->RunBatch({0, 16}, &f.dense);
    UPDLRM_CHECK(batch.ok());
    // Not vacuous: the batch gathered accessed rows from host DRAM.
    EXPECT_GT(batch->aggregate_parts.dram_gather, 0.0);
    result.pooled = std::move(batch->pooled);
    result.ctr = std::move(batch->ctr);
    auto report = (*engine)->RunAll(&f.dense);
    UPDLRM_CHECK(report.ok());
    result.report = std::move(report).value();
    UPDLRM_CHECK((*engine)->check_violations() == 0);
    return result;
  };
  for (const std::uint32_t dpus_per_rank : {8u, 2u}) {
    const EngineRun serial = run(1, dpus_per_rank);
    ASSERT_FALSE(serial.pooled.empty());
    for (std::uint32_t threads : {2u, 4u}) {
      const EngineRun threaded = run(threads, dpus_per_rank);
      ASSERT_EQ(threaded.pooled, serial.pooled) << threads << " threads";
      ASSERT_EQ(threaded.ctr, serial.ctr) << threads << " threads";
      ExpectSameReport(threaded.report, serial.report);
    }
  }
}

TEST(DeterminismTest, NestedParallelForStress) {
  // Three levels of regions opened from inside other regions' chunks on
  // every worker at once — the shape ShardedEngine::Setup nests (shard,
  // table, GRACE pair counting). Every region takes a descriptor from
  // the pool's freelist and returns it while siblings do the same, so a
  // racy freelist shows up here as a TSan report or a lost region.
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kMid = 6;
  constexpr std::size_t kInner = 16;
  std::vector<std::uint64_t> sums(kOuter * kMid * kInner);
  for (int round = 0; round < 512; ++round) {
    std::fill(sums.begin(), sums.end(), 0);
    ParallelFor(kOuter, [&](std::size_t ob, std::size_t oe) {
      for (std::size_t o = ob; o < oe; ++o) {
        ParallelFor(kMid, [&](std::size_t mb, std::size_t me) {
          for (std::size_t m = mb; m < me; ++m) {
            ParallelFor(kInner, [&](std::size_t ib, std::size_t ie) {
              for (std::size_t i = ib; i < ie; ++i) {
                sums[(o * kMid + m) * kInner + i] +=
                    round + (o * kMid + m) * kInner + i;
              }
            });
          }
        });
      }
    });
    for (std::size_t k = 0; k < sums.size(); ++k) {
      ASSERT_EQ(sums[k], round + k) << "round " << round << " slot " << k;
    }
  }
}

TEST(DeterminismTest, EndToEndPipelineBitExactAcrossThreadsAndTracing) {
  // The full request path — arrivals -> batcher -> DPU embedding run ->
  // data-flow executor -> batched bottom/interaction/top MLPs -> CTR —
  // inherits the contract: thread count and tracing change nothing but
  // wall-clock time. Every CTR float and simulated latency is compared
  // for bit equality.
  auto run = [](std::uint32_t threads, bool tracing) {
    telemetry::Tracer& tracer = telemetry::Tracer::Get();
    if (tracing) {
      tracer.Enable(telemetry::TracerOptions{});
    } else {
      tracer.Disable();
    }
    Fixture f = MakeFixture(/*functional=*/true);
    EngineOptions options;
    options.method = partition::Method::kCacheAware;
    options.nc = 4;
    options.batch_size = 16;
    options.reserved_io_bytes = 128 * kKiB;
    options.grace.num_hot_items = 96;
    options.num_threads = threads;
    auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                       f.system.get(), options);
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());

    serve::ArrivalOptions arrivals;
    arrivals.process = serve::ArrivalProcess::kPoisson;
    arrivals.qps = 1.0e6;
    arrivals.seed = 5;
    auto requests = serve::GenerateRequests(f.trace, 0, arrivals);
    UPDLRM_CHECK(requests.ok());

    pipeline::DataFlowServeOptions serve_options;
    serve_options.batcher.max_batch_size = 16;
    serve_options.batcher.max_queue_delay_ns = 1.0e6;
    serve_options.plan.depth = 2;
    serve_options.plan.bottom_split = 1;
    serve_options.num_threads = threads;
    auto result = pipeline::RunDataFlowSimulation(**engine, *requests,
                                                  &f.dense, serve_options);
    UPDLRM_CHECK_MSG(result.ok(), result.status().ToString().c_str());
    tracer.Disable();
    return std::move(result).value();
  };

  const pipeline::DataFlowServeResult serial = run(1, /*tracing=*/false);
  ASSERT_FALSE(serial.ctr.empty());
  ASSERT_EQ(serial.shed, 0u);
  struct Leg {
    std::uint32_t threads;
    bool tracing;
  };
  for (const Leg leg : {Leg{1, true}, Leg{2, false}, Leg{2, true},
                        Leg{4, false}, Leg{4, true}}) {
    const pipeline::DataFlowServeResult r = run(leg.threads, leg.tracing);
    ASSERT_EQ(r.ctr, serial.ctr)
        << leg.threads << " threads, tracing " << leg.tracing;
    ASSERT_EQ(r.request_latency_ns, serial.request_latency_ns)
        << leg.threads << " threads, tracing " << leg.tracing;
    EXPECT_EQ(r.makespan_ns, serial.makespan_ns);
    EXPECT_EQ(r.num_batches, serial.num_batches);
    EXPECT_EQ(r.utilization.host_mlp_busy_ns,
              serial.utilization.host_mlp_busy_ns);
  }
}

TEST(DeterminismTest, GraceMiningThreadCountInvariant) {
  const Fixture f = MakeFixture(/*functional=*/false);
  cache::GraceOptions options;
  options.num_hot_items = 96;
  options.min_pair_count = 2;

  options.num_threads = 1;
  auto serial = cache::GraceMiner(options).Mine(f.trace.tables[0], 600);
  ASSERT_TRUE(serial.ok());
  ASSERT_FALSE(serial->lists.empty());
  for (std::uint32_t threads : {2u, 4u}) {
    options.num_threads = threads;
    auto mined = cache::GraceMiner(options).Mine(f.trace.tables[0], 600);
    ASSERT_TRUE(mined.ok());
    ASSERT_EQ(mined->lists.size(), serial->lists.size()) << threads;
    for (std::size_t i = 0; i < serial->lists.size(); ++i) {
      EXPECT_EQ(mined->lists[i].items, serial->lists[i].items)
          << "list " << i << " at " << threads << " threads";
      EXPECT_EQ(mined->lists[i].benefit, serial->lists[i].benefit)
          << "list " << i << " at " << threads << " threads";
    }
    const cache::CacheRes rescored_serial =
        cache::ScoreCacheLists(f.trace.tables[0], 600, *serial, 1);
    const cache::CacheRes rescored =
        cache::ScoreCacheLists(f.trace.tables[0], 600, *serial, threads);
    ASSERT_EQ(rescored.lists.size(), rescored_serial.lists.size());
    for (std::size_t i = 0; i < rescored_serial.lists.size(); ++i) {
      EXPECT_EQ(rescored.lists[i].items, rescored_serial.lists[i].items);
      EXPECT_EQ(rescored.lists[i].benefit,
                rescored_serial.lists[i].benefit);
    }
  }
}

TEST(DeterminismTest, TraceGenerationThreadCountInvariant) {
  trace::DatasetSpec spec;
  spec.name = "det";
  spec.num_items = 2000;
  spec.avg_reduction = 20.0;
  spec.zipf_alpha = 1.05;
  spec.rank_jitter = 0.2;
  spec.clique_prob = 0.4;
  spec.num_hot_items = 256;
  spec.seed = 77;
  trace::TraceGeneratorOptions options;
  options.num_samples = 256;
  options.num_tables = 6;

  options.num_threads = 1;
  auto serial = trace::TraceGenerator(spec).Generate(options);
  ASSERT_TRUE(serial.ok());
  for (std::uint32_t threads : {4u, 0u}) {
    options.num_threads = threads;
    auto parallel = trace::TraceGenerator(spec).Generate(options);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->tables.size(), serial->tables.size());
    for (std::size_t t = 0; t < serial->tables.size(); ++t) {
      ASSERT_TRUE(std::ranges::equal(parallel->tables[t].indices(),
                                     serial->tables[t].indices()))
          << "table " << t << " at " << threads << " threads";
      ASSERT_TRUE(std::ranges::equal(parallel->tables[t].offsets(),
                                     serial->tables[t].offsets()))
          << "table " << t << " at " << threads << " threads";
    }
  }
}

TEST(DeterminismTest, ComparisonThreadCountInvariant) {
  auto run = [](std::uint32_t threads) {
    const Fixture f = MakeFixture(/*functional=*/false);
    ComparisonOptions options;
    options.batch_size = 16;
    options.engine.nc = 4;
    options.engine.reserved_io_bytes = 128 * kKiB;
    options.engine.grace.num_hot_items = 96;
    options.system.num_dpus = 8;
    options.system.dpus_per_rank = 8;
    options.system.dpu.mram_bytes = 1 * kMiB;
    options.num_threads = threads;
    auto comparison = CompareSystems(f.config, f.trace, options);
    UPDLRM_CHECK_MSG(comparison.ok(),
                     comparison.status().ToString().c_str());
    return std::move(comparison).value();
  };
  const SystemComparison serial = run(1);
  const SystemComparison parallel = run(0);
  EXPECT_EQ(parallel.dlrm_cpu.AvgBatchTotal(),
            serial.dlrm_cpu.AvgBatchTotal());
  EXPECT_EQ(parallel.dlrm_hybrid.AvgBatchTotal(),
            serial.dlrm_hybrid.AvgBatchTotal());
  EXPECT_EQ(parallel.fae.AvgBatchTotal(), serial.fae.AvgBatchTotal());
  EXPECT_EQ(parallel.fae_hot_fraction, serial.fae_hot_fraction);
  ExpectSameReport(parallel.updlrm, serial.updlrm);
  EXPECT_EQ(parallel.nc, serial.nc);
}

}  // namespace
}  // namespace updlrm::core
