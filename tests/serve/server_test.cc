// End-to-end serving simulation: open-loop arrivals -> batcher ->
// engine -> pipelined executor -> metrics, on a small timing-only
// system.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "trace/generator.h"

namespace updlrm::serve {
namespace {

struct Fixture {
  dlrm::DlrmConfig config;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  std::unique_ptr<core::UpDlrmEngine> engine;
};

Fixture MakeFixture(std::size_t samples = 128) {
  Fixture f;
  f.config.num_tables = 2;
  f.config.rows_per_table = 600;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  f.config.seed = 31;

  trace::DatasetSpec spec;
  spec.name = "serve";
  spec.num_items = 600;
  spec.avg_reduction = 12.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = 31;
  trace::TraceGeneratorOptions options;
  options.num_samples = samples;
  options.num_tables = 2;
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  f.trace = std::move(t).value();

  pim::DpuSystemConfig sys;
  sys.num_dpus = 8;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = false;  // timing-only: serving needs latencies only
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();

  core::EngineOptions engine_options;
  engine_options.method = partition::Method::kCacheAware;
  engine_options.nc = 4;
  engine_options.batch_size = 16;
  engine_options.reserved_io_bytes = 128 * kKiB;
  engine_options.grace.num_hot_items = 96;
  auto engine =
      core::UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                 f.system.get(), engine_options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  f.engine = std::move(engine).value();
  return f;
}

std::vector<Request> Arrivals(const trace::Trace& trace, double qps,
                              ArrivalProcess process =
                                  ArrivalProcess::kPoisson,
                              std::uint64_t seed = 1) {
  ArrivalOptions options;
  options.process = process;
  options.qps = qps;
  options.seed = seed;
  auto requests = GenerateRequests(trace, 0, options);
  UPDLRM_CHECK(requests.ok());
  return std::move(requests).value();
}

TEST(ServerTest, LowLoadServesSingletonBatchesAtTheDeadline) {
  Fixture f = MakeFixture();
  // 100 QPS: 10 ms between requests, far above per-batch service time,
  // so every request is cut alone when its 1 ms batching delay expires.
  const auto requests =
      Arrivals(f.trace, 100.0, ArrivalProcess::kUniform);
  ServeOptions options;
  options.batcher.max_batch_size = 16;
  options.batcher.max_queue_delay_ns = 1.0e6;
  auto result = RunServeSimulation(*f.engine, requests, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->completed, requests.size());
  EXPECT_EQ(result->shed, 0u);
  EXPECT_EQ(result->num_batches, requests.size());
  EXPECT_DOUBLE_EQ(result->avg_batch_size, 1.0);
  ASSERT_EQ(result->request_latency_ns.size(), requests.size());
  for (std::size_t b = 0; b < result->num_batches; ++b) {
    // Latency = batching delay + the batch's own serial embedding time
    // (the executor is idle between such widely spaced batches).
    EXPECT_NEAR(result->request_latency_ns[b],
                1.0e6 + result->schedule[b].stages.EmbeddingTotal(), 1.0)
        << b;
  }
  // At 1% duty cycle the DPUs are mostly idle.
  EXPECT_LT(result->utilization.DpuUtilization(), 0.25);
}

TEST(ServerTest, HighLoadFillsBatchesAndPipelines) {
  Fixture f = MakeFixture();
  // All 128 requests arrive within ~1.3 µs: total overload, so the
  // batcher always cuts full batches the moment a buffer pair frees.
  const auto requests =
      Arrivals(f.trace, 1.0e8, ArrivalProcess::kUniform);
  ServeOptions options;
  options.batcher.max_batch_size = 16;
  options.batcher.max_queue_delay_ns = 1.0e6;
  auto result = RunServeSimulation(*f.engine, requests, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completed, 128u);
  EXPECT_EQ(result->shed, 0u);
  EXPECT_EQ(result->num_batches, 8u);  // 128 / 16, all full
  EXPECT_DOUBLE_EQ(result->avg_batch_size, 16.0);
  // Back-to-back batches: the executed makespan respects the true
  // lower bounds of any schedule for this batch sequence...
  Nanos host = 0.0, dpu = 0.0;
  for (const auto& b : result->schedule) {
    host += b.stages.cpu_to_dpu + b.stages.dpu_to_cpu +
            b.stages.cpu_aggregate;
    dpu += b.stages.dpu_lookup;
  }
  const Nanos fill = result->schedule.front().stages.cpu_to_dpu;
  const Nanos drain = result->schedule.back().stages.dpu_to_cpu +
                      result->schedule.back().stages.cpu_aggregate;
  EXPECT_GE(result->makespan_ns, host);
  EXPECT_GE(result->makespan_ns, fill + dpu + drain);
  // ...and with full batches always ready, some resource is busy from
  // the last arrival on: makespan <= arrival span + serial work.
  Nanos serial = 0.0;
  for (const auto& b : result->schedule) serial += b.stages.EmbeddingTotal();
  EXPECT_LE(result->makespan_ns,
            requests.back().arrival_ns + serial + 1.0);
  EXPECT_EQ(result->request_latency_ns.size(), result->completed);
}

TEST(ServerTest, BoundedQueueShedsUnderOverload) {
  Fixture f = MakeFixture();
  const auto requests = Arrivals(f.trace, 1.0e8);  // 10 ns gaps
  ServeOptions options;
  options.batcher.max_batch_size = 8;
  options.batcher.max_queue_delay_ns = 1.0e5;
  options.batcher.queue_capacity = 8;
  options.batcher.policy = AdmissionPolicy::kShed;
  auto result = RunServeSimulation(*f.engine, requests, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->shed, 0u);
  EXPECT_EQ(result->completed + result->shed, result->offered);
  EXPECT_LE(result->max_queue_depth, 8u);
  ASSERT_EQ(result->request_latency_ns.size(), result->completed);
  // Admission control bounds the tail: nothing waits longer than the
  // queue delay plus the in-flight pipeline window.
  Nanos worst_batch = 0.0;
  for (const auto& b : result->schedule) {
    worst_batch = std::max(worst_batch, b.stages.EmbeddingTotal());
  }
  EXPECT_LE(NearestRank(result->request_latency_ns, 100.0),
            options.batcher.max_queue_delay_ns + 3.0 * worst_batch);
}

TEST(ServerTest, BlockPolicyServesEveryRequest) {
  Fixture f = MakeFixture();
  const auto requests = Arrivals(f.trace, 1.0e8);
  ServeOptions options;
  options.batcher.max_batch_size = 8;
  options.batcher.max_queue_delay_ns = 1.0e5;
  options.batcher.queue_capacity = 8;
  options.batcher.policy = AdmissionPolicy::kBlock;
  auto result = RunServeSimulation(*f.engine, requests, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->shed, 0u);
  EXPECT_EQ(result->completed, result->offered);
}

TEST(ServerTest, RecordsQueueDepthTimeSeries) {
  Fixture f = MakeFixture();
  const auto requests = Arrivals(f.trace, 1.0e6);
  ServeOptions options;
  options.batcher.max_batch_size = 16;
  auto result = RunServeSimulation(*f.engine, requests, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->queue_depth.size(), result->num_batches);
  for (std::size_t i = 1; i < result->queue_depth.size(); ++i) {
    EXPECT_GE(result->queue_depth[i].t_ns,
              result->queue_depth[i - 1].t_ns);
  }
  EXPECT_EQ(result->schedule.size(), result->num_batches);
}

// The report's statistics are exact over the kept per-request
// latencies: nearest-rank percentiles, the in-order mean, the max.
TEST(ServerTest, MakeSloReportJudgesTailAgainstSlo) {
  Fixture f = MakeFixture();
  const auto requests = Arrivals(f.trace, 1.0e6);
  ServeOptions options;
  options.batcher.max_batch_size = 16;
  auto result = RunServeSimulation(*f.engine, requests, options);
  ASSERT_TRUE(result.ok());
  const std::vector<Nanos>& latency = result->request_latency_ns;
  ASSERT_FALSE(latency.empty());
  const SloReport strict =
      result->MakeSloReport(1.0e6, NearestRank(latency, 50.0));
  const SloReport loose =
      result->MakeSloReport(1.0e6, NearestRank(latency, 100.0) + 1.0);
  EXPECT_FALSE(strict.slo_met);  // p99 above the median SLO
  EXPECT_TRUE(loose.slo_met);
  EXPECT_GT(loose.achieved_qps, 0.0);
  EXPECT_EQ(loose.completed, result->completed);
  EXPECT_EQ(loose.p50_ns, NearestRank(latency, 50.0));
  EXPECT_EQ(loose.p95_ns, NearestRank(latency, 95.0));
  EXPECT_EQ(loose.p99_ns, NearestRank(latency, 99.0));
  Nanos sum = 0.0;
  for (const Nanos l : latency) sum += l;
  EXPECT_EQ(loose.mean_ns, sum / static_cast<double>(latency.size()));
  EXPECT_EQ(loose.max_ns,
            *std::max_element(latency.begin(), latency.end()));
}

// Options the batcher or the buffer window cannot run are rejected
// before the loop starts, not by a process abort.
TEST(ServerTest, RejectsZeroPipelineDepth) {
  Fixture f = MakeFixture(16);
  ServeOptions options;
  options.pipeline_depth = 0;
  auto result = RunServeSimulation(
      *f.engine, Arrivals(f.trace, 1.0e6), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, RejectsZeroMaxBatchSize) {
  Fixture f = MakeFixture(16);
  ServeOptions options;
  options.batcher.max_batch_size = 0;
  auto result = RunServeSimulation(
      *f.engine, Arrivals(f.trace, 1.0e6), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, RejectsNegativeMaxQueueDelay) {
  Fixture f = MakeFixture(16);
  ServeOptions options;
  options.batcher.max_queue_delay_ns = -1.0;
  auto result = RunServeSimulation(
      *f.engine, Arrivals(f.trace, 1.0e6), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, RejectsRequestsOutsideTheTrace) {
  Fixture f = MakeFixture();
  const std::vector<Request> requests = {
      Request{0, f.trace.num_samples(), 0.0}};
  ServeOptions options;
  auto result = RunServeSimulation(*f.engine, requests, options);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace updlrm::serve
