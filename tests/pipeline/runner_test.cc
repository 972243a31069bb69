// Full-path serving simulation: arrivals -> batcher -> engine embedding
// run -> data-flow executor -> CTR outputs + tail metrics, with the
// check-mode audits riding along.
#include "pipeline/runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/dataflow_audit.h"
#include "trace/generator.h"

namespace updlrm::pipeline {
namespace {

struct Fixture {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  std::unique_ptr<core::UpDlrmEngine> engine;
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(0, 1, 0);
};

Fixture MakeFixture(bool functional, std::size_t samples = 96) {
  Fixture f;
  f.config.num_tables = 2;
  f.config.rows_per_table = 600;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  f.config.seed = 31;
  if (functional) {
    auto model = dlrm::DlrmModel::Create(f.config);
    UPDLRM_CHECK(model.ok());
    f.model = std::make_unique<dlrm::DlrmModel>(std::move(model).value());
  }

  trace::DatasetSpec spec;
  spec.name = "flow";
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
  sys.functional = functional;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();

  core::EngineOptions engine_options;
  engine_options.method = partition::Method::kCacheAware;
  engine_options.nc = 4;
  engine_options.batch_size = 16;
  engine_options.reserved_io_bytes = 128 * kKiB;
  engine_options.grace.num_hot_items = 96;
  auto engine = core::UpDlrmEngine::Create(f.model.get(), f.config,
                                           f.trace, f.system.get(),
                                           engine_options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  f.engine = std::move(engine).value();
  f.dense = dlrm::DenseInputs::Generate(samples, 5, 32);
  return f;
}

std::vector<serve::Request> Arrivals(const trace::Trace& trace, double qps,
                                     std::uint64_t seed = 1) {
  serve::ArrivalOptions options;
  options.process = serve::ArrivalProcess::kPoisson;
  options.qps = qps;
  options.seed = seed;
  auto requests = serve::GenerateRequests(trace, 0, options);
  UPDLRM_CHECK(requests.ok());
  return std::move(requests).value();
}

DataFlowServeOptions BaseOptions() {
  DataFlowServeOptions options;
  options.batcher.max_batch_size = 16;
  options.batcher.max_queue_delay_ns = 1.0e6;
  options.plan.depth = 2;
  options.plan.bottom_split = 1;
  return options;
}

TEST(RunnerTest, ServesEveryRequestWithFullPathLatencies) {
  Fixture f = MakeFixture(/*functional=*/false);
  const auto requests = Arrivals(f.trace, 1.0e6);
  auto result = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      BaseOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->completed, requests.size());
  EXPECT_EQ(result->shed, 0u);
  EXPECT_TRUE(result->ctr.empty());  // timing-only engine
  ASSERT_EQ(result->schedule.size(), result->num_batches);
  // Full-path completion: every batch's done instant is its top end,
  // strictly after the stage-3 end that the embedding-only server
  // would report.
  for (const auto& b : result->schedule) {
    EXPECT_GT(b.done_ns, b.s3_end_ns);
    EXPECT_DOUBLE_EQ(b.done_ns, b.top_end_ns);
  }
  EXPECT_GT(result->utilization.host_mlp_busy_ns, 0.0);
  // The core lane also aggregates, so its busy time exceeds the dense
  // part.
  EXPECT_GT(result->utilization.host_core_busy_ns,
            result->utilization.host_mlp_busy_ns);
  EXPECT_DOUBLE_EQ(result->utilization.gpu_busy_ns, 0.0);
  EXPECT_EQ(result->latency.count(), result->completed);
}

TEST(RunnerTest, CtrMatchesTheReferenceModelExactly) {
  Fixture f = MakeFixture(/*functional=*/true);
  const auto requests = Arrivals(f.trace, 1.0e6);
  auto result = RunDataFlowSimulation(*f.engine, requests, &f.dense,
                                      BaseOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->ctr.size(), requests.size());
  // Nothing shed and the batcher is FIFO, so CTR order is request
  // order. Reference: the model's fixed-point embedding forward.
  std::vector<float> pooled(
      static_cast<std::size_t>(f.config.num_tables) *
      f.config.embedding_dim);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::size_t s = requests[i].sample;
    f.model->PooledEmbeddingsFixed(f.trace, s, pooled);
    const float expected =
        f.model->ForwardSample(f.dense.Sample(s), pooled);
    ASSERT_EQ(result->ctr[i], expected) << "request " << i;
  }
}

TEST(RunnerTest, CtrBitExactAcrossThreadCounts) {
  Fixture f = MakeFixture(/*functional=*/true);
  const auto requests = Arrivals(f.trace, 1.0e6);
  DataFlowServeOptions options = BaseOptions();
  options.num_threads = 1;
  auto serial = RunDataFlowSimulation(*f.engine, requests, &f.dense,
                                      options);
  ASSERT_TRUE(serial.ok());
  for (const std::uint32_t threads : {2u, 4u}) {
    options.num_threads = threads;
    auto run = RunDataFlowSimulation(*f.engine, requests, &f.dense,
                                     options);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run->ctr, serial->ctr) << threads << " threads";
    ASSERT_EQ(run->request_latency_ns, serial->request_latency_ns)
        << threads << " threads";
    EXPECT_EQ(run->makespan_ns, serial->makespan_ns);
  }
}

TEST(RunnerTest, LegalPlanPassesEveryAudit) {
  Fixture f = MakeFixture(/*functional=*/false);
  const auto requests = Arrivals(f.trace, 1.0e6);
  check::CheckReport report;
  DataFlowServeOptions options = BaseOptions();
  options.audit = &report;
  auto result = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(RunnerTest, ShapeAuditFlagsAnOversizedBottomSplit) {
  Fixture f = MakeFixture(/*functional=*/false);
  const auto requests = Arrivals(f.trace, 1.0e6);
  check::CheckReport report;
  DataFlowServeOptions options = BaseOptions();
  options.plan.bottom_split = 99;  // beyond the 2-layer bottom stack
  options.audit = &report;
  // The run itself survives (costs clamp the split), but the audit
  // records the illegal plan shape.
  auto result = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(report.count(check::Rule::kDataFlowShape), 1u);
  EXPECT_EQ(report.count(check::Rule::kStageOrdering), 0u);
}

TEST(RunnerTest, ShapeAuditFlagsGpuPlansWithoutAGpu) {
  Fixture f = MakeFixture(/*functional=*/false);
  const auto requests = Arrivals(f.trace, 1.0e6);
  check::CheckReport report;
  DataFlowServeOptions options = BaseOptions();
  options.plan.top = Backend::kGpu;
  options.gpu_available = false;
  options.audit = &report;
  auto result = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(report.count(check::Rule::kDataFlowShape), 1u);
}

TEST(RunnerTest, GpuPlanAccountsGpuBusyTime) {
  Fixture f = MakeFixture(/*functional=*/false);
  const auto requests = Arrivals(f.trace, 1.0e6);
  DataFlowServeOptions options = BaseOptions();
  options.plan.bottom = Backend::kGpu;
  options.plan.bottom_split = 0;
  options.plan.top = Backend::kGpu;
  auto result = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->utilization.gpu_busy_ns, 0.0);
  // No CPU-placed dense stages: the host's MLP time is zero.
  EXPECT_DOUBLE_EQ(result->utilization.host_mlp_busy_ns, 0.0);
}

// Options the batcher or the buffer window cannot run are rejected
// before the loop starts, not by a process abort.
TEST(RunnerTest, RejectsZeroPlanDepth) {
  Fixture f = MakeFixture(/*functional=*/false, 16);
  DataFlowServeOptions options = BaseOptions();
  options.plan.depth = 0;
  auto result = RunDataFlowSimulation(
      *f.engine, Arrivals(f.trace, 1.0e6), nullptr, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunnerTest, RejectsZeroMaxBatchSize) {
  Fixture f = MakeFixture(/*functional=*/false, 16);
  DataFlowServeOptions options = BaseOptions();
  options.batcher.max_batch_size = 0;
  auto result = RunDataFlowSimulation(
      *f.engine, Arrivals(f.trace, 1.0e6), nullptr, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunnerTest, RejectsNegativeMaxQueueDelay) {
  Fixture f = MakeFixture(/*functional=*/false, 16);
  DataFlowServeOptions options = BaseOptions();
  options.batcher.max_queue_delay_ns = -1.0;
  auto result = RunDataFlowSimulation(
      *f.engine, Arrivals(f.trace, 1.0e6), nullptr, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunnerTest, RejectsInvalidGpuParams) {
  Fixture f = MakeFixture(/*functional=*/false, 16);
  DataFlowServeOptions options = BaseOptions();
  options.gpu.mlp_efficiency = 0.0;
  auto result = RunDataFlowSimulation(
      *f.engine, Arrivals(f.trace, 1.0e6), nullptr, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunnerTest, RejectsMismatchedDenseInputs) {
  Fixture f = MakeFixture(/*functional=*/true);
  const auto requests = Arrivals(f.trace, 1.0e6);
  const dlrm::DenseInputs wide_dense = dlrm::DenseInputs::Generate(
      f.trace.num_samples(), f.config.dense_features + 1, 7);
  auto wrong_dim = RunDataFlowSimulation(*f.engine, requests, &wide_dense,
                                         BaseOptions());
  ASSERT_FALSE(wrong_dim.ok());
  EXPECT_EQ(wrong_dim.status().code(), StatusCode::kInvalidArgument);

  const dlrm::DenseInputs short_dense = dlrm::DenseInputs::Generate(
      f.trace.num_samples() / 2, f.config.dense_features, 7);
  auto too_few = RunDataFlowSimulation(*f.engine, requests, &short_dense,
                                       BaseOptions());
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunnerTest, RejectsRequestsOutsideTheTrace) {
  Fixture f = MakeFixture(/*functional=*/false);
  const std::vector<serve::Request> requests = {
      serve::Request{0, f.trace.num_samples(), 0.0}};
  auto result = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      BaseOptions());
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace updlrm::pipeline
