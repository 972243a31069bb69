// Tracing is pure observation: enabling it must not change a single
// simulated number, and traced runs must stay bit-exact across thread
// counts (the tracer's per-thread buffers are the only tracing state
// touched from worker threads). Runs the engine and the serving loop
// with tracing off and on at --threads 1/2/4; carries the `tsan`
// ctest label so a -DUPDLRM_SANITIZE=thread build exercises the
// tracer's concurrent emission path under TSan.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "serve/server.h"
#include "telemetry/tracer.h"
#include "trace/generator.h"
#include "updlrm/engine.h"

namespace updlrm::telemetry {
namespace {

const bool g_pool_sized = [] {
  ThreadPool::SetDefaultThreads(4);
  return true;
}();

struct Fixture {
  dlrm::DlrmConfig config;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  std::unique_ptr<core::UpDlrmEngine> engine;
};

Fixture MakeFixture(std::uint32_t threads) {
  Fixture f;
  f.config.num_tables = 2;
  f.config.rows_per_table = 600;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  f.config.seed = 31;

  trace::DatasetSpec spec;
  spec.name = "tracedet";
  spec.num_items = 600;
  spec.avg_reduction = 12.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = 31;
  trace::TraceGeneratorOptions options;
  options.num_samples = 128;
  options.num_tables = 2;
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  f.trace = std::move(t).value();

  pim::DpuSystemConfig sys;
  sys.num_dpus = 8;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = false;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();

  core::EngineOptions engine_options;
  engine_options.method = partition::Method::kCacheAware;
  engine_options.nc = 4;
  engine_options.batch_size = 16;
  engine_options.reserved_io_bytes = 128 * kKiB;
  engine_options.grace.num_hot_items = 96;
  engine_options.num_threads = threads;
  auto engine = core::UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                           f.system.get(), engine_options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  f.engine = std::move(engine).value();
  return f;
}

struct RunResult {
  core::InferenceReport report;
  serve::ServeResult serve;
  std::uint64_t traced_events = 0;
  std::uint64_t requests_traced = 0;
  std::uint64_t requests_sampled_out = 0;
};

RunResult RunAt(std::uint32_t threads, bool tracing,
          std::uint64_t sample_every = 1) {
  Tracer& tracer = Tracer::Get();
  if (tracing) {
    TracerOptions options;
    options.sample_every = sample_every;
    tracer.Enable(options);
  } else {
    tracer.Disable();
  }

  Fixture f = MakeFixture(threads);
  RunResult run;
  auto report = f.engine->RunAll(nullptr);
  UPDLRM_CHECK_MSG(report.ok(), report.status().ToString().c_str());
  run.report = std::move(report).value();

  serve::ArrivalOptions arrivals;
  arrivals.process = serve::ArrivalProcess::kPoisson;
  arrivals.qps = 200'000.0;
  arrivals.seed = 5;
  auto requests = serve::GenerateRequests(f.trace, 0, arrivals);
  UPDLRM_CHECK(requests.ok());
  serve::ServeOptions serve_options;
  serve_options.batcher.max_batch_size = 16;
  serve_options.batcher.max_queue_delay_ns = 50'000.0;
  serve_options.batcher.queue_capacity = 64;
  auto served =
      serve::RunServeSimulation(*f.engine, *requests, serve_options);
  UPDLRM_CHECK_MSG(served.ok(), served.status().ToString().c_str());
  run.serve = std::move(served).value();

  run.traced_events = tracer.recorded_events();
  run.requests_traced = run.serve.requests_traced;
  run.requests_sampled_out = run.serve.requests_sampled_out;
  tracer.Disable();
  return run;
}

void ExpectSameSimulatedResults(const RunResult& a, const RunResult& b,
                                const char* what) {
  EXPECT_EQ(a.report.stages.cpu_to_dpu, b.report.stages.cpu_to_dpu)
      << what;
  EXPECT_EQ(a.report.stages.dpu_lookup, b.report.stages.dpu_lookup)
      << what;
  EXPECT_EQ(a.report.stages.dpu_to_cpu, b.report.stages.dpu_to_cpu)
      << what;
  EXPECT_EQ(a.report.stages.cpu_aggregate, b.report.stages.cpu_aggregate)
      << what;
  EXPECT_EQ(a.report.total, b.report.total) << what;
  EXPECT_EQ(a.report.num_batches, b.report.num_batches) << what;

  EXPECT_EQ(a.serve.completed, b.serve.completed) << what;
  EXPECT_EQ(a.serve.shed, b.serve.shed) << what;
  EXPECT_EQ(a.serve.makespan_ns, b.serve.makespan_ns) << what;
  EXPECT_EQ(a.serve.num_batches, b.serve.num_batches) << what;
  EXPECT_EQ(a.serve.max_queue_depth, b.serve.max_queue_depth) << what;
  ASSERT_EQ(a.serve.request_latency_ns.size(),
            b.serve.request_latency_ns.size())
      << what;
  for (std::size_t i = 0; i < a.serve.request_latency_ns.size(); ++i) {
    ASSERT_EQ(a.serve.request_latency_ns[i],
              b.serve.request_latency_ns[i])
        << what << " request " << i;
  }
}

TEST(TraceDeterminismTest, TracingOnEqualsTracingOff) {
  const RunResult off = RunAt(1, /*tracing=*/false);
  const RunResult on = RunAt(1, /*tracing=*/true);
  EXPECT_EQ(off.traced_events, 0u);
  EXPECT_GT(on.traced_events, 0u);
  ExpectSameSimulatedResults(off, on, "tracing on vs off");
}

TEST(TraceDeterminismTest, TracedRunsBitExactAcrossThreadCounts) {
  const RunResult serial = RunAt(1, /*tracing=*/true);
  EXPECT_GT(serial.traced_events, 0u);
  for (std::uint32_t threads : {2u, 4u}) {
    const RunResult run = RunAt(threads, /*tracing=*/true);
    ExpectSameSimulatedResults(serial, run, "threads");
    // The traced-request set is keyed on stable request ids, so even
    // the tracing accounting is thread-count invariant.
    EXPECT_EQ(run.requests_traced, serial.requests_traced) << threads;
    EXPECT_EQ(run.requests_sampled_out, serial.requests_sampled_out)
        << threads;
  }
}

TEST(TraceDeterminismTest, SamplingSkipsButCountsRequests) {
  const RunResult all = RunAt(1, /*tracing=*/true, /*sample_every=*/1);
  const RunResult sampled = RunAt(1, /*tracing=*/true, /*sample_every=*/4);
  ExpectSameSimulatedResults(all, sampled, "sampled vs full tracing");
  EXPECT_EQ(all.requests_sampled_out, 0u);
  EXPECT_GT(sampled.requests_sampled_out, 0u);
  EXPECT_LT(sampled.requests_traced, all.requests_traced);
  EXPECT_EQ(sampled.requests_traced + sampled.requests_sampled_out,
            all.requests_traced);
  EXPECT_LT(sampled.traced_events, all.traced_events);
}

TEST(TraceDeterminismTest, StageThreeAggregatesOnTheCoreTrack) {
  // The serve loop splits stage 3 across the host lanes: the pull on
  // the bus track, then one aggregation slice per batch on the core
  // track, ending at the batch's stage-3 end.
  const RunResult run = RunAt(1, /*tracing=*/true);
  std::vector<TraceEvent> aggregates;
  for (const TraceEvent& e : Tracer::Get().Snapshot()) {
    if (e.name != nullptr && std::string_view(e.name) == "stage3.aggregate") {
      aggregates.push_back(e);
    }
  }
  std::sort(aggregates.begin(), aggregates.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  const std::vector<serve::ExecutedBatch>& schedule = run.serve.schedule;
  ASSERT_EQ(aggregates.size(), schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const TraceEvent& e = aggregates[i];
    EXPECT_EQ(e.pid, kPipelinePid) << i;
    EXPECT_EQ(e.tid, kHostCoreTrack) << i;
    EXPECT_EQ(e.dur_ns, schedule[i].stages.cpu_aggregate) << i;
    EXPECT_NEAR(e.ts_ns + e.dur_ns, schedule[i].s3_end_ns, 1e-6) << i;
    EXPECT_GE(e.ts_ns, schedule[i].s3_start_ns + schedule[i].stages.dpu_to_cpu -
                           1e-6)
        << i;
  }
}

}  // namespace
}  // namespace updlrm::telemetry
