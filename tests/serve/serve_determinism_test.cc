// The serving simulator's half of the determinism contract (DESIGN.md
// §"Serving layer"): the whole request->batch->pipeline loop runs in
// simulated time, so host thread count must change nothing — arrival
// streams, batch cuts, executed schedules and every latency sample are
// compared byte-for-byte at 1, 2 and 4 threads. Lives in the
// tsan-labelled determinism_test binary (see tests/CMakeLists.txt).
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/server.h"
#include "telemetry/monitor.h"
#include "trace/generator.h"
#include "trace/profiler.h"

namespace updlrm::serve {
namespace {

struct ServeRun {
  std::vector<Request> requests;
  ServeResult result;
};

ServeRun RunServeAt(std::uint32_t threads,
                    telemetry::FleetMonitor* monitor = nullptr) {
  dlrm::DlrmConfig config;
  config.num_tables = 2;
  config.rows_per_table = 600;
  config.embedding_dim = 8;
  config.dense_features = 5;
  config.bottom_hidden = {16};
  config.top_hidden = {16};
  config.seed = 31;

  trace::DatasetSpec spec;
  spec.name = "serve-det";
  spec.num_items = 600;
  spec.avg_reduction = 12.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = 31;
  trace::TraceGeneratorOptions trace_options;
  trace_options.num_samples = 96;
  trace_options.num_tables = 2;
  trace_options.num_threads = threads;
  auto trace = trace::TraceGenerator(spec).Generate(trace_options);
  UPDLRM_CHECK(trace.ok());
  if (monitor != nullptr) {
    for (std::uint32_t t = 0; t < 2; ++t) {
      const auto freq =
          trace::ItemFrequencies(trace->tables[t], spec.num_items);
      monitor->AddTableBaseline(
          t, telemetry::BuildDriftBaseline(freq,
                                           trace::ItemsByFrequency(freq),
                                           monitor->options().drift));
    }
  }

  pim::DpuSystemConfig sys;
  sys.num_dpus = 8;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = false;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());

  core::EngineOptions engine_options;
  engine_options.method = partition::Method::kCacheAware;
  engine_options.nc = 4;
  engine_options.batch_size = 16;
  engine_options.reserved_io_bytes = 128 * kKiB;
  engine_options.grace.num_hot_items = 96;
  engine_options.num_threads = threads;
  auto engine = core::UpDlrmEngine::Create(nullptr, config, *trace,
                                           system->get(), engine_options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());

  ServeRun run;
  ArrivalOptions arrivals;
  arrivals.process = ArrivalProcess::kBursty;
  arrivals.qps = 200'000.0;
  arrivals.seed = 7;
  auto requests = GenerateRequests(*trace, 0, arrivals);
  UPDLRM_CHECK(requests.ok());
  run.requests = std::move(requests).value();

  ServeOptions options;
  options.batcher.max_batch_size = 16;
  options.batcher.max_queue_delay_ns = 5.0e4;
  options.batcher.queue_capacity = 24;
  options.batcher.policy = AdmissionPolicy::kShed;
  options.monitor = monitor;
  auto result = RunServeSimulation(**engine, run.requests, options);
  UPDLRM_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  run.result = std::move(result).value();
  return run;
}

TEST(ServeDeterminismTest, SimulationBitExactAcrossThreadCounts) {
  const ServeRun serial = RunServeAt(1);
  ASSERT_GT(serial.result.num_batches, 0u);
  ASSERT_FALSE(serial.result.request_latency_ns.empty());
  for (std::uint32_t threads : {2u, 4u, 0u}) {
    const ServeRun run = RunServeAt(threads);
    // The arrival stream is seeded, independent of threads.
    ASSERT_EQ(run.requests.size(), serial.requests.size()) << threads;
    for (std::size_t i = 0; i < serial.requests.size(); ++i) {
      ASSERT_EQ(run.requests[i].arrival_ns, serial.requests[i].arrival_ns)
          << "request " << i << " at " << threads << " threads";
    }
    const ServeResult& a = run.result;
    const ServeResult& b = serial.result;
    EXPECT_EQ(a.offered, b.offered) << threads;
    EXPECT_EQ(a.completed, b.completed) << threads;
    EXPECT_EQ(a.shed, b.shed) << threads;
    EXPECT_EQ(a.num_batches, b.num_batches) << threads;
    EXPECT_EQ(a.max_queue_depth, b.max_queue_depth) << threads;
    EXPECT_EQ(a.makespan_ns, b.makespan_ns) << threads;
    EXPECT_EQ(a.utilization.host_busy_ns, b.utilization.host_busy_ns);
    EXPECT_EQ(a.utilization.host_core_busy_ns,
              b.utilization.host_core_busy_ns);
    EXPECT_EQ(a.utilization.dpu_busy_ns, b.utilization.dpu_busy_ns);
    ASSERT_EQ(a.request_latency_ns.size(), b.request_latency_ns.size());
    for (std::size_t i = 0; i < b.request_latency_ns.size(); ++i) {
      ASSERT_EQ(a.request_latency_ns[i], b.request_latency_ns[i])
          << "latency " << i << " at " << threads << " threads";
    }
    ASSERT_EQ(a.schedule.size(), b.schedule.size());
    for (std::size_t i = 0; i < b.schedule.size(); ++i) {
      ASSERT_EQ(a.schedule[i].s1_start_ns, b.schedule[i].s1_start_ns);
      ASSERT_EQ(a.schedule[i].s2_start_ns, b.schedule[i].s2_start_ns);
      ASSERT_EQ(a.schedule[i].s2_end_ns, b.schedule[i].s2_end_ns);
      ASSERT_EQ(a.schedule[i].s3_end_ns, b.schedule[i].s3_end_ns);
    }
    ASSERT_EQ(a.queue_depth.size(), b.queue_depth.size());
    for (std::size_t i = 0; i < b.queue_depth.size(); ++i) {
      ASSERT_EQ(a.queue_depth[i].t_ns, b.queue_depth[i].t_ns);
      ASSERT_EQ(a.queue_depth[i].depth, b.queue_depth[i].depth);
    }
  }
}

// The fleet monitor's observation-only contract (DESIGN.md §"Fleet
// health monitoring"): attaching a FleetMonitor must not perturb the
// simulation, and the monitor's own output must be thread-invariant.
TEST(ServeDeterminismTest, MonitorIsObservationOnlyAndThreadInvariant) {
  const ServeRun bare = RunServeAt(1);
  std::string serial_jsonl;
  for (std::uint32_t threads : {1u, 2u, 4u}) {
    telemetry::MonitorOptions monitor_options;
    monitor_options.window_ns = 5.0e4;
    monitor_options.drift.min_accesses = 1;
    telemetry::FleetMonitor monitor(monitor_options);
    const ServeRun run = RunServeAt(threads, &monitor);
    monitor.Finalize();
    const ServeResult& a = run.result;
    const ServeResult& b = bare.result;
    EXPECT_EQ(a.offered, b.offered) << threads;
    EXPECT_EQ(a.completed, b.completed) << threads;
    EXPECT_EQ(a.shed, b.shed) << threads;
    EXPECT_EQ(a.num_batches, b.num_batches) << threads;
    EXPECT_EQ(a.makespan_ns, b.makespan_ns) << threads;
    ASSERT_EQ(a.request_latency_ns.size(), b.request_latency_ns.size());
    for (std::size_t i = 0; i < b.request_latency_ns.size(); ++i) {
      ASSERT_EQ(a.request_latency_ns[i], b.request_latency_ns[i])
          << "latency " << i << " at " << threads << " threads";
    }
    ASSERT_EQ(a.schedule.size(), b.schedule.size());
    for (std::size_t i = 0; i < b.schedule.size(); ++i) {
      ASSERT_EQ(a.schedule[i].s1_start_ns, b.schedule[i].s1_start_ns);
      ASSERT_EQ(a.schedule[i].s3_end_ns, b.schedule[i].s3_end_ns);
    }
    // The monitor itself is fed from simulated time, so its JSONL
    // stream is byte-identical at every thread count.
    ASSERT_GT(monitor.windows().size(), 0u) << threads;
    const std::string jsonl = monitor.ToJsonl();
    if (threads == 1) {
      serial_jsonl = jsonl;
      EXPECT_TRUE(telemetry::ValidateHealthJsonl(jsonl, 1).ok());
    } else {
      EXPECT_EQ(jsonl, serial_jsonl) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace updlrm::serve
