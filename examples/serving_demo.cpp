// Serving demo: drive the UpDLRM engine through the online serving
// subsystem — open-loop arrivals, dynamic batching, double-buffered
// pipelined execution — and print the tail-latency scorecard. A second
// section then serves the *complete* DLRM path through src/pipeline:
// the data-flow auto-tuner picks the overlap/placement plan, the
// functional engine produces real embeddings, and the batched dense
// stages turn them into per-request CTR predictions.
//
//   build/examples/serving_demo
//   build/examples/serving_demo --qps=150000 --arrival=bursty
//       --batch=32 --delay_us=500 --queue=128 --policy=block --seed=7
//
// Everything below runs in *simulated* time: the arrival stream, batch
// cuts, and the pipelined schedule are all derived from the engine's
// per-batch stage timings, so the numbers are identical on any machine
// and at any host thread count. The CTR floats are real model output
// (fixed-order accumulation: bit-exact at any thread count too).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/cli.h"
#include "common/stats.h"
#include "pipeline/runner.h"
#include "pipeline/tuner.h"
#include "serve/server.h"
#include "telemetry/json.h"
#include "trace/generator.h"

using namespace updlrm;

int main(int argc, char** argv) {
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok()) {
    std::printf("flags: %s\n", cl.status().ToString().c_str());
    return 1;
  }
  const double qps = static_cast<double>(cl->GetInt("qps", 100'000));
  const std::string arrival_name = cl->GetString("arrival", "poisson");
  const std::size_t batch =
      static_cast<std::size_t>(cl->GetInt("batch", 64));
  const double delay_us = static_cast<double>(cl->GetInt("delay_us", 1000));
  const std::size_t queue =
      static_cast<std::size_t>(cl->GetInt("queue", 256));
  const std::string policy = cl->GetString("policy", "shed");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cl->GetInt("seed", 1));

  auto arrival = serve::ParseArrivalProcess(arrival_name);
  if (!arrival.ok()) {
    std::printf("--arrival: %s\n", arrival.status().ToString().c_str());
    return 1;
  }

  // A medium-hot workload on a small timing-only DPU system (serving
  // needs latencies, not embedding bytes).
  trace::DatasetSpec spec;
  spec.name = "serving";
  spec.full_name = "serving demo";
  spec.num_items = 20'000;
  spec.avg_reduction = 40.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.5;
  spec.num_hot_items = 512;
  dlrm::DlrmConfig config;
  config.num_tables = 4;
  config.rows_per_table = spec.num_items;
  config.embedding_dim = 32;
  config.dense_features = 13;
  trace::TraceGeneratorOptions trace_options;
  trace_options.num_samples = 2048;
  trace_options.num_tables = config.num_tables;
  auto trace = trace::TraceGenerator(spec).Generate(trace_options);
  if (!trace.ok()) {
    std::printf("trace: %s\n", trace.status().ToString().c_str());
    return 1;
  }

  pim::DpuSystemConfig system_config;
  system_config.num_dpus = 64;
  system_config.functional = false;
  auto system = pim::DpuSystem::Create(system_config);
  if (!system.ok()) {
    std::printf("system: %s\n", system.status().ToString().c_str());
    return 1;
  }

  core::EngineOptions engine_options;
  engine_options.method = partition::Method::kCacheAware;
  engine_options.batch_size = batch;
  auto engine = core::UpDlrmEngine::Create(nullptr, config, *trace,
                                           system->get(), engine_options);
  if (!engine.ok()) {
    std::printf("engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  // The open-loop request stream: every trace sample arrives once.
  serve::ArrivalOptions arrivals;
  arrivals.process = *arrival;
  arrivals.qps = qps;
  arrivals.seed = seed;
  auto requests = serve::GenerateRequests(*trace, 0, arrivals);
  if (!requests.ok()) {
    std::printf("arrivals: %s\n", requests.status().ToString().c_str());
    return 1;
  }

  serve::ServeOptions options;
  options.batcher.max_batch_size = batch;
  options.batcher.max_queue_delay_ns = delay_us * 1e3;
  options.batcher.queue_capacity = queue;
  options.batcher.policy = policy == "block"
                               ? serve::AdmissionPolicy::kBlock
                               : serve::AdmissionPolicy::kShed;
  auto result = serve::RunServeSimulation(**engine, *requests, options);
  if (!result.ok()) {
    std::printf("serve: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "== serving %zu requests: %s arrivals at %.0f qps, batch <= %zu, "
      "delay <= %.0f us, queue <= %zu (%s) ==\n\n",
      requests->size(), arrival_name.c_str(), qps, batch, delay_us,
      queue, policy.c_str());
  std::printf("batches        %zu (avg %.1f requests)\n",
              result->num_batches, result->avg_batch_size);
  std::printf("completed      %llu   shed %llu\n",
              static_cast<unsigned long long>(result->completed),
              static_cast<unsigned long long>(result->shed));
  std::printf("makespan       %.2f ms\n", result->makespan_ns / 1e6);
  std::printf("utilization    host-bus %.0f%%   host-core %.0f%%   "
              "dpu %.0f%%\n",
              100.0 * result->utilization.HostUtilization(),
              100.0 * result->utilization.HostCoreUtilization(),
              100.0 * result->utilization.DpuUtilization());
  std::printf("queue depth    max %zu\n\n", result->max_queue_depth);
  const std::vector<Nanos>& latency = result->request_latency_ns;
  std::printf("latency  p50   %8.1f us\n",
              NanosToMicros(NearestRank(latency, 50.0)));
  std::printf("         p95   %8.1f us\n",
              NanosToMicros(NearestRank(latency, 95.0)));
  std::printf("         p99   %8.1f us\n",
              NanosToMicros(NearestRank(latency, 99.0)));
  std::printf("         max   %8.1f us\n",
              NanosToMicros(NearestRank(latency, 100.0)));

  // The scorecard a load balancer would consume, as JSON.
  const serve::SloReport report = result->MakeSloReport(
      qps, /*slo_ns=*/3.0 * NearestRank(latency, 50.0));
  telemetry::JsonWriter json;
  json.BeginObject();
  report.WriteFields(json);
  json.EndObject();
  std::printf("\nslo report (p99 vs 3x p50): %s\n", json.str().c_str());

  // --- End-to-end pipeline: tuned data flow, real CTR outputs. ---
  // A functional engine this time: materialized embedding tables, a
  // real DLRM model, and per-request dense features, so each completed
  // request carries an actual click-through prediction.
  auto created = dlrm::DlrmModel::Create(config);
  if (!created.ok()) {
    std::printf("model: %s\n", created.status().ToString().c_str());
    return 1;
  }
  dlrm::DlrmModel model = std::move(created).value();
  const dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(
      trace_options.num_samples, config.dense_features, seed + 1);
  system_config.functional = true;
  auto e2e_system = pim::DpuSystem::Create(system_config);
  if (!e2e_system.ok()) {
    std::printf("system: %s\n", e2e_system.status().ToString().c_str());
    return 1;
  }
  auto e2e_engine =
      core::UpDlrmEngine::Create(&model, config, *trace,
                                 e2e_system->get(), engine_options);
  if (!e2e_engine.ok()) {
    std::printf("engine: %s\n", e2e_engine.status().ToString().c_str());
    return 1;
  }

  // Let the auto-tuner pick the depth / bottom-split / backend mix for
  // this (model, batch size) point, calibrating its short list against
  // the same request stream it will serve.
  pipeline::DataFlowTuner tuner(pipeline::TunerOptions{});
  auto tuned = tuner.Tune(**e2e_engine, *requests, options.batcher);
  if (!tuned.ok()) {
    std::printf("tuner: %s\n", tuned.status().ToString().c_str());
    return 1;
  }

  pipeline::DataFlowServeOptions e2e_options;
  e2e_options.batcher = options.batcher;
  e2e_options.plan = tuned->best;
  auto e2e = pipeline::RunDataFlowSimulation(**e2e_engine, *requests,
                                             &dense, e2e_options);
  if (!e2e.ok()) {
    std::printf("pipeline: %s\n", e2e.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "\n== end-to-end pipeline: tuned data flow %s "
      "(%zu candidates searched) ==\n\n",
      pipeline::Name(tuned->best).c_str(), tuned->candidates.size());
  std::printf("completed      %llu requests, %zu batches\n",
              static_cast<unsigned long long>(e2e->completed),
              e2e->num_batches);
  std::printf("utilization    host-bus %.0f%%   host-core %.0f%%   "
              "(mlp %.0f%%)   dpu %.0f%%\n",
              100.0 * e2e->utilization.HostUtilization(),
              100.0 * e2e->utilization.HostCoreUtilization(),
              100.0 * e2e->utilization.HostMlpUtilization(),
              100.0 * e2e->utilization.DpuUtilization());
  std::printf("full-path latency  p50 %8.1f us   p99 %8.1f us\n",
              NanosToMicros(NearestRank(e2e->request_latency_ns, 50.0)),
              NanosToMicros(NearestRank(e2e->request_latency_ns, 99.0)));
  std::printf("\nfirst CTR predictions (request -> click probability):\n");
  const std::size_t show = std::min<std::size_t>(8, e2e->ctr.size());
  for (std::size_t i = 0; i < show; ++i) {
    std::printf("  request %zu   sample %llu   ctr %.6f\n", i,
                static_cast<unsigned long long>((*requests)[i].sample),
                static_cast<double>(e2e->ctr[i]));
  }
  return 0;
}
