// Online serving: tail latency and sustainable throughput per
// partitioning method under an open-loop arrival stream.
//
// The offline benches replay the trace back-to-back; this one drives
// the engine through the serving subsystem (request queue -> dynamic
// batcher -> pipelined executor) at swept offered
// loads. Per method the bench first calibrates the pipeline's capacity
// (batch_size / bottleneck-resource time per batch), then sweeps
// offered load at {0.5, 0.8, 1.0, 1.2}x capacity and reports the
// latency distribution, shed count and whether a 3x-batch-time p99 SLO
// holds; the highest load that holds it is the max sustainable QPS.
//
// A second section serves the complete DLRM request path (bottom MLP
// overlapped with the DPU embedding stages, then interaction + top
// MLP) through src/pipeline: the data-flow auto-tuner picks the batch
// depth / bottom-split / backend placement, and the same load sweep
// reports full-path tail latency as rows tagged "path": "e2e".
// Pass --e2e to run only that section (the CI smoke configuration; it
// is also the mode in which --trace-out captures the e2e spans).
//
// Emits BENCH_serve.json (one row per method x offered rate). All
// results are simulated time: bit-exact at any --threads width.
// Flags: --arrival=poisson|uniform|bursty, --seed=N (trace seed
// override), plus the usual --samples/--batch/--threads.
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "pipeline/runner.h"
#include "pipeline/tuner.h"
#include "serve/server.h"
#include "telemetry/json.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf(
      "== Online serving: tail latency and sustainable QPS per "
      "partitioning method ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);
  bench::HostTimer timer("serve_latency", scale);

  auto arrival = serve::ParseArrivalProcess(scale.arrival);
  UPDLRM_CHECK_MSG(arrival.ok(), arrival.status().ToString());

  timer.BeginPhase("setup");
  const auto& spec = trace::Table1Workloads()[0];  // clo
  const bench::Workload w = bench::PrepareWorkload(spec, scale);
  const double load_factors[] = {0.5, 0.8, 1.0, 1.2, 1.5, 2.0};

  TablePrinter out({"method", "load", "offered qps", "p50 (us)",
                    "p99 (us)", "shed", "slo met"});
  // BENCH_serve.json, written as the sweep runs: slo_us and the
  // sustainable QPS follow the rows because the sweep decides them.
  using Layout = telemetry::JsonWriter::Layout;
  telemetry::JsonWriter json;
  json.BeginObject(Layout::kLines).Field("workload", spec.name);
  json.Field("arrival", scale.arrival).Field("batch_size", scale.batch_size);
  json.Key("rows").BeginArray(Layout::kLines);
  std::vector<std::pair<std::string, double>> sustainable;
  // One workload-level p99 SLO for every method, so sustainable-QPS
  // numbers are comparable: 3x the uniform baseline's average serial
  // batch embedding time (uniform runs first below).
  Nanos slo_ns = 0.0;

  if (!scale.e2e) {
    for (const partition::Method method :
         {partition::Method::kUniform, partition::Method::kNonUniform,
          partition::Method::kCacheAware}) {
      timer.BeginPhase("setup");
      auto system = bench::MakePaperSystem();
      auto engine = core::UpDlrmEngine::Create(
          nullptr, w.config, w.trace, system.get(),
          bench::PaperEngineOptions(method, 0, scale));
      UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());

      // Calibrate: one offline pass gives the per-batch stage profile.
      timer.BeginPhase("calibrate");
      auto profile = (*engine)->RunAll(nullptr);
      UPDLRM_CHECK_MSG(profile.ok(), profile.status().ToString());
      const double nb = static_cast<double>(profile->num_batches);
      const Nanos host_per_batch = (profile->stages.cpu_to_dpu +
                                    profile->stages.dpu_to_cpu +
                                    profile->stages.cpu_aggregate) /
                                   nb;
      const Nanos dpu_per_batch = profile->stages.dpu_lookup / nb;
      const Nanos batch_total =
          profile->stages.EmbeddingTotal() / nb;
      // Pipelined capacity: the slower resource turns over one batch per
      // max(host, dpu) ns in steady state.
      const double capacity_qps =
          static_cast<double>(scale.batch_size) /
          (std::max(host_per_batch, dpu_per_batch) / kNanosPerSecond);
      if (slo_ns == 0.0) slo_ns = 3.0 * batch_total;

      timer.BeginPhase("serve");
      std::vector<serve::RatePoint> points;
      for (const double load : load_factors) {
        const double qps = load * capacity_qps;
        serve::ArrivalOptions arrivals;
        arrivals.process = *arrival;
        arrivals.qps = qps;
        arrivals.seed = scale.seed + 1;  // deterministic, thread-free
        auto requests = serve::GenerateRequests(w.trace, 0, arrivals);
        UPDLRM_CHECK_MSG(requests.ok(), requests.status().ToString());

        serve::ServeOptions options;
        options.batcher.max_batch_size = scale.batch_size;
        options.batcher.max_queue_delay_ns = batch_total;
        options.batcher.queue_capacity = 4 * scale.batch_size;
        options.batcher.policy = serve::AdmissionPolicy::kShed;
        // --trace-out / --health-out capture one representative serve
        // run (cache-aware at 1.0x capacity): each run restarts the
        // simulated clock at 0, so one trace file holds exactly one run.
        std::optional<bench::TraceSession> trace_session;
        std::unique_ptr<telemetry::FleetMonitor> monitor;
        if (method == partition::Method::kCacheAware && load == 1.0) {
          trace_session.emplace(scale);
          monitor = bench::MakeFleetMonitor(
              scale, slo_ns, pim::DpuSystemConfig{}.dpus_per_rank);
          options.monitor = monitor.get();
        }
        auto result =
            serve::RunServeSimulation(**engine, *requests, options);
        UPDLRM_CHECK_MSG(result.ok(), result.status().ToString());
        // Health first so its counters land inside the open trace.
        bench::WriteHealthArtifacts(monitor.get(), scale);
        trace_session.reset();  // write + validate the trace, if tracing

        const std::string method_name(partition::MethodShortName(method));
        result->ExportTo(telemetry::MetricsRegistry::Global(),
                         "serve." + method_name + ".load" +
                             TablePrinter::Fmt(load, 1));

        const serve::SloReport report = result->MakeSloReport(qps, slo_ns);
        points.push_back(
            serve::RatePoint{qps, report.p99_ns, report.shed});
        out.AddRow({std::string(partition::MethodShortName(method)),
                    TablePrinter::Fmt(load, 1),
                    TablePrinter::Fmt(qps, 0),
                    TablePrinter::Fmt(NanosToMicros(report.p50_ns), 1),
                    TablePrinter::Fmt(NanosToMicros(report.p99_ns), 1),
                    std::to_string(report.shed),
                    report.slo_met ? "yes" : "NO"});
        json.BeginObject().Field("method", method_name).Field("load", load);
        report.WriteFields(json);
        json.EndObject();
      }
      // The serve executor drove every load sweep through this engine's
      // RunSamples, so one gate covers the whole method.
      bench::AssertChecksClean(
          **engine, std::string(partition::MethodShortName(method)));
      sustainable.emplace_back(partition::MethodShortName(method),
                               serve::MaxSustainableQps(points, slo_ns));
    }
  }

  // --- End-to-end pipeline: tuned data flow over the full DLRM path.
  // The embedding rows above stop at the stage-3 pull; these rows
  // include the host/GPU dense stages, with the bottom MLP overlapped
  // against the in-flight embedding batch per the tuner's chosen plan.
  {
    timer.BeginPhase("e2e_setup");
    auto system = bench::MakePaperSystem();
    auto engine = core::UpDlrmEngine::Create(
        nullptr, w.config, w.trace, system.get(),
        bench::PaperEngineOptions(partition::Method::kCacheAware, 0,
                                  scale));
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());

    timer.BeginPhase("e2e_calibrate");
    auto profile = (*engine)->RunAll(nullptr);
    UPDLRM_CHECK_MSG(profile.ok(), profile.status().ToString());
    const double nb = static_cast<double>(profile->num_batches);
    const Nanos host_per_batch = (profile->stages.cpu_to_dpu +
                                  profile->stages.dpu_to_cpu +
                                  profile->stages.cpu_aggregate) /
                                 nb;
    const Nanos dpu_per_batch = profile->stages.dpu_lookup / nb;
    const Nanos batch_total = profile->stages.EmbeddingTotal() / nb;
    const double capacity_qps =
        static_cast<double>(scale.batch_size) /
        (std::max(host_per_batch, dpu_per_batch) / kNanosPerSecond);
    if (slo_ns == 0.0) slo_ns = 3.0 * batch_total;

    serve::BatcherOptions batcher;
    batcher.max_batch_size = scale.batch_size;
    batcher.max_queue_delay_ns = batch_total;
    batcher.queue_capacity = 4 * scale.batch_size;
    batcher.policy = serve::AdmissionPolicy::kShed;

    // Tune against the 1.0x-capacity stream: enumerate candidate data
    // flows, rank by the analytic predictor, calibrate the short list.
    serve::ArrivalOptions tune_arrivals;
    tune_arrivals.process = *arrival;
    tune_arrivals.qps = capacity_qps;
    tune_arrivals.seed = scale.seed + 1;
    auto tune_requests =
        serve::GenerateRequests(w.trace, 0, tune_arrivals);
    UPDLRM_CHECK_MSG(tune_requests.ok(),
                     tune_requests.status().ToString());
    pipeline::DataFlowTuner tuner(pipeline::TunerOptions{});
    auto tuned = tuner.Tune(**engine, *tune_requests, batcher);
    UPDLRM_CHECK_MSG(tuned.ok(), tuned.status().ToString());
    std::printf("# e2e: tuned data flow %s (predicted short-list "
                "calibrated on %zu candidates)\n",
                pipeline::Name(tuned->best).c_str(),
                tuned->candidates.size());

    // Full-path SLO: the embedding SLO plus 3x the chosen plan's dense
    // per-batch work, so the e2e sustainable-QPS gate scales with the
    // model instead of charging the MLP stages against embedding slack.
    core::BatchResult probe;
    probe.stages.cpu_to_dpu = profile->stages.cpu_to_dpu / nb;
    probe.stages.dpu_lookup = profile->stages.dpu_lookup / nb;
    probe.stages.dpu_to_cpu = profile->stages.dpu_to_cpu / nb;
    probe.stages.cpu_aggregate = profile->stages.cpu_aggregate / nb;
    const host::GpuTimingModel gpu_model;
    const auto costs = pipeline::ComputeBatchTaskCosts(
        w.config, (*engine)->cpu_model(), gpu_model, probe,
        scale.batch_size, tuned->best);
    const Nanos dense_per_batch =
        (tuned->best.bottom == pipeline::Backend::kGpu
             ? costs.bottom_gpu
             : costs.bottom_host()) +
        (tuned->best.top == pipeline::Backend::kGpu ? costs.top_gpu
                                                    : costs.top_host());
    const Nanos e2e_slo_ns = slo_ns + 3.0 * dense_per_batch;

    timer.BeginPhase("e2e_serve");
    check::CheckReport audit;
    std::vector<serve::RatePoint> points;
    for (const double load : load_factors) {
      const double qps = load * capacity_qps;
      serve::ArrivalOptions arrivals;
      arrivals.process = *arrival;
      arrivals.qps = qps;
      arrivals.seed = scale.seed + 1;
      auto requests = serve::GenerateRequests(w.trace, 0, arrivals);
      UPDLRM_CHECK_MSG(requests.ok(), requests.status().ToString());

      pipeline::DataFlowServeOptions options;
      options.batcher = batcher;
      options.plan = tuned->best;
      options.num_threads = scale.threads;
      if (scale.check) options.audit = &audit;
      // In --e2e mode --trace-out / --health-out capture the full-path
      // run at 1.0x capacity, including the mlp_bottom / interact /
      // mlp_top spans.
      std::optional<bench::TraceSession> trace_session;
      std::unique_ptr<telemetry::FleetMonitor> monitor;
      if (scale.e2e && load == 1.0) {
        trace_session.emplace(scale);
        monitor = bench::MakeFleetMonitor(
            scale, e2e_slo_ns, pim::DpuSystemConfig{}.dpus_per_rank);
        options.monitor = monitor.get();
      }
      auto result = pipeline::RunDataFlowSimulation(
          **engine, *requests, nullptr, options);
      UPDLRM_CHECK_MSG(result.ok(), result.status().ToString());
      bench::WriteHealthArtifacts(monitor.get(), scale);
      trace_session.reset();

      const serve::SloReport report =
          result->MakeSloReport(qps, e2e_slo_ns);
      points.push_back(
          serve::RatePoint{qps, report.p99_ns, report.shed});
      out.AddRow({"e2e", TablePrinter::Fmt(load, 1),
                  TablePrinter::Fmt(qps, 0),
                  TablePrinter::Fmt(NanosToMicros(report.p50_ns), 1),
                  TablePrinter::Fmt(NanosToMicros(report.p99_ns), 1),
                  std::to_string(report.shed),
                  report.slo_met ? "yes" : "NO"});
      json.BeginObject().Field("method", "CA").Field("path", "e2e");
      json.Field("plan", pipeline::Name(tuned->best)).Field("load", load);
      report.WriteFields(json);
      json.EndObject();
    }
    if (scale.check) {
      if (audit.clean()) {
        std::printf("# check[e2e-dataflow]: clean (0 violations)\n");
      } else {
        std::printf("# check[e2e-dataflow]: %s",
                    audit.ToString().c_str());
        UPDLRM_CHECK_MSG(false,
                         "data-flow audits reported violations");
      }
    }
    bench::AssertChecksClean(**engine, "e2e");
    sustainable.emplace_back("e2e",
                             serve::MaxSustainableQps(points, e2e_slo_ns));
  }
  out.Print(std::cout);

  json.EndArray().Field("slo_us", NanosToMicros(slo_ns));
  json.Key("max_sustainable_qps").BeginObject();
  for (const auto& [name, qps] : sustainable) json.Field(name, qps);
  json.EndObject().EndObject().Newline();
  const Status written =
      telemetry::WriteTextFile("BENCH_serve.json", json.str());
  UPDLRM_CHECK_MSG(written.ok(), written.ToString());
  std::printf(
      "\nSLO = 3x the uniform baseline's average serial batch "
      "embedding time (one SLO for all methods; the e2e rows add 3x "
      "the tuned plan's dense per-batch work); max sustainable QPS "
      "= highest swept load with p99 <= SLO and nothing shed -> "
      "BENCH_serve.json\n");
  return 0;
}
