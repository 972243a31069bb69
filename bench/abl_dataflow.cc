// Ablation: the asymmetric data-flow auto-tuner vs every static plan.
//
// The end-to-end pipeline has a placement/overlap decision per
// (workload, batch size): pipeline depth, bottom-MLP split point, and
// CPU-vs-GPU backend for the dense stages. This bench runs the tuner
// in full-calibration mode (every enumerated candidate measured with a
// real simulated serving run, not just the predicted short list) on
// two Table 1 workloads and verifies the headline claim: the tuned
// flow's p99 is <= every static candidate's p99 on each dataset. It
// also reports how well the analytic predictor ranked the field.
//
// Exits non-zero if any static plan beats the tuner's pick. Emits
// BENCH_dataflow.json (per workload: the winner plus every candidate's
// predicted score and measured p99). Under --check the data-flow
// audits (plan shape, MRAM capacity-vs-depth, stage ordering) ride
// along on every calibration run and any violation aborts the bench.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "pipeline/runner.h"
#include "pipeline/tuner.h"
#include "telemetry/json.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf(
      "== Ablation: data-flow auto-tuning vs static stage placement "
      "(CA, full calibration) ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);
  bench::HostTimer timer("abl_dataflow", scale);

  auto arrival = serve::ParseArrivalProcess(scale.arrival);
  UPDLRM_CHECK_MSG(arrival.ok(), arrival.status().ToString());

  TablePrinter out({"workload", "plan", "predicted (us)", "p99 (us)",
                    "vs tuned", "verdict"});
  using Layout = telemetry::JsonWriter::Layout;
  telemetry::JsonWriter json;
  json.BeginObject(Layout::kLines).Field("batch_size", scale.batch_size);
  json.Field("arrival", scale.arrival).Key("workloads");
  json.BeginObject(Layout::kLines);

  // Two qualitatively different datasets: "clo" is nearly balanced
  // with mild skew, "home" is hotter with heavier reduction — enough
  // to move the host/DPU slack the overlap decision depends on.
  for (const std::size_t wi : {0u, 1u}) {
    const auto& spec = trace::Table1Workloads()[wi];
    timer.BeginPhase("setup");
    const bench::Workload w = bench::PrepareWorkload(spec, scale);
    auto system = bench::MakePaperSystem();
    auto engine = core::UpDlrmEngine::Create(
        nullptr, w.config, w.trace, system.get(),
        bench::PaperEngineOptions(partition::Method::kCacheAware, 0,
                                  scale));
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());

    // Capacity calibration, as in serve_latency: the offered stream
    // runs at 1.0x the embedding pipeline's steady-state capacity.
    timer.BeginPhase("calibrate");
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

    serve::ArrivalOptions arrivals;
    arrivals.process = *arrival;
    arrivals.qps = capacity_qps;
    arrivals.seed = scale.seed + 1;
    auto requests = serve::GenerateRequests(w.trace, 0, arrivals);
    UPDLRM_CHECK_MSG(requests.ok(), requests.status().ToString());

    serve::BatcherOptions batcher;
    batcher.max_batch_size = scale.batch_size;
    batcher.max_queue_delay_ns = batch_total;
    batcher.queue_capacity = 4 * scale.batch_size;
    batcher.policy = serve::AdmissionPolicy::kShed;

    timer.BeginPhase("tune");
    pipeline::TunerOptions tuner_options;
    tuner_options.calibrate_top_n = 0;  // measure every candidate
    pipeline::DataFlowTuner tuner(tuner_options);
    auto tuned = tuner.Tune(**engine, *requests, batcher);
    UPDLRM_CHECK_MSG(tuned.ok(), tuned.status().ToString());

    // Under --check, replay the winner with the audits attached: one
    // clean full-path run gates shape + capacity + ordering.
    if (scale.check) {
      timer.BeginPhase("check");
      check::CheckReport audit;
      pipeline::DataFlowServeOptions options;
      options.batcher = batcher;
      options.plan = tuned->best;
      options.num_threads = scale.threads;
      options.audit = &audit;
      auto replay = pipeline::RunDataFlowSimulation(**engine, *requests,
                                                    nullptr, options);
      UPDLRM_CHECK_MSG(replay.ok(), replay.status().ToString());
      if (audit.clean()) {
        std::printf("# check[%s-dataflow]: clean (0 violations)\n",
                    spec.name.c_str());
      } else {
        std::printf("# check[%s-dataflow]: %s", spec.name.c_str(),
                    audit.ToString().c_str());
        UPDLRM_CHECK_MSG(false,
                         "data-flow audits reported violations");
      }
      bench::AssertChecksClean(**engine, spec.name);
    }

    // The headline gate: no static plan beats the tuned pick.
    std::size_t beaten_by = 0;
    json.Key(spec.name).BeginObject();
    json.Field("tuned", pipeline::Name(tuned->best));
    json.Field("p99_us", NanosToMicros(tuned->best_p99_ns));
    json.Field("offered_qps", capacity_qps);
    json.Key("candidates").BeginArray(Layout::kLines);
    for (const auto& c : tuned->candidates) {
      UPDLRM_CHECK_MSG(c.calibrated,
                       "full calibration left a candidate unmeasured");
      const bool is_best = c.plan == tuned->best;
      if (c.measured_p99_ns < tuned->best_p99_ns) ++beaten_by;
      out.AddRow(
          {spec.name, pipeline::Name(c.plan),
           TablePrinter::Fmt(NanosToMicros(c.predicted_ns), 1),
           TablePrinter::Fmt(NanosToMicros(c.measured_p99_ns), 1),
           TablePrinter::FmtSpeedup(c.measured_p99_ns /
                                    tuned->best_p99_ns),
           is_best ? "tuned" : ""});
      json.BeginObject().Field("plan", pipeline::Name(c.plan));
      json.Field("predicted_us", NanosToMicros(c.predicted_ns));
      json.Field("p99_us", NanosToMicros(c.measured_p99_ns)).EndObject();
    }
    json.EndArray().EndObject();
    UPDLRM_CHECK_MSG(beaten_by == 0,
                     "a static data flow beat the tuned plan on " +
                         spec.name);
    std::printf("# %s: tuned %s holds p99 <= all %zu static plans at "
                "%.0f qps\n",
                spec.name.c_str(), pipeline::Name(tuned->best).c_str(),
                tuned->candidates.size(), capacity_qps);
  }
  out.Print(std::cout);

  json.EndObject().EndObject().Newline();
  const Status written =
      telemetry::WriteTextFile("BENCH_dataflow.json", json.str());
  UPDLRM_CHECK_MSG(written.ok(), written.ToString());
  std::printf(
      "\nevery enumerated data flow was calibrated with a real "
      "simulated serving run at 1.0x embedding capacity; 'vs tuned' = "
      "candidate p99 / tuned p99 (>= 1.00x everywhere is the tuner's "
      "dominance claim) -> BENCH_dataflow.json\n");
  return 0;
}
