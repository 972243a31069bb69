// Ablation: inter-batch pipelining of the embedding layer.
//
// The paper's execution is serial per batch (stage 1 -> 2 -> 3). Since
// stages 1/3 move data over the host's buses, stage 2 runs on the DPUs
// and the stage-3 aggregation on the host's cores, a double-buffered
// serving loop can overlap them across consecutive batches. This bench
// estimates the steady-state gain per workload and reports which
// resource (host transfers, DPU lookups or host cores) bounds the
// pipeline. Exits non-zero unless, on every workload, the
// three-resource bound is at most the executed schedule (relative
// tolerance 1e-9) and the executed schedule beats serial execution.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "serve/executor.h"
#include "updlrm/pipelining.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf(
      "== Ablation: inter-batch pipelining of the embedding layer "
      "(CA, auto Nc) ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);

  TablePrinter out({"workload", "serial (ms)", "bound (ms)",
                    "executed (ms)", "speedup", "bound by"});
  std::vector<std::string> failures;
  for (const auto& spec : trace::Table1Workloads()) {
    const bench::Workload w = bench::PrepareWorkload(spec, scale);
    auto system = bench::MakePaperSystem();
    auto engine = core::UpDlrmEngine::Create(
        nullptr, w.config, w.trace, system.get(),
        bench::PaperEngineOptions(partition::Method::kCacheAware, 0,
                                  scale));
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());

    std::vector<core::StageBreakdown> batches;
    for (const auto& range :
         trace::MakeBatches(scale.num_samples, scale.batch_size)) {
      auto batch = (*engine)->RunBatch(range, nullptr);
      UPDLRM_CHECK_MSG(batch.ok(), batch.status().ToString());
      batches.push_back(batch->stages);
    }
    const core::PipelineEstimate estimate =
        core::EstimatePipelinedEmbedding(batches);
    // The executed double-buffered schedule (serve/executor.h) under
    // the embedding-only plan (no dense costs), every batch available
    // up front — the realized counterpart of the three-resource
    // estimate. An embedding-only batch completes at its stage-3 end.
    serve::DataFlowExecutor executor(serve::DataFlowPlan{});
    for (const core::StageBreakdown& stages : batches) {
      serve::BatchTaskCosts costs;
      costs.emb = stages;
      executor.Submit(costs, executor.NextAdmitTime());
    }
    executor.Drain();
    const Nanos executed = executor.batches().back().s3_end_ns;
    out.AddRow({spec.name,
                TablePrinter::Fmt(estimate.serial_ns / 1e6, 2),
                TablePrinter::Fmt(estimate.pipelined_ns / 1e6, 2),
                TablePrinter::Fmt(executed / 1e6, 2),
                TablePrinter::FmtSpeedup(estimate.serial_ns / executed),
                std::string(core::ResourceName(estimate.Binding()))});
    if (estimate.pipelined_ns > executed * (1.0 + 1e-9)) {
      failures.push_back(spec.name + ": bound exceeds executed");
    }
    if (executed >= estimate.serial_ns) {
      failures.push_back(spec.name + ": executed does not beat serial");
    }
  }
  out.Print(std::cout);
  std::printf(
      "\na double-buffered serving loop overlaps stage-1/3 transfers, "
      "stage-2 kernels and stage-3 aggregation of adjacent batches; "
      "'bound' is the three-resource lower bound (updlrm/pipelining.h), "
      "'executed' the schedule realized by the serving executor "
      "(serve/executor.h), and speedup = serial / executed\n");
  for (const std::string& f : failures) std::printf("FAIL %s\n", f.c_str());
  return failures.empty() ? 0 : 1;
}
