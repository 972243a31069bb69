// Extension (§6 future work): UpDLRM-G, the DPU-GPU heterogeneous
// system.
//
// Embeddings stay on the DPUs; the MLP stacks move to the GPU. Both
// systems are priced by the data-flow model the tuner and the e2e
// serving path use (pipeline/dataflow): every executed batch is costed
// under the all-CPU plan (UpDLRM) and the all-GPU plan (UpDLRM-G) and
// run alone through the data-flow executor, so the two columns differ
// only in where the dense stages execute. At the paper's batch 64 with
// compact MLPs the PCIe/launch/sync overheads exceed the CPU's MLP
// time — the same effect that sinks DLRM-Hybrid — so this bench sweeps
// batch size and MLP width to locate the crossover where the
// heterogeneous system starts paying off.
//
// Exits non-zero unless UpDLRM wins compact@64 and UpDLRM-G wins
// production@1024.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "pipeline/dataflow.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf(
      "== Extension: UpDLRM vs UpDLRM-G (DPU embeddings + GPU MLPs) "
      "==\n\n");
  bench::BenchScale scale = bench::ParseScale(argc, argv);

  auto spec = trace::FindDataset("read");
  UPDLRM_CHECK(spec.ok());

  struct MlpShape {
    const char* name;
    std::vector<std::uint32_t> bottom;
    std::vector<std::uint32_t> top;
  };
  const MlpShape shapes[] = {
      {"compact (64-32 / 96-64)", {64, 32}, {96, 64}},
      {"production (512-256-64 / 1024-512-256)",
       {512, 256, 64},
       {1024, 512, 256}},
  };
  // UpDLRM keeps every dense stage on the host; UpDLRM-G offloads
  // both. Depth 1: each batch is timed alone, as one request path.
  const pipeline::DataFlowPlan cpu_plan{.depth = 1,
                                        .bottom_split = 0,
                                        .bottom = pipeline::Backend::kCpu,
                                        .top = pipeline::Backend::kCpu};
  const pipeline::DataFlowPlan gpu_plan{.depth = 1,
                                        .bottom_split = 0,
                                        .bottom = pipeline::Backend::kGpu,
                                        .top = pipeline::Backend::kGpu};
  const host::GpuTimingModel gpu;

  TablePrinter out({"MLP stack", "batch", "UpDLRM (ms/batch)",
                    "UpDLRM-G (ms/batch)", "winner"});
  bool gate_ok = true;
  for (std::size_t s = 0; s < std::size(shapes); ++s) {
    const MlpShape& shape = shapes[s];
    for (std::size_t batch : {64ul, 256ul, 1024ul}) {
      bench::BenchScale run_scale = scale;
      run_scale.batch_size = batch;
      // Keep the batch count constant across batch sizes.
      run_scale.num_samples = batch * 10;
      bench::Workload w = bench::PrepareWorkload(*spec, run_scale);
      w.config.bottom_hidden = shape.bottom;
      w.config.top_hidden = shape.top;

      auto system = bench::MakePaperSystem();
      auto engine = core::UpDlrmEngine::Create(
          nullptr, w.config, w.trace, system.get(),
          bench::PaperEngineOptions(partition::Method::kNonUniform, 8,
                                    run_scale));
      UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());

      // Completion of one batch scheduled alone under `plan`.
      auto latency = [&](const core::BatchResult& result,
                         std::size_t samples,
                         const pipeline::DataFlowPlan& plan) {
        serve::DataFlowExecutor executor(plan);
        executor.Submit(
            pipeline::ComputeBatchTaskCosts(w.config,
                                            (*engine)->cpu_model(), gpu,
                                            result, samples, plan),
            0.0);
        executor.Drain();
        return executor.batches()[0].done_ns;
      };
      Nanos cpu_total = 0.0;
      Nanos gpu_total = 0.0;
      std::size_t num_batches = 0;
      for (const trace::BatchRange& range :
           trace::MakeBatches(w.trace.num_samples(), batch)) {
        auto result = (*engine)->RunBatch(range, nullptr);
        UPDLRM_CHECK_MSG(result.ok(), result.status().ToString());
        cpu_total += latency(*result, range.size(), cpu_plan);
        gpu_total += latency(*result, range.size(), gpu_plan);
        ++num_batches;
      }

      const double t_cpu = cpu_total / num_batches / 1e6;
      const double t_gpu = gpu_total / num_batches / 1e6;
      const bool gpu_wins = t_gpu <= t_cpu;
      out.AddRow({shape.name, std::to_string(batch),
                  TablePrinter::Fmt(t_cpu, 3), TablePrinter::Fmt(t_gpu, 3),
                  gpu_wins ? "UpDLRM-G" : "UpDLRM"});
      if (s == 0 && batch == 64 && gpu_wins) gate_ok = false;
      if (s == 1 && batch == 1024 && !gpu_wins) gate_ok = false;
    }
  }
  out.Print(std::cout);
  std::printf(
      "\nexpected: CPU-side MLPs win at the paper's batch 64 with "
      "compact stacks (PCIe + sync overheads dominate, as for "
      "DLRM-Hybrid); the GPU side pays off for production-width stacks "
      "and large batches\n");
  if (!gate_ok) {
    std::printf(
        "FAIL: expected UpDLRM to win compact@64 and UpDLRM-G to win "
        "production@1024\n");
    return 1;
  }
  return 0;
}
