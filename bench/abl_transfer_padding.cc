// Ablation: padded-parallel vs sequential host transfers.
//
// §2.2: host<->MRAM transfers run concurrently only when all buffers
// are equal-sized, otherwise sequentially. Non-uniform partitioning
// produces ragged per-DPU index buffers, so UpDLRM pads them to the
// batch maximum to stay on the parallel path. This ablation quantifies
// what the sequential fallback would cost.
//
// Gate: exits non-zero unless padding lowers both the stage-1 time and
// the embedding total below the ragged (sequential) run's.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf(
      "== Ablation: padded vs sequential stage-1/3 transfers (GoodReads, "
      "CA, Nc=8) ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);

  auto spec = trace::FindDataset("read");
  UPDLRM_CHECK(spec.ok());
  const bench::Workload w = bench::PrepareWorkload(*spec, scale);
  const std::vector<trace::TableProfile> profiles =
      bench::ProfileTables(w);
  const std::vector<cache::CacheRes> caches =
      bench::MineCaches(w, 0, &profiles);

  struct Mode {
    const char* name;
    bool pad;
  };
  const Mode modes[] = {{"padded (parallel)", true},
                        {"ragged (sequential)", false}};

  TablePrinter out({"transfer mode", "stage1 (us/batch)",
                    "stage3 (us/batch)", "embedding total (us/batch)"});
  // Indexed by Mode::pad: [0] ragged, [1] padded.
  double stage1[2] = {0.0, 0.0};
  double total[2] = {0.0, 0.0};
  for (const Mode& mode : modes) {
    auto system = bench::MakePaperSystem();
    core::EngineOptions options = bench::PaperEngineOptions(
        partition::Method::kCacheAware, 8, scale);
    options.premined_cache = &caches;
    options.preprofiled = &profiles;
    options.pad_transfers = mode.pad;
    options.wram_cache_rows = 0;
    auto engine = core::UpDlrmEngine::Create(nullptr, w.config, w.trace,
                                             system.get(), options);
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
    auto report = (*engine)->RunAll(nullptr);
    UPDLRM_CHECK_MSG(report.ok(), report.status().ToString());
    const auto batches = static_cast<double>(report->num_batches);
    stage1[mode.pad] = report->stages.cpu_to_dpu;
    total[mode.pad] = report->EmbeddingTotal();
    out.AddRow({mode.name,
                TablePrinter::FmtMicros(
                    report->stages.cpu_to_dpu / batches, 0),
                TablePrinter::FmtMicros(
                    report->stages.dpu_to_cpu / batches, 0),
                TablePrinter::FmtMicros(
                    report->EmbeddingTotal() / batches, 0)});
  }
  out.Print(std::cout);
  std::printf(
      "\nsequential fallback costs %.2fx the padded embedding time — "
      "why the engine pads (§2.2's equal-buffer rule)\n",
      total[0] / total[1]);
  const bool padding_wins = stage1[1] < stage1[0] && total[1] < total[0];
  std::printf("padding lowers stage 1 and the embedding total: %s\n",
              padding_wins ? "yes" : "NO");
  return padding_wins ? 0 : 1;
}
