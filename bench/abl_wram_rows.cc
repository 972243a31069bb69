// Ablation: the WRAM hot-row tier (EngineOptions::wram_cache_rows).
//
// The tier pins each bin's hottest EMT-resident rows into the DPU's
// WRAM at setup; lookups that hit it skip the MRAM DMA, so it shrinks
// the stage-2 term of the Eq. 1-3 embedding decomposition and leaves
// stages 1 and 3 unchanged. The table reports modeled embedding time
// per batch for every Table 1 dataset and partitioning method, with
// the tier off (base, the paper's kernel) and on at the engine's
// default (+wram: as many rows as fit WRAM).
//
// Gate: exits non-zero if +wram raises us/batch on any dataset x
// method row.
//
// Flags: --wram=N pins N rows per DPU instead of the default.
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "common/table.h"
#include "pim/stats_summary.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf(
      "== Ablation: WRAM hot-row tier (Table 1 workloads, Nc=8) ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);
  const std::uint32_t pinned_rows =
      scale.wram > 0 ? scale.wram : core::EngineOptions{}.wram_cache_rows;

  const partition::Method methods[] = {partition::Method::kUniform,
                                       partition::Method::kNonUniform,
                                       partition::Method::kCacheAware};

  TablePrinter out({"dataset", "method", "base (us/batch)", "+wram",
                    "+wram vs base", "wram hit%"});
  int rows_raised = 0;
  int rows_lowered = 0;
  int num_rows = 0;
  for (const trace::DatasetSpec& spec : trace::Table1Workloads()) {
    const bench::Workload w = bench::PrepareWorkload(spec, scale);
    const std::vector<trace::TableProfile> profiles =
        bench::ProfileTables(w);
    const std::vector<cache::CacheRes> caches =
        bench::MineCaches(w, 0, &profiles);
    for (partition::Method method : methods) {
      double us_per_batch[2] = {0.0, 0.0};
      double wram_share = 0.0;
      for (const bool wram : {false, true}) {
        auto system = bench::MakePaperSystem();
        core::EngineOptions options =
            bench::PaperEngineOptions(method, 8, scale);
        options.premined_cache = &caches;
        options.preprofiled = &profiles;
        options.wram_cache_rows = wram ? pinned_rows : 0;
        auto engine = core::UpDlrmEngine::Create(nullptr, w.config,
                                                 w.trace, system.get(),
                                                 options);
        UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
        auto report = (*engine)->RunAll(nullptr);
        UPDLRM_CHECK_MSG(report.ok(), report.status().ToString());
        bench::AssertChecksClean(
            **engine, std::string(spec.name) + "/" +
                          std::string(partition::MethodShortName(method)) +
                          (wram ? "/+wram" : "/base"));
        us_per_batch[wram ? 1 : 0] =
            report->EmbeddingTotal() /
            static_cast<double>(report->num_batches);
        if (wram) wram_share = pim::SummarizeStats(*system).wram_hit_share;
      }
      const double base = us_per_batch[0];
      const double with_wram = us_per_batch[1];
      ++num_rows;
      if (with_wram > base) ++rows_raised;
      if (with_wram < base) ++rows_lowered;
      out.AddRow({std::string(spec.name),
                  std::string(partition::MethodShortName(method)),
                  TablePrinter::FmtMicros(base, 0),
                  TablePrinter::FmtMicros(with_wram, 0),
                  TablePrinter::Fmt(base / with_wram, 2) + "x",
                  TablePrinter::FmtPercent(wram_share, 1)});
    }
  }
  out.Print(std::cout);
  const std::string rows =
      pinned_rows == core::kWramRowsAsFit ? std::string("as many rows as fit")
                                          : std::to_string(pinned_rows) +
                                                " rows";
  std::printf(
      "\n+wram (%s pinned per DPU) lowers us/batch on %d/%d rows and "
      "raises it on %d; pooled outputs are bit-identical with the tier on "
      "or off\n",
      rows.c_str(), rows_lowered, num_rows, rows_raised);
  if (rows_raised > 0) std::printf("FAIL +wram raised us/batch\n");
  return rows_raised == 0 ? 0 : 1;
}
