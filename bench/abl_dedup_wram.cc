// Ablation: embedding hot-path levers — batch dedup, WRAM hot-row
// caching, coalesced transfer planning.
//
// Each lever targets one term of the Eq. 1-3 embedding decomposition:
// dedup shrinks the stage-1 index payload and the stage-2 MRAM lookup
// count at once; the WRAM tier serves the hottest resident rows without
// an MRAM DMA; the coalesced plan re-derives the padded-vs-ragged
// transfer choice from the actual (deduped) buffer sizes and amortizes
// the launch overhead. The table reports modeled embedding time per
// batch for every Table 1 dataset and partitioning method, one column
// per lever plus all three combined.
//
// Flags: --wram=N overrides the pinned rows per DPU (default 512).
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "pim/stats_summary.h"

namespace {

struct LeverConfig {
  const char* name;
  bool dedup;
  bool wram;
  bool coalesce;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf(
      "== Ablation: dedup / WRAM hot rows / coalesced transfers "
      "(Table 1 workloads, Nc=8) ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);
  const std::uint32_t pinned_rows = scale.wram > 0 ? scale.wram : 512;

  const partition::Method methods[] = {partition::Method::kUniform,
                                       partition::Method::kNonUniform,
                                       partition::Method::kCacheAware};
  const LeverConfig configs[] = {
      {"base", false, false, false},  {"+dedup", true, false, false},
      {"+wram", false, true, false},  {"+coalesce", false, false, true},
      {"all", true, true, true},
  };

  TablePrinter out({"dataset", "method", "base (us/batch)", "+dedup",
                    "+wram", "+coalesce", "all", "all vs base",
                    "wram hit%", "dedup saved%"});
  int datasets_meeting_bar = 0;
  int num_datasets = 0;
  for (const trace::DatasetSpec& spec : trace::Table1Workloads()) {
    ++num_datasets;
    const bench::Workload w = bench::PrepareWorkload(spec, scale);
    const std::vector<trace::TableProfile> profiles =
        bench::ProfileTables(w);
    const std::vector<cache::CacheRes> caches =
        bench::MineCaches(w, 0, &profiles);
    int methods_improved = 0;
    for (partition::Method method : methods) {
      std::vector<double> us_per_batch;
      double wram_share = 0.0, dedup_share = 0.0;
      for (const LeverConfig& cfg : configs) {
        auto system = bench::MakePaperSystem();
        core::EngineOptions options =
            bench::PaperEngineOptions(method, 8, scale);
        options.premined_cache = &caches;
        options.preprofiled = &profiles;
        options.dedup = cfg.dedup;
        options.wram_cache_rows = cfg.wram ? pinned_rows : 0;
        options.coalesce_transfers = cfg.coalesce;
        auto engine = core::UpDlrmEngine::Create(nullptr, w.config,
                                                 w.trace, system.get(),
                                                 options);
        UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
        auto report = (*engine)->RunAll(nullptr);
        UPDLRM_CHECK_MSG(report.ok(), report.status().ToString());
        bench::AssertChecksClean(
            **engine, std::string(spec.name) + "/" +
                          std::string(partition::MethodShortName(method)) +
                          "/" + cfg.name);
        us_per_batch.push_back(report->EmbeddingTotal() /
                               static_cast<double>(report->num_batches));
        if (cfg.dedup && cfg.wram && cfg.coalesce) {
          const pim::DpuStatsSummary stats =
              pim::SummarizeStats(*system);
          wram_share = stats.wram_hit_share;
          dedup_share = stats.dedup_saved_share;
        }
      }
      const double base = us_per_batch.front();
      const double all = us_per_batch.back();
      if (all < base) ++methods_improved;
      out.AddRow({std::string(spec.name),
                  std::string(partition::MethodShortName(method)),
                  TablePrinter::FmtMicros(base, 0),
                  TablePrinter::FmtMicros(us_per_batch[1], 0),
                  TablePrinter::FmtMicros(us_per_batch[2], 0),
                  TablePrinter::FmtMicros(us_per_batch[3], 0),
                  TablePrinter::FmtMicros(all, 0),
                  TablePrinter::Fmt(base / all, 2) + "x",
                  TablePrinter::FmtPercent(wram_share, 1),
                  TablePrinter::FmtPercent(dedup_share, 1)});
    }
    if (methods_improved >= 2) ++datasets_meeting_bar;
  }
  out.Print(std::cout);
  std::printf(
      "\nall levers on improve embedding latency for >=2 of {U, NU, CA} "
      "on %d/%d datasets (%u WRAM rows pinned per DPU; each lever off "
      "is bit-identical to the baseline engine)\n",
      datasets_meeting_bar, num_datasets, pinned_rows);
  return datasets_meeting_bar == num_datasets ? 0 : 1;
}
