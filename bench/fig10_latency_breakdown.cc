// Figure 10: latency breakdown of the embedding layer (GoodReads).
//
// Paper result: decomposing embedding time into stage 1 (CPU->DPU),
// stage 2 (DPU lookup) and stage 3 (DPU->CPU) for U/NU/CA x Nc=2/4/8:
// (1) CA cuts the lookup share from 71-77% to 43-52% — caching removes
// the stage-2 bottleneck; (2) growing Nc shrinks the stage-1 share
// (fewer lookups per DPU) and grows the stage-3 share (wider partial
// results), e.g. CA: stage 1 31%->21%, stage 3 17%->35% from Nc=2 to 8.
#include <cstdio>
#include <iostream>
#include <optional>

#include "bench_common.h"
#include "common/table.h"
#include "pim/stats_summary.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf(
      "== Figure 10: embedding-layer latency breakdown (GoodReads) ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);
  bench::HostTimer timer("fig10_latency_breakdown", scale);

  timer.BeginPhase("setup");
  auto spec = trace::FindDataset("read");
  UPDLRM_CHECK(spec.ok());
  const bench::Workload w = bench::PrepareWorkload(*spec, scale);
  const std::vector<trace::TableProfile> profiles =
      bench::ProfileTables(w);
  const std::vector<cache::CacheRes> caches =
      bench::MineCaches(w, 0, &profiles);

  const partition::Method methods[] = {partition::Method::kUniform,
                                       partition::Method::kNonUniform,
                                       partition::Method::kCacheAware};

  // The WRAM counter column reconciles the stage shares with the
  // Eq. 1-3 terms: it is 0% with the WRAM tier off; pass --wram=N to
  // see how the tier shifts the breakdown.
  TablePrinter out({"method", "Nc", "stage1 CPU->DPU", "stage2 lookup",
                    "stage3 DPU->CPU", "total (ms/batch)", "wram hit%"});
  double ca_lookup_share_min = 1.0, ca_lookup_share_max = 0.0;
  double other_lookup_share_min = 1.0, other_lookup_share_max = 0.0;
  std::vector<std::vector<std::string>> stragglers;
  for (partition::Method method : methods) {
    for (std::uint32_t nc : {2u, 4u, 8u}) {
      const std::string label =
          std::string(partition::MethodShortName(method)) + "/nc" +
          std::to_string(nc);
      timer.BeginPhase("setup");
      // --trace-out captures the last configuration (CA, Nc=8): sim
      // clocks restart at 0 per run, so one trace holds one run.
      std::optional<bench::TraceSession> trace_session;
      if (method == partition::Method::kCacheAware && nc == 8) {
        trace_session.emplace(scale);
      }
      auto system = bench::MakePaperSystem();
      core::EngineOptions options =
          bench::PaperEngineOptions(method, nc, scale);
      options.premined_cache = &caches;
      options.preprofiled = &profiles;
      auto engine = core::UpDlrmEngine::Create(nullptr, w.config, w.trace,
                                               system.get(), options);
      UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
      timer.BeginPhase("run_batches");
      auto report = (*engine)->RunAll(nullptr);
      UPDLRM_CHECK_MSG(report.ok(), report.status().ToString());
      trace_session.reset();  // write + validate the trace, if tracing
      bench::AssertChecksClean(**engine, label);

      // Stage shares over the three transfer/lookup stages, as in the
      // paper's stacked bars.
      const double stages_total = report->stages.cpu_to_dpu +
                                  report->stages.dpu_lookup +
                                  report->stages.dpu_to_cpu;
      const double s1 = report->stages.cpu_to_dpu / stages_total;
      const double s2 = report->stages.dpu_lookup / stages_total;
      const double s3 = report->stages.dpu_to_cpu / stages_total;
      if (method == partition::Method::kCacheAware) {
        ca_lookup_share_min = std::min(ca_lookup_share_min, s2);
        ca_lookup_share_max = std::max(ca_lookup_share_max, s2);
      } else {
        other_lookup_share_min = std::min(other_lookup_share_min, s2);
        other_lookup_share_max = std::max(other_lookup_share_max, s2);
      }
      pim::DpuStatsSummary stats = pim::SummarizeStats(*system);
      stats.check_violations = (*engine)->check_violations();
      pim::ExportStats(stats, telemetry::MetricsRegistry::Global(),
                       "pim." + label);
      for (auto& row : bench::StragglerRows(**engine, label)) {
        stragglers.push_back(std::move(row));
      }
      out.AddRow({std::string(partition::MethodShortName(method)),
                  std::to_string(nc), TablePrinter::FmtPercent(s1, 0),
                  TablePrinter::FmtPercent(s2, 0),
                  TablePrinter::FmtPercent(s3, 0),
                  TablePrinter::Fmt(
                      stages_total / 1e6 /
                          static_cast<double>(report->num_batches),
                      3),
                  TablePrinter::FmtPercent(stats.wram_hit_share, 1)});
    }
  }
  out.Print(std::cout);

  std::printf("\n== straggler report: top-%d slowest DPUs per config ==\n\n",
              3);
  TablePrinter straggler_table(bench::kStragglerColumns);
  for (auto& row : stragglers) straggler_table.AddRow(std::move(row));
  straggler_table.Print(std::cout);

  std::printf(
      "\npaper: CA lookup share 43-52%% vs 71-77%% for U/NU; measured: "
      "CA %.0f-%.0f%%, U/NU %.0f-%.0f%%\n",
      ca_lookup_share_min * 100, ca_lookup_share_max * 100,
      other_lookup_share_min * 100, other_lookup_share_max * 100);
  std::printf(
      "paper: with Nc 2->8, stage-1 share falls (31%%->21%%) and stage-3 "
      "share rises (17%%->35%%) — compare the CA rows above\n");
  return 0;
}
