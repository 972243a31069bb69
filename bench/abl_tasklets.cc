// Ablation: tasklet count vs DPU lookup time.
//
// The paper runs 14 tasklets per DPU (§4.1) and credits the tasklet
// pipeline with masking MRAM latency (§4.4). This ablation sweeps the
// tasklet count on the GoodReads workload to show the saturation point
// near the 11-stage revolver depth — the design rationale for 14.
// Exits non-zero unless lookup time never rises as tasklets grow, 14
// tasklets sit within 1% of the sweep's minimum, and 8 tasklets are at
// least 10% slower than 14.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf("== Ablation: tasklets per DPU vs lookup time (GoodReads, "
              "CA, Nc=8) ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);

  auto spec = trace::FindDataset("read");
  UPDLRM_CHECK(spec.ok());
  const bench::Workload w = bench::PrepareWorkload(*spec, scale);
  const std::vector<trace::TableProfile> profiles =
      bench::ProfileTables(w);
  const std::vector<cache::CacheRes> caches =
      bench::MineCaches(w, 0, &profiles);

  TablePrinter out(
      {"tasklets", "lookup time (us/batch)", "speedup vs 1 tasklet"});
  double t1 = 0.0;
  double prev = std::numeric_limits<double>::infinity();
  double t_min = prev;
  double t8 = 0.0;
  double t14 = 0.0;
  bool rose = false;
  for (std::uint32_t tasklets : {1u, 2u, 4u, 8u, 11u, 14u, 16u, 24u}) {
    pim::DpuSystemConfig config;
    config.functional = false;
    config.dpu.num_tasklets = tasklets;
    auto system = pim::DpuSystem::Create(config);
    UPDLRM_CHECK(system.ok());
    core::EngineOptions options = bench::PaperEngineOptions(
        partition::Method::kCacheAware, 8, scale);
    options.premined_cache = &caches;
    options.preprofiled = &profiles;
    auto engine = core::UpDlrmEngine::Create(
        nullptr, w.config, w.trace, system->get(), options);
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
    auto report = (*engine)->RunAll(nullptr);
    UPDLRM_CHECK_MSG(report.ok(), report.status().ToString());
    const double t = report->stages.dpu_lookup /
                     static_cast<double>(report->num_batches);
    if (tasklets == 1) t1 = t;
    if (tasklets == 8) t8 = t;
    if (tasklets == 14) t14 = t;
    rose = rose || t > prev;
    prev = t;
    t_min = std::min(t_min, t);
    out.AddRow({std::to_string(tasklets),
                TablePrinter::FmtMicros(t, 0),
                TablePrinter::FmtSpeedup(t1 / t)});
  }
  out.Print(std::cout);
  std::printf(
      "\nexpected: near-linear gains until ~11 tasklets (the revolver "
      "pipeline depth), then saturation — the paper's 14 sits safely on "
      "the plateau\n");
  std::vector<const char*> failures;
  if (rose) failures.push_back("lookup time rises as tasklets grow");
  if (t14 > 1.01 * t_min) {
    failures.push_back("14 tasklets sit more than 1% above the minimum");
  }
  if (t8 < 1.10 * t14) {
    failures.push_back("8 tasklets are less than 10% slower than 14");
  }
  for (const char* f : failures) std::printf("FAIL %s\n", f);
  return failures.empty() ? 0 : 1;
}
