// Regression guards for the paper's quantitative claims, at reduced
// scale. The benches print these as tables; these tests pin the shapes
// so calibration drift is caught by tests rather than by eyeballing
// bench output. Scales are small (sub-second), so tolerances are loose —
// the *direction* of every claim is what is asserted.
#include <gtest/gtest.h>

#include <memory>

#include "pim/system.h"
#include "trace/generator.h"
#include "trace/profiler.h"
#include "updlrm/engine.h"

namespace updlrm {
namespace {

// -------------------------------------------------- Fig. 3 (MRAM curve)

TEST(PaperClaims, Fig3MramCurveShape) {
  const pim::MramTimingModel model;
  // Flat 8..32 B.
  EXPECT_EQ(model.AccessLatency(8), model.AccessLatency(32));
  // The paper's Fig. 3 spans roughly an order of magnitude from 8 B to
  // 2 KB; our curve is 10.6x.
  const double ratio = static_cast<double>(model.AccessLatency(2048)) /
                       static_cast<double>(model.AccessLatency(8));
  EXPECT_GT(ratio, 8.0);
  EXPECT_LT(ratio, 14.0);
  // §2.2: ~800 MB/s peak MRAM-WRAM bandwidth.
  const double bw = model.StreamingBandwidth(2048, 350.0e6);
  EXPECT_GT(bw, 0.7e9 * 0.9);
  EXPECT_LT(bw, 0.9e9 * 1.2);
}

// ------------------------------------------ Fig. 11 (lookup sensitivity)

struct SensitivityWorld {
  dlrm::DlrmConfig config;
  std::unique_ptr<pim::DpuSystem> system;
};

Nanos LookupTime(double avg_red, std::uint32_t nc) {
  const trace::DatasetSpec spec =
      trace::MakeBalancedSyntheticSpec(200'000, avg_red);
  trace::TraceGeneratorOptions options;
  options.num_samples = 192;
  options.num_tables = 8;
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());

  dlrm::DlrmConfig config;
  config.num_tables = 8;
  config.rows_per_table = 200'000;
  config.embedding_dim = 32;
  pim::DpuSystemConfig sys;  // the Table 2 system
  sys.functional = false;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());

  core::EngineOptions engine_options;
  engine_options.method = partition::Method::kUniform;
  engine_options.nc = nc;
  engine_options.wram_cache_rows = 0;  // Fig. 11 times the paper's kernel
  auto engine = core::UpDlrmEngine::Create(nullptr, config, *t,
                                           system->get(), engine_options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
  auto report = (*engine)->RunAll(nullptr);
  UPDLRM_CHECK(report.ok());
  return report->stages.dpu_lookup /
         static_cast<double>(report->num_batches);
}

TEST(PaperClaims, Fig11EightByteSeriesGrowsNearLinearly) {
  // Paper: 406 -> 1786 us (4.4x) from reduction 50 -> 300 at 8 B.
  const Nanos low = LookupTime(50, 2);
  const Nanos high = LookupTime(300, 2);
  const double growth = high / low;
  EXPECT_GT(growth, 3.0);
  EXPECT_LT(growth, 6.0);
  // And the absolute magnitudes land in the paper's ballpark.
  EXPECT_GT(low / 1e3, 200.0);   // us
  EXPECT_LT(low / 1e3, 800.0);
  EXPECT_GT(high / 1e3, 1000.0);
  EXPECT_LT(high / 1e3, 3000.0);
}

TEST(PaperClaims, Fig11WiderReadsGrowSlower) {
  // Paper: the >= 64 B series grows far slower with reduction.
  const double growth_8b = LookupTime(300, 2) / LookupTime(50, 2);
  const double growth_64b = LookupTime(300, 16) / LookupTime(50, 16);
  EXPECT_LT(growth_64b, growth_8b * 0.75);
}

TEST(PaperClaims, Fig11EightToThirtyTwoBytesCutsLookupTime) {
  // §4.4: growing the lookup size 8 B -> 32 B cuts the lookup time.
  EXPECT_LT(LookupTime(300, 8), LookupTime(300, 2) * 0.6);
}

// ------------------------------------------------- §3.3 (cache capacity)

TEST(PaperClaims, Sec33CacheCapacityMonotone) {
  trace::DatasetSpec spec;
  spec.name = "sec33";
  spec.num_items = 50'000;
  spec.avg_reduction = 64.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 2048;
  spec.seed = 33;
  trace::TraceGeneratorOptions toptions;
  toptions.num_samples = 256;
  toptions.num_tables = 4;
  auto t = trace::TraceGenerator(spec).Generate(toptions);
  ASSERT_TRUE(t.ok());

  dlrm::DlrmConfig config;
  config.num_tables = 4;
  config.rows_per_table = 50'000;
  config.embedding_dim = 32;

  auto lookup_at = [&](double fraction) {
    pim::DpuSystemConfig sys;
    sys.num_dpus = 32;
    sys.dpus_per_rank = 32;
    sys.functional = false;
    auto system = pim::DpuSystem::Create(sys);
    UPDLRM_CHECK(system.ok());
    core::EngineOptions options;
    options.method = partition::Method::kCacheAware;
    options.nc = 8;
    options.cache_capacity_fraction = fraction;
    options.grace.num_hot_items = 2048;
    options.wram_cache_rows = 0;  // §3.3 times the paper's kernel
    auto engine = core::UpDlrmEngine::Create(nullptr, config, *t,
                                             system->get(), options);
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
    auto report = (*engine)->RunAll(nullptr);
    UPDLRM_CHECK(report.ok());
    return report->stages.dpu_lookup;
  };

  const Nanos at40 = lookup_at(0.4);
  const Nanos at70 = lookup_at(0.7);
  const Nanos at100 = lookup_at(1.0);
  // Larger cache => lower (or equal) lookup time, as in §3.3.
  EXPECT_LE(at70, at40 * 1.001);
  EXPECT_LE(at100, at70 * 1.001);
  EXPECT_LT(at100, at40);
}

// -------------------------------------------------- Fig. 5 (block skew)

TEST(PaperClaims, Fig5TraceStudyDatasetsAreStronglySkewed) {
  for (const auto& spec : trace::AccessPatternDatasets()) {
    trace::TraceGeneratorOptions options;
    options.num_samples = 384;
    options.num_tables = 1;
    auto t = trace::TraceGenerator(spec).Generate(options);
    ASSERT_TRUE(t.ok()) << spec.name;
    const auto freq =
        trace::ItemFrequencies(t->tables[0], spec.num_items);
    const auto blocks = trace::RowBlockCounts(freq, 8);
    const auto skew = trace::AnalyzeSkew(blocks);
    // The paper reports up to ~340x; every dataset shows at least an
    // order of magnitude.
    EXPECT_GT(skew.max_min_ratio, 10.0) << spec.name;
    EXPECT_GT(skew.top_block_share, 0.5) << spec.name;
  }
}

}  // namespace
}  // namespace updlrm
