// The data-flow auto-tuner: deterministic candidate search, calibrated
// winner selection, dominance over every static plan in full-calibration
// mode, and the per-shape memo.
#include "pipeline/tuner.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/stats.h"
#include "pipeline/runner.h"
#include "trace/generator.h"

namespace updlrm::pipeline {
namespace {

struct Fixture {
  dlrm::DlrmConfig config;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  std::unique_ptr<core::UpDlrmEngine> engine;
};

Fixture MakeFixture(std::size_t samples = 96) {
  Fixture f;
  f.config.num_tables = 2;
  f.config.rows_per_table = 600;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  f.config.seed = 31;

  trace::DatasetSpec spec;
  spec.name = "tune";
  spec.num_items = 600;
  spec.avg_reduction = 12.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = 31;
  trace::TraceGeneratorOptions options;
  options.num_samples = samples;
  options.num_tables = 2;
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  f.trace = std::move(t).value();

  pim::DpuSystemConfig sys;
  sys.num_dpus = 8;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = false;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();

  core::EngineOptions engine_options;
  engine_options.method = partition::Method::kCacheAware;
  engine_options.nc = 4;
  engine_options.batch_size = 16;
  engine_options.reserved_io_bytes = 128 * kKiB;
  engine_options.grace.num_hot_items = 96;
  auto engine = core::UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                           f.system.get(), engine_options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  f.engine = std::move(engine).value();
  return f;
}

std::vector<serve::Request> Arrivals(const trace::Trace& trace,
                                     double qps) {
  serve::ArrivalOptions options;
  options.process = serve::ArrivalProcess::kPoisson;
  options.qps = qps;
  options.seed = 7;
  auto requests = serve::GenerateRequests(trace, 0, options);
  UPDLRM_CHECK(requests.ok());
  return std::move(requests).value();
}

serve::BatcherOptions Batcher() {
  serve::BatcherOptions options;
  options.max_batch_size = 16;
  options.max_queue_delay_ns = 1.0e6;
  return options;
}

TunerOptions SmallSearch() {
  TunerOptions options;
  options.max_depth = 3;
  options.calibrate_top_n = 3;
  return options;
}

TEST(TunerTest, PicksACalibratedWinnerDeterministically) {
  Fixture f = MakeFixture();
  const auto requests = Arrivals(f.trace, 1.0e6);
  DataFlowTuner a(SmallSearch());
  auto first = a.Tune(*f.engine, requests, Batcher());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->from_cache);
  EXPECT_FALSE(first->candidates.empty());
  EXPECT_GT(first->best_p99_ns, 0.0);
  std::size_t calibrated = 0;
  for (const auto& c : first->candidates) {
    EXPECT_GT(c.predicted_ns, 0.0) << Name(c.plan);
    if (c.calibrated) {
      ++calibrated;
      EXPECT_GE(c.measured_p99_ns, 0.0);
    } else {
      EXPECT_LT(c.measured_p99_ns, 0.0);
    }
  }
  EXPECT_EQ(calibrated, 3u);

  // A fresh tuner over the same inputs lands on the same plan.
  DataFlowTuner b(SmallSearch());
  auto second = b.Tune(*f.engine, requests, Batcher());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->best, first->best);
  EXPECT_EQ(second->best_p99_ns, first->best_p99_ns);
}

TEST(TunerTest, MemoizesPerModelShapeAndBatchSize) {
  Fixture f = MakeFixture();
  const auto requests = Arrivals(f.trace, 1.0e6);
  DataFlowTuner tuner(SmallSearch());
  auto first = tuner.Tune(*f.engine, requests, Batcher());
  ASSERT_TRUE(first.ok());
  auto again = tuner.Tune(*f.engine, requests, Batcher());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
  EXPECT_EQ(again->best, first->best);
  // A different batch size is a different decision point.
  serve::BatcherOptions other = Batcher();
  other.max_batch_size = 4;
  auto smaller = tuner.Tune(*f.engine, requests, other);
  ASSERT_TRUE(smaller.ok());
  EXPECT_FALSE(smaller->from_cache);
}

TEST(TunerTest, FullCalibrationDominatesEveryStaticPlan) {
  Fixture f = MakeFixture();
  const auto requests = Arrivals(f.trace, 1.0e6);
  TunerOptions options = SmallSearch();
  options.calibrate_top_n = 0;  // calibrate everything
  DataFlowTuner tuner(options);
  auto tuned = tuner.Tune(*f.engine, requests, Batcher());
  ASSERT_TRUE(tuned.ok());
  for (const auto& c : tuned->candidates) {
    ASSERT_TRUE(c.calibrated) << Name(c.plan);
    EXPECT_LE(tuned->best_p99_ns, c.measured_p99_ns) << Name(c.plan);
  }
  // The winner's calibration replays identically outside the tuner.
  DataFlowServeOptions serve_options;
  serve_options.batcher = Batcher();
  serve_options.plan = tuned->best;
  auto replay = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      serve_options);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(NearestRank(replay->request_latency_ns, 99.0),
            tuned->best_p99_ns);
}

// Plans whose dense stages never reach the tail can score exactly the
// same exact p99; the documented tie-break then decides: the lower
// prediction, then the lower enumeration index.
TEST(TunerTest, EqualMeasuredP99FallsToPredictionThenEnumeration) {
  Fixture f = MakeFixture();
  const auto requests = Arrivals(f.trace, 1.0e6);
  TunerOptions options = SmallSearch();
  options.calibrate_top_n = 0;  // calibrate everything
  DataFlowTuner tuner(options);
  auto tuned = tuner.Tune(*f.engine, requests, Batcher());
  ASSERT_TRUE(tuned.ok());
  const std::vector<CandidateOutcome>& c = tuned->candidates;
  std::size_t best = c.size();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i].plan == tuned->best) best = i;
  }
  ASSERT_LT(best, c.size());
  std::size_t ties = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i == best || c[i].measured_p99_ns != c[best].measured_p99_ns) {
      continue;
    }
    ++ties;
    EXPECT_TRUE(c[best].predicted_ns < c[i].predicted_ns ||
                (c[best].predicted_ns == c[i].predicted_ns && best < i))
        << Name(c[i].plan) << " ties " << Name(tuned->best);
  }
  EXPECT_GT(ties, 0u) << "the fixture must exercise an exact tie";
}

TEST(TunerTest, RespectsGpuAvailability) {
  Fixture f = MakeFixture();
  const auto requests = Arrivals(f.trace, 1.0e6);
  TunerOptions options = SmallSearch();
  options.gpu_available = false;
  DataFlowTuner tuner(options);
  auto tuned = tuner.Tune(*f.engine, requests, Batcher());
  ASSERT_TRUE(tuned.ok());
  for (const auto& c : tuned->candidates) {
    EXPECT_EQ(c.plan.bottom, Backend::kCpu) << Name(c.plan);
    EXPECT_EQ(c.plan.top, Backend::kCpu) << Name(c.plan);
  }
}

TEST(TunerTest, RejectsAnEmptyStream) {
  Fixture f = MakeFixture();
  DataFlowTuner tuner(SmallSearch());
  auto tuned = tuner.Tune(*f.engine, {}, Batcher());
  EXPECT_FALSE(tuned.ok());
}

TEST(TunerTest, RejectsInvalidGpuParams) {
  Fixture f = MakeFixture();
  TunerOptions options = SmallSearch();
  options.gpu.mlp_efficiency = 0.0;
  DataFlowTuner tuner(options);
  auto tuned = tuner.Tune(*f.engine, Arrivals(f.trace, 1.0e6), Batcher());
  ASSERT_FALSE(tuned.ok());
  EXPECT_EQ(tuned.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace updlrm::pipeline
