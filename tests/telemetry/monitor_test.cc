// Fleet-health monitor: every detector family (drift / SLO burn /
// stragglers), the simulated-time windowing machinery, the JSONL
// schema checker, and the registry export.
#include "telemetry/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/health.h"

namespace updlrm::telemetry {
namespace {

// Zipf-ish baseline over `n` items: freq[i] = total / (i + 1), with
// the tail after `nonzero` items all zero.
std::vector<std::uint64_t> MakeFreq(std::size_t n, std::size_t nonzero) {
  std::vector<std::uint64_t> freq(n, 0);
  for (std::size_t i = 0; i < nonzero; ++i) {
    freq[i] = 1000 / (i + 1) + 1;
  }
  return freq;
}

std::vector<std::uint32_t> MakeByFreq(
    const std::vector<std::uint64_t>& freq) {
  // The synthetic freq above is already descending.
  std::vector<std::uint32_t> by_freq(freq.size());
  for (std::size_t i = 0; i < freq.size(); ++i) {
    by_freq[i] = static_cast<std::uint32_t>(i);
  }
  return by_freq;
}

// A window that resamples the baseline distribution exactly.
std::map<std::uint32_t, std::uint64_t> BaselineWindow(
    const std::vector<std::uint64_t>& freq) {
  std::map<std::uint32_t, std::uint64_t> counts;
  for (std::size_t i = 0; i < freq.size(); ++i) {
    if (freq[i] > 0) counts[static_cast<std::uint32_t>(i)] = freq[i];
  }
  return counts;
}

// A window whose mass sits entirely on baseline-unseen items.
std::map<std::uint32_t, std::uint64_t> ShiftedWindow(std::size_t n,
                                                     std::size_t nonzero) {
  std::map<std::uint32_t, std::uint64_t> counts;
  for (std::size_t i = nonzero; i < n; ++i) {
    counts[static_cast<std::uint32_t>(i)] = 10;
  }
  return counts;
}

// --- drift ------------------------------------------------------------

TEST(DriftBaselineTest, MassSumsToOneAndTopKIsSorted) {
  const auto freq = MakeFreq(64, 48);
  const DriftOptions options;
  const DriftBaseline b =
      BuildDriftBaseline(freq, MakeByFreq(freq), options);
  double mass = 0.0;
  for (const double m : b.bucket_mass) mass += m;
  EXPECT_NEAR(mass, 1.0, 1e-12);
  EXPECT_EQ(b.bucket_mass.back(), 0.0);  // unseen bucket: no baseline mass
  EXPECT_EQ(b.top_items.size(), std::min<std::size_t>(options.top_k, 48));
  EXPECT_TRUE(std::is_sorted(b.top_items.begin(), b.top_items.end()));
  EXPECT_EQ(b.item_bucket.size(), freq.size());
  // Zero-frequency items map to the trailing unseen bucket.
  EXPECT_EQ(b.item_bucket[63],
            static_cast<std::int32_t>(b.bucket_mass.size() - 1));
}

TEST(DriftDetectorTest, StationaryWindowIsGood) {
  const auto freq = MakeFreq(64, 48);
  DriftDetector detector(
      BuildDriftBaseline(freq, MakeByFreq(freq), DriftOptions{}),
      DriftOptions{});
  const auto v = detector.JudgeWindow(BaselineWindow(freq));
  EXPECT_TRUE(v.judged);
  EXPECT_NEAR(v.tv_distance, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(v.topk_jaccard, 1.0);
  EXPECT_FALSE(v.alerting);
  EXPECT_EQ(detector.bad_windows(), 0u);
}

TEST(DriftDetectorTest, HysteresisTripsAndClears) {
  const auto freq = MakeFreq(64, 32);
  const DriftOptions options;  // trip 2, clear 2
  DriftDetector detector(
      BuildDriftBaseline(freq, MakeByFreq(freq), options), options);
  // One bad window: judged bad, not yet alerting.
  auto v = detector.JudgeWindow(ShiftedWindow(64, 32));
  EXPECT_TRUE(v.judged);
  EXPECT_GT(v.tv_distance, options.tv_threshold);
  EXPECT_LT(v.topk_jaccard, options.jaccard_min);
  EXPECT_FALSE(v.alerting);
  // Second consecutive bad window trips the alert.
  v = detector.JudgeWindow(ShiftedWindow(64, 32));
  EXPECT_TRUE(v.alerting);
  EXPECT_TRUE(detector.alerting());
  EXPECT_EQ(detector.bad_windows(), 2u);
  // One good window holds the alert, the second clears it.
  v = detector.JudgeWindow(BaselineWindow(freq));
  EXPECT_TRUE(v.alerting);
  v = detector.JudgeWindow(BaselineWindow(freq));
  EXPECT_FALSE(v.alerting);
  EXPECT_FALSE(detector.alerting());
}

TEST(DriftDetectorTest, DeepTailIdentityChurnIsNotDrift) {
  // A finite history cannot estimate per-item tail mass, so accesses
  // moving between deep-tail identities (ranks past 10^max_rank_decades
  // and baseline-unseen items) must cancel inside the coalesced tail
  // bucket instead of registering as drift. Found live: without the
  // coalescing, the stationary GoodReads replay in abl_drift carried a
  // ~0.37 TV floor from tail churn alone.
  const std::size_t n = 20000;
  const std::size_t nonzero = 15000;
  const auto freq = MakeFreq(n, nonzero);
  // Head stays exact; every deep-tail access (ranks >= 1000) moves to
  // a baseline-unseen identity, keeping the window's head/tail mass
  // split identical to the baseline's.
  std::map<std::uint32_t, std::uint64_t> counts;
  for (std::size_t i = 0; i < 1000; ++i) {
    counts[static_cast<std::uint32_t>(i)] = freq[i];
  }
  for (std::size_t i = 1000; i < nonzero; ++i) {
    counts[static_cast<std::uint32_t>(nonzero + (i - 1000) % (n - nonzero))]
        += freq[i];
  }
  const DriftOptions options;  // max_rank_decades = 3
  DriftDetector coalesced(
      BuildDriftBaseline(freq, MakeByFreq(freq), options), options);
  const auto v = coalesced.JudgeWindow(counts);
  EXPECT_TRUE(v.judged);
  EXPECT_NEAR(v.tv_distance, 0.0, 1e-9);
  EXPECT_FALSE(v.bad);
  // With the head widened past the whole item range the same churn
  // shows up as TV — the coalescing is what cancels it.
  DriftOptions wide = options;
  wide.max_rank_decades = 9;
  DriftDetector uncoalesced(
      BuildDriftBaseline(freq, MakeByFreq(freq), wide), wide);
  EXPECT_GT(uncoalesced.JudgeWindow(counts).tv_distance, 0.01);
}

TEST(DriftDetectorTest, JaccardAbstainsOnFlatBaselines) {
  // On a near-flat table "the top k" is a random draw from a huge
  // near-tied set, so top-k Jaccard is pure noise and must not vote;
  // TV still judges. Found live: the near-uniform fleet tables in
  // fig12_scaleout (top-32 mass ~0.6%) alerted on every stationary
  // window through the Jaccard criterion.
  const std::size_t n = 4000;
  std::vector<std::uint64_t> flat(n, 5);
  const DriftOptions options;
  const DriftBaseline baseline =
      BuildDriftBaseline(flat, MakeByFreq(flat), options);
  EXPECT_LT(baseline.top_mass, options.min_topk_mass);
  DriftDetector detector(baseline, options);
  // Uniform mass over items 32..3999: the window's empirical top-32 is
  // disjoint from the baseline's, but the distribution barely moved.
  std::map<std::uint32_t, std::uint64_t> counts;
  for (std::size_t i = 32; i < n; ++i) {
    counts[static_cast<std::uint32_t>(i)] = 5;
  }
  const auto v = detector.JudgeWindow(counts);
  EXPECT_TRUE(v.judged);
  EXPECT_LT(v.topk_jaccard, options.jaccard_min);  // noisy, as expected
  EXPECT_LT(v.tv_distance, options.tv_threshold);
  EXPECT_FALSE(v.bad) << "abstaining Jaccard must not vote a flat "
                         "table bad";
  // A concentrated baseline with the same top-k disagreement does vote.
  const auto skew = MakeFreq(64, 48);
  const DriftBaseline hot =
      BuildDriftBaseline(skew, MakeByFreq(skew), options);
  EXPECT_GE(hot.top_mass, options.min_topk_mass);
  DriftDetector hot_detector(hot, options);
  EXPECT_TRUE(hot_detector.JudgeWindow(ShiftedWindow(64, 48)).bad);
}

TEST(DriftDetectorTest, TinyWindowIsNotJudged) {
  const auto freq = MakeFreq(64, 32);
  const DriftOptions options;  // min_accesses = 32
  DriftDetector detector(
      BuildDriftBaseline(freq, MakeByFreq(freq), options), options);
  std::map<std::uint32_t, std::uint64_t> tiny = {{60, 3}, {61, 4}};
  const auto v = detector.JudgeWindow(tiny);
  EXPECT_FALSE(v.judged);
  EXPECT_EQ(v.accesses, 7u);
  EXPECT_FALSE(v.alerting);
  EXPECT_EQ(detector.bad_windows(), 0u);  // hysteresis untouched
}

// --- SLO burn ---------------------------------------------------------

TEST(BurnRateMonitorTest, QuietThenBurstThenRecovery) {
  BurnRateMonitor burn{SloBurnOptions{}};
  for (int i = 0; i < 12; ++i) {
    const auto v = burn.PushWindow(100, 0);
    EXPECT_DOUBLE_EQ(v.fast_burn, 0.0);
    EXPECT_DOUBLE_EQ(v.slow_burn, 0.0);
    EXPECT_FALSE(v.alerting);
  }
  // A fully-failed window: both horizons blow their thresholds.
  const auto bad = burn.PushWindow(100, 100);
  EXPECT_GT(bad.fast_burn, SloBurnOptions{}.fast_burn_threshold);
  EXPECT_GT(bad.slow_burn, SloBurnOptions{}.slow_burn_threshold);
  EXPECT_TRUE(bad.alerting);
  EXPECT_TRUE(burn.alerting());
  // Two good windows roll the burst out of the fast horizon; the slow
  // horizon still remembers, so the AND-gate clears the alert.
  burn.PushWindow(100, 0);
  const auto recovered = burn.PushWindow(100, 0);
  EXPECT_DOUBLE_EQ(recovered.fast_burn, 0.0);
  EXPECT_GT(recovered.slow_burn, 0.0);
  EXPECT_FALSE(recovered.alerting);
}

// --- stragglers -------------------------------------------------------

TEST(StragglerScorerTest, BalancedFleetHasNoStragglers) {
  StragglerScorer scorer(16, HealthOptions{});
  std::vector<std::uint64_t> deltas(16, 100);
  const auto v = scorer.ScoreWindow(deltas);
  EXPECT_TRUE(v.judged);
  EXPECT_EQ(v.active_units, 16u);
  EXPECT_DOUBLE_EQ(v.mean_delta, 100.0);
  EXPECT_DOUBLE_EQ(v.stddev_delta, 0.0);
  EXPECT_EQ(v.stragglers, 0u);
  EXPECT_FALSE(v.alerting);
}

TEST(StragglerScorerTest, PersistentSlowUnitTripsAfterSmoothing) {
  HealthOptions options;
  options.units_per_rank = 4;
  StragglerScorer scorer(16, options);
  std::vector<std::uint64_t> deltas(16, 100);
  deltas[13] = 1000;  // rank 3's second unit is persistently slow
  StragglerScorer::WindowVerdict v;
  for (int w = 0; w < 8; ++w) v = scorer.ScoreWindow(deltas);
  EXPECT_TRUE(v.judged);
  EXPECT_EQ(v.worst_unit, 13u);
  EXPECT_GE(v.max_z, options.z_threshold);
  EXPECT_EQ(v.stragglers, 1u);
  EXPECT_TRUE(v.alerting);
  EXPECT_EQ(v.rank.worst, 3u);
  // A single window's wobble must NOT trip: the EWMA needs persistence.
  StragglerScorer fresh(16, options);
  const auto first = fresh.ScoreWindow(deltas);
  EXPECT_LT(first.max_z, options.z_threshold);
  EXPECT_FALSE(first.alerting);
}

TEST(StragglerScorerTest, IdleWindowIsNotJudged) {
  StragglerScorer scorer(16, HealthOptions{});  // min_active_units = 2
  std::vector<std::uint64_t> deltas(16, 0);
  deltas[5] = 7;
  const auto v = scorer.ScoreWindow(deltas);
  EXPECT_FALSE(v.judged);
  EXPECT_EQ(v.active_units, 1u);
}

// --- monitor windowing ------------------------------------------------

MonitorOptions SmallWindows() {
  MonitorOptions options;
  options.window_ns = 100.0;
  options.drift.min_accesses = 1;
  options.slo.slo_ns = 100.0;
  return options;
}

TEST(FleetMonitorTest, WindowCloseIsKeyedToSimulatedTime) {
  FleetMonitor monitor(SmallWindows());
  const auto freq = MakeFreq(16, 8);
  monitor.AddTableBaseline(
      0, BuildDriftBaseline(freq, MakeByFreq(freq), SmallWindows().drift));
  const std::uint32_t items[] = {0, 1};
  monitor.OnAccess(0, 10.0, items);    // window 0
  monitor.OnAccess(0, 99.0, items);    // still window 0
  monitor.OnAccess(0, 250.0, items);   // window 2: closes window 0
  monitor.Finalize();                  // flushes window 2
  ASSERT_EQ(monitor.windows().size(), 2u);
  EXPECT_EQ(monitor.windows()[0].index, 0u);
  EXPECT_EQ(monitor.windows()[1].index, 2u);
  EXPECT_DOUBLE_EQ(monitor.windows()[0].start_ns, 0.0);
  EXPECT_DOUBLE_EQ(monitor.windows()[0].end_ns, 100.0);
  ASSERT_EQ(monitor.windows()[0].drift.size(), 1u);
  EXPECT_EQ(monitor.windows()[0].drift[0].verdict.accesses, 4u);
  EXPECT_EQ(monitor.windows()[1].drift[0].verdict.accesses, 2u);
  EXPECT_EQ(monitor.summary().windows, 2u);
}

TEST(FleetMonitorTest, AccessForUnmonitoredTableIsIgnored) {
  FleetMonitor monitor(SmallWindows());
  const std::uint32_t items[] = {0};
  monitor.OnAccess(7, 10.0, items);  // no baseline for table 7
  monitor.Finalize();
  EXPECT_TRUE(monitor.windows().empty());
}

TEST(FleetMonitorTest, SloStreamMergesAndIdleWindowsAgeTheBurn) {
  FleetMonitor monitor(SmallWindows());
  monitor.OnRequest(50.0, 10.0);    // window 0, good
  monitor.OnRequest(60.0, 500.0);   // window 0, over SLO
  monitor.OnRequest(250.0, 10.0);   // window 2 (window 1 idle)
  monitor.Finalize();
  ASSERT_EQ(monitor.windows().size(), 2u);
  EXPECT_TRUE(monitor.windows()[0].has_slo);
  EXPECT_EQ(monitor.windows()[0].slo.completed, 2u);
  EXPECT_EQ(monitor.windows()[0].slo.over_slo, 1u);
  EXPECT_EQ(monitor.windows()[1].index, 2u);
  EXPECT_EQ(monitor.windows()[1].slo.over_slo, 0u);
  // Exact p99s: per window over its completions, and over all of them.
  EXPECT_EQ(monitor.windows()[0].p99_ns, 500.0);
  EXPECT_EQ(monitor.windows()[1].p99_ns, 10.0);
  EXPECT_EQ(monitor.summary().completed, 3u);
  EXPECT_EQ(monitor.summary().p99_ns, 500.0);
}

TEST(FleetMonitorTest, UnitSamplesDifferenceIntoWindowDeltas) {
  FleetMonitor monitor(SmallWindows());
  std::vector<std::uint64_t> work(4, 0);
  monitor.OnUnitSample(0.0, work);  // baseline sample, window 0 opens
  work = {10, 10, 10, 10};
  monitor.OnUnitSample(50.0, work);
  work = {30, 30, 30, 90};
  monitor.OnUnitSample(150.0, work);  // closes window 0: deltas {10,..}
  monitor.Finalize();                 // closes window 1: {20,20,20,80}
  ASSERT_EQ(monitor.windows().size(), 2u);
  EXPECT_TRUE(monitor.windows()[0].has_health);
  EXPECT_DOUBLE_EQ(monitor.windows()[0].health.mean_delta, 10.0);
  EXPECT_DOUBLE_EQ(monitor.windows()[1].health.mean_delta, 35.0);
  EXPECT_EQ(monitor.windows()[1].health.worst_unit, 3u);
}

TEST(FleetMonitorTest, IdenticalFeedsProduceIdenticalJsonl) {
  auto run = [] {
    FleetMonitor monitor(SmallWindows());
    const auto freq = MakeFreq(16, 8);
    monitor.AddTableBaseline(
        0,
        BuildDriftBaseline(freq, MakeByFreq(freq), SmallWindows().drift));
    const std::uint32_t items[] = {0, 1, 2};
    for (int i = 0; i < 10; ++i) {
      const Nanos t = 40.0 * i;
      monitor.OnAccess(0, t, items);
      monitor.OnRequest(t + 5.0, 50.0 + i);
    }
    monitor.Finalize();
    return monitor.ToJsonl();
  };
  EXPECT_EQ(run(), run());
}

// --- JSONL schema -----------------------------------------------------

TEST(FleetMonitorTest, JsonlRoundTripsThroughTheValidator) {
  FleetMonitor monitor(SmallWindows());
  const auto freq = MakeFreq(16, 8);
  monitor.AddTableBaseline(
      0, BuildDriftBaseline(freq, MakeByFreq(freq), SmallWindows().drift));
  const std::uint32_t items[] = {0, 1, 2};
  for (int i = 0; i < 12; ++i) {
    monitor.OnAccess(0, 30.0 * i, items);
    monitor.OnRequest(30.0 * i + 1.0, 10.0);
  }
  monitor.Finalize();
  const std::string jsonl = monitor.ToJsonl();
  EXPECT_TRUE(ValidateHealthJsonl(jsonl, 2).ok());
  // More windows than the stream holds -> FailedPrecondition.
  EXPECT_FALSE(ValidateHealthJsonl(jsonl, 100).ok());
  // Decapitated stream: no schema header.
  const std::string headless = jsonl.substr(jsonl.find('\n') + 1);
  EXPECT_FALSE(ValidateHealthJsonl(headless, 1).ok());
  // Truncated stream: summary record lost.
  std::string no_summary = jsonl;
  no_summary.resize(no_summary.rfind("{\"summary\""));
  EXPECT_FALSE(ValidateHealthJsonl(no_summary, 1).ok());
}

TEST(ValidateHealthJsonlTest, RejectsOutOfOrderWindows) {
  const std::string bad =
      "{\"schema\":\"updlrm.health.v1\",\"window_ns\":100}\n"
      "{\"window\":2,\"start_ns\":200,\"end_ns\":300,\"drift\":[]}\n"
      "{\"window\":1,\"start_ns\":100,\"end_ns\":200,\"drift\":[]}\n"
      "{\"summary\":{}}\n";
  const Status status = ValidateHealthJsonl(bad, 1);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("strictly increasing"),
            std::string::npos);
}

// --- export / gating --------------------------------------------------

TEST(FleetMonitorTest, ExportsSummaryToRegistry) {
  FleetMonitor monitor(SmallWindows());
  monitor.OnRequest(10.0, 5.0);
  monitor.Finalize();
  MetricsRegistry registry;
  monitor.ExportTo(registry, "health");
  EXPECT_TRUE(registry.Has("health.windows"));
  EXPECT_TRUE(registry.Has("health.slo_alert_windows"));
  EXPECT_TRUE(registry.Has("health.max_unit_z"));
  EXPECT_DOUBLE_EQ(registry.CounterValue("health.windows"), 1.0);
}

TEST(MonitorEnabledTest, NullMonitorIsDisabled) {
  EXPECT_FALSE(MonitorEnabled(nullptr));
#ifndef UPDLRM_TELEMETRY_DISABLED
  FleetMonitor monitor{MonitorOptions{}};
  EXPECT_TRUE(MonitorEnabled(&monitor));
#endif
}

}  // namespace
}  // namespace updlrm::telemetry
