// Fleet-health monitor: both detector families (SLO burn /
// stragglers), the simulated-time windowing machinery, the JSONL
// schema checker, and the registry export.
#include "telemetry/monitor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/health.h"

namespace updlrm::telemetry {
namespace {

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
  options.slo.slo_ns = 100.0;
  return options;
}

TEST(FleetMonitorTest, WindowCloseIsKeyedToSimulatedTime) {
  FleetMonitor monitor(SmallWindows());
  std::vector<std::uint64_t> work = {0, 0};
  monitor.OnUnitSample(0.0, work);    // baseline sample, window 0 opens
  monitor.OnRequest(10.0, 5.0);       // window 0
  work = {4, 4};
  monitor.OnUnitSample(99.0, work);   // still window 0
  monitor.OnRequest(99.0, 5.0);       // still window 0
  monitor.OnRequest(250.0, 5.0);      // window 2: closes window 0
  work = {6, 6};
  monitor.OnUnitSample(250.0, work);  // window 2: closes window 0
  monitor.Finalize();                 // flushes window 2
  ASSERT_EQ(monitor.windows().size(), 2u);
  const FleetHealthWindow& first = monitor.windows()[0];
  const FleetHealthWindow& last = monitor.windows()[1];
  EXPECT_EQ(first.index, 0u);
  EXPECT_EQ(last.index, 2u);
  EXPECT_DOUBLE_EQ(first.start_ns, 0.0);
  EXPECT_DOUBLE_EQ(first.end_ns, 100.0);
  ASSERT_TRUE(first.has_slo && first.has_health);
  ASSERT_TRUE(last.has_slo && last.has_health);
  EXPECT_EQ(first.slo.completed, 2u);
  EXPECT_EQ(last.slo.completed, 1u);
  EXPECT_DOUBLE_EQ(first.health.mean_delta, 4.0);
  EXPECT_DOUBLE_EQ(last.health.mean_delta, 2.0);
  EXPECT_EQ(monitor.summary().windows, 2u);
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

// `n` requests `step_ns` apart, each after a unit sample whose
// cumulative work grows unevenly across four units.
void FeedRequestsAndUnits(FleetMonitor& monitor, int n, Nanos step_ns) {
  std::vector<std::uint64_t> work(4, 0);
  for (int i = 0; i < n; ++i) {
    const Nanos t = step_ns * i;
    monitor.OnUnitSample(t, work);
    monitor.OnRequest(t + 1.0, 50.0 + i);
    for (std::size_t u = 0; u < work.size(); ++u) work[u] += 10 * (u + 1);
  }
}

TEST(FleetMonitorTest, IdenticalFeedsProduceIdenticalJsonl) {
  auto run = [] {
    FleetMonitor monitor(SmallWindows());
    FeedRequestsAndUnits(monitor, 10, 40.0);
    monitor.Finalize();
    return monitor.ToJsonl();
  };
  EXPECT_EQ(run(), run());
}

// --- JSONL schema -----------------------------------------------------

TEST(FleetMonitorTest, JsonlRoundTripsThroughTheValidator) {
  FleetMonitor monitor(SmallWindows());
  FeedRequestsAndUnits(monitor, 12, 30.0);
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
      "{\"schema\":\"updlrm.health.v2\",\"window_ns\":100}\n"
      "{\"window\":2,\"start_ns\":200,\"end_ns\":300,\"slo\":{}}\n"
      "{\"window\":1,\"start_ns\":100,\"end_ns\":200,\"slo\":{}}\n"
      "{\"summary\":{}}\n";
  const Status status = ValidateHealthJsonl(bad, 1);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("strictly increasing"),
            std::string::npos);
}

TEST(ValidateHealthJsonlTest, RejectsTheV1SchemaTag) {
  const std::string v1 =
      "{\"schema\":\"updlrm.health.v1\",\"window_ns\":100}\n"
      "{\"window\":0,\"start_ns\":0,\"end_ns\":100,\"slo\":{}}\n"
      "{\"summary\":{}}\n";
  const Status status = ValidateHealthJsonl(v1, 1);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("updlrm.health.v2"), std::string::npos);
}

TEST(ValidateHealthJsonlTest, RejectsAWindowWithNoDetectorObject) {
  const std::string header =
      "{\"schema\":\"updlrm.health.v2\",\"window_ns\":100}\n";
  const std::string summary = "{\"summary\":{}}\n";
  // A window record must carry an "slo" or a "health" object...
  const std::string empty =
      "{\"window\":0,\"start_ns\":0,\"end_ns\":100}\n";
  const Status status = ValidateHealthJsonl(header + empty + summary, 1);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("\"slo\" or"), std::string::npos);
  // ...as an object, not a scalar...
  const std::string scalar =
      "{\"window\":0,\"start_ns\":0,\"end_ns\":100,\"slo\":1}\n";
  EXPECT_FALSE(ValidateHealthJsonl(header + scalar + summary, 1).ok());
  // ...and either one suffices.
  const std::string health_only =
      "{\"window\":0,\"start_ns\":0,\"end_ns\":100,\"health\":{}}\n";
  EXPECT_TRUE(ValidateHealthJsonl(header + health_only + summary, 1).ok());
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
