#include "serve/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "telemetry/json.h"

namespace updlrm::serve {
namespace {

TEST(StageUtilizationTest, ComputesBusyFractions) {
  StageUtilization u;
  u.host_busy_ns = 25.0;
  u.host_core_busy_ns = 40.0;
  u.host_mlp_busy_ns = 30.0;
  u.dpu_busy_ns = 80.0;
  u.makespan_ns = 100.0;
  EXPECT_DOUBLE_EQ(u.HostUtilization(), 0.25);
  EXPECT_DOUBLE_EQ(u.HostCoreUtilization(), 0.40);
  EXPECT_DOUBLE_EQ(u.HostMlpUtilization(), 0.30);
  EXPECT_DOUBLE_EQ(u.DpuUtilization(), 0.80);
  u.makespan_ns = 0.0;
  EXPECT_DOUBLE_EQ(u.HostUtilization(), 0.0);
  EXPECT_DOUBLE_EQ(u.HostCoreUtilization(), 0.0);
}

TEST(SloReportTest, WritesStableKeysAndUnitsIntoAnOpenObject) {
  SloReport report;
  report.offered_qps = 10000.0;
  report.achieved_qps = 9800.5;
  report.completed = 640;
  report.shed = 3;
  report.p50_ns = 120'000.0;
  report.p95_ns = 300'000.0;
  report.p99_ns = 450'000.0;
  report.mean_ns = 140'000.0;
  report.max_ns = 500'000.0;
  report.slo_ns = 400'000.0;
  report.slo_met = false;
  // The caller owns the object: its own members come first, the
  // report's follow in a fixed order with the comma bookkeeping done.
  telemetry::JsonWriter w;
  w.BeginObject().Field("method", "U");
  report.WriteFields(w);
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"method\":\"U\",\"offered_qps\":10000,"
            "\"achieved_qps\":9800.5,\"completed\":640,\"shed\":3,"
            "\"p50_us\":120,\"p95_us\":300,\"p99_us\":450,"
            "\"mean_us\":140,\"max_us\":500,\"slo_us\":400,"
            "\"slo_met\":false}");
}

TEST(MaxSustainableQpsTest, PicksHighestQualifyingRate) {
  const std::vector<RatePoint> points = {
      {5'000.0, 2.0e5, 0},
      {10'000.0, 3.0e5, 0},
      {15'000.0, 3.9e5, 0},
      {20'000.0, 3.5e5, 12},  // meets latency but sheds: disqualified
      {25'000.0, 9.0e5, 40},
  };
  EXPECT_DOUBLE_EQ(MaxSustainableQps(points, 4.0e5), 15'000.0);
  EXPECT_DOUBLE_EQ(MaxSustainableQps(points, 2.5e5), 5'000.0);
  EXPECT_DOUBLE_EQ(MaxSustainableQps(points, 1.0e5), 0.0);
  EXPECT_DOUBLE_EQ(MaxSustainableQps({}, 4.0e5), 0.0);
}

}  // namespace
}  // namespace updlrm::serve
