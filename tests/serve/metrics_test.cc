#include "serve/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "telemetry/json.h"

namespace updlrm::serve {
namespace {

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.MeanNs(), 0.0);
  EXPECT_DOUBLE_EQ(h.PercentileNs(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.min_ns(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_ns(), 0.0);
}

TEST(LatencyHistogramTest, TracksExactMinMaxMean) {
  LatencyHistogram h;
  h.Add(2'000.0);
  h.Add(10'000.0);
  h.Add(30'000.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min_ns(), 2'000.0);
  EXPECT_DOUBLE_EQ(h.max_ns(), 30'000.0);
  EXPECT_DOUBLE_EQ(h.MeanNs(), 14'000.0);
}

TEST(LatencyHistogramTest, BucketBoundsPartitionTheAxis) {
  // Adjacent buckets tile [0, inf): upper(i) == lower(i + 1), and every
  // added sample lands in a bucket whose [lo, hi) contains it.
  for (int i = 0; i + 1 < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_DOUBLE_EQ(LatencyHistogram::BucketUpperNs(i),
                     LatencyHistogram::BucketLowerNs(i + 1))
        << i;
  }
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    const double v = 500.0 * std::pow(10.0, 7.2 * rng.NextDouble());
    LatencyHistogram h;
    h.Add(v);
    int filled = -1;
    const auto buckets = h.buckets();
    for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      if (buckets[i] != 0) filled = i;
    }
    ASSERT_GE(filled, 0);
    EXPECT_GE(v, LatencyHistogram::BucketLowerNs(filled)) << v;
    EXPECT_LT(v, LatencyHistogram::BucketUpperNs(filled)) << v;
  }
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneAndClamped) {
  LatencyHistogram h;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    h.Add(1e4 * (1.0 + 9.0 * rng.NextDouble()));  // [10 µs, 100 µs)
  }
  double prev = 0.0;
  for (double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const double v = h.PercentileNs(p);
    EXPECT_GE(v, prev) << p;
    EXPECT_GE(v, h.min_ns());
    EXPECT_LE(v, h.max_ns());
    prev = v;
  }
  EXPECT_DOUBLE_EQ(h.PercentileNs(100.0), h.max_ns());
}

TEST(LatencyHistogramTest, PercentileAccuracyWithinBucketResolution) {
  // Uniform samples on [10 µs, 100 µs): p50 should land near 55 µs
  // within the ~26% relative error of a 10-buckets/decade histogram.
  LatencyHistogram h;
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    h.Add(1e4 + 9e4 * rng.NextDouble());
  }
  EXPECT_NEAR(h.PercentileNs(50.0), 5.5e4, 0.26 * 5.5e4);
  EXPECT_NEAR(h.PercentileNs(99.0), 9.91e4, 0.26 * 9.91e4);
}

TEST(LatencyHistogramTest, UnderflowAndOverflowAreCaptured) {
  LatencyHistogram h;
  h.Add(10.0);    // below kMinNs
  h.Add(5.0e10);  // 50 s, above the top decade
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.buckets().front(), 1u);
  EXPECT_EQ(h.buckets().back(), 1u);
  // Percentiles stay inside the tracked extremes even in the open
  // overflow bucket.
  EXPECT_DOUBLE_EQ(h.PercentileNs(100.0), 5.0e10);
  EXPECT_GE(h.PercentileNs(1.0), 10.0);
}

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
