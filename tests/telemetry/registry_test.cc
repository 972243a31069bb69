// The unified metrics registry: counter/gauge/histogram semantics,
// exact histogram statistics, deterministic JSON snapshots and
// the one-kind-per-name contract.
#include "telemetry/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace updlrm::telemetry {
namespace {

TEST(MetricsRegistryTest, CountersAccumulateGaugesOverwrite) {
  MetricsRegistry registry;
  registry.Increment("pim.lookups", 10.0);
  registry.Increment("pim.lookups", 5.0);
  registry.Increment("pim.batches");
  registry.SetGauge("serve.qps", 100.0);
  registry.SetGauge("serve.qps", 250.0);
  EXPECT_DOUBLE_EQ(registry.CounterValue("pim.lookups"), 15.0);
  EXPECT_DOUBLE_EQ(registry.CounterValue("pim.batches"), 1.0);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("serve.qps"), 250.0);
  EXPECT_TRUE(registry.Has("pim.lookups"));
  EXPECT_FALSE(registry.Has("missing"));
  EXPECT_DOUBLE_EQ(registry.CounterValue("missing"), 0.0);
}

TEST(MetricsRegistryTest, HistogramsKeepSamplesAndReportExactStats) {
  MetricsRegistry registry;
  for (const double v : {3'000.0, 1'000.0, 2'000.0, 4'000.0}) {
    registry.Observe("serve.latency_ns", v);
  }
  registry.Observe("serve.latency_ns", std::nan(""));  // dropped
  EXPECT_EQ(registry.HistogramValue("serve.latency_ns"),
            (std::vector<double>{3'000.0, 1'000.0, 2'000.0, 4'000.0}));
  EXPECT_TRUE(registry.HistogramValue("missing").empty());
  EXPECT_EQ(registry.ToJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":"
            "{\"serve.latency_ns\":{\"count\":4,\"mean\":2500,"
            "\"p50\":2000,\"p95\":4000,\"p99\":4000,\"min\":1000,"
            "\"max\":4000}}}");
}

TEST(MetricsRegistryTest, ToJsonIsDeterministicAndOrdered) {
  auto fill = [](MetricsRegistry& r) {
    // Insertion order differs from key order on purpose: the snapshot
    // must sort by name regardless.
    r.SetGauge("z.gauge", 1.5);
    r.Increment("b.counter", 2.0);
    r.Increment("a.counter", 1.0);
    r.Observe("m.hist", 100.0);
  };
  MetricsRegistry first;
  MetricsRegistry second;
  fill(first);
  fill(second);
  const std::string json = first.ToJson();
  EXPECT_EQ(json, second.ToJson());
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single line
  EXPECT_LT(json.find("a.counter"), json.find("b.counter"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistryTest, ResetDropsEverything) {
  MetricsRegistry registry;
  registry.Increment("c", 1.0);
  registry.SetGauge("g", 1.0);
  registry.Observe("h", 1.0);
  registry.Reset();
  EXPECT_FALSE(registry.Has("c"));
  EXPECT_FALSE(registry.Has("g"));
  EXPECT_FALSE(registry.Has("h"));
  EXPECT_EQ(registry.ToJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(MetricsRegistryDeathTest, NameKindReuseAborts) {
  MetricsRegistry registry;
  registry.Increment("metric.x", 1.0);
  EXPECT_DEATH(registry.SetGauge("metric.x", 2.0), "metric.x");
}

TEST(MetricsRegistryTest, GlobalIsAProcessSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

}  // namespace
}  // namespace updlrm::telemetry
