// Unified metrics registry: counters, gauges, histograms, one snapshot.
//
// Before this existed, every subsystem serialized its own numbers:
// DpuStats aggregation printed ad-hoc tables, the serve bench built its
// SLO JSON by hand, and the check layer kept violation counts in local
// structs. The registry absorbs those into one namespace-keyed store
// ("pim.lookups", "serve.p99_ns", "check.violations", ...) with a
// single deterministic ToJson() snapshot that every bench appends to
// BENCH_metrics.json — so a run's full scorecard lives in one line of
// JSON instead of four formats.
//
// Not a hot-path structure: updates take a mutex. Instrument per-batch
// or per-run aggregates here; per-event hot-path observation belongs in
// the tracer (tracer.h). Deterministic by construction: std::map keys
// give stable iteration, and values come from simulated quantities.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace updlrm::telemetry {

/// Thread-safe named metrics store. Names are dotted paths
/// ("<subsystem>.<metric>"); each name belongs to exactly one kind —
/// re-using a counter name as a gauge is a programming error (checked).
class MetricsRegistry {
 public:
  /// The process-wide registry benches snapshot. Tests construct their
  /// own instances.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to a monotonic counter (creating it at 0).
  void Increment(const std::string& name, double delta = 1.0);
  /// Sets a gauge to its latest value.
  void SetGauge(const std::string& name, double value);
  /// Records one sample into a histogram (creating it empty). A
  /// histogram keeps every sample; NaN samples are dropped.
  void Observe(const std::string& name, double value);

  /// Reads (0.0 / empty when the metric does not exist).
  double CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  /// A histogram's samples in observation order.
  std::vector<double> HistogramValue(const std::string& name) const;
  bool Has(const std::string& name) const;

  /// One JSON object, single line, stable key order:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"x":{"count":..,"mean":..,"p50":..,"p95":..,
  ///                       "p99":..,"min":..,"max":..}}}
  /// Histogram statistics are exact: percentiles are NearestRank over
  /// the kept samples.
  std::string ToJson() const;

  /// Drops every metric (benches call this between measured sections).
  void Reset();

 private:
  mutable Mutex mu_;
  std::map<std::string, double> counters_ GUARDED_BY(mu_);
  std::map<std::string, double> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::vector<double>> histograms_ GUARDED_BY(mu_);
};

}  // namespace updlrm::telemetry
