#include "telemetry/registry.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "telemetry/json.h"

namespace updlrm::telemetry {

namespace {

/// Bucket index for a value (0 = underflow, kNumBuckets-1 = overflow).
int BucketIndex(double value) {
  if (!(value >= ValueHistogram::kMinValue)) return 0;  // also NaN
  const double pos = std::log10(value / ValueHistogram::kMinValue) *
                     ValueHistogram::kBucketsPerDecade;
  const int idx = 1 + static_cast<int>(pos);
  if (idx >= ValueHistogram::kNumBuckets - 1) {
    return ValueHistogram::kNumBuckets - 1;
  }
  return idx;
}

double BucketLower(int i) {
  if (i <= 0) return 0.0;
  return ValueHistogram::kMinValue *
         std::pow(10.0, static_cast<double>(i - 1) /
                            ValueHistogram::kBucketsPerDecade);
}

double BucketUpper(int i) {
  if (i >= ValueHistogram::kNumBuckets - 1) {
    return BucketLower(ValueHistogram::kNumBuckets - 1) * 10.0;
  }
  return BucketLower(i + 1);
}

}  // namespace

void ValueHistogram::Observe(double value) {
  if (std::isnan(value)) return;  // undefined sample; keep stats sane
  if (value < 0.0) value = 0.0;
  ++buckets_[BucketIndex(value)];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  sum_ += value;
}

void ValueHistogram::Merge(const ValueHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

double ValueHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  const double rank = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const std::uint64_t next = seen + buckets_[i];
    if (static_cast<double>(next) >= rank) {
      const double lower = BucketLower(i);
      const double upper = BucketUpper(i);
      const double frac =
          (rank - static_cast<double>(seen)) /
          static_cast<double>(buckets_[i]);
      double v = lower + frac * (upper - lower);
      if (v < min_) v = min_;
      if (v > max_) v = max_;
      return v;
    }
    seen = next;
  }
  return max_;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::Increment(const std::string& name, double delta) {
  MutexLock lock(mu_);
  UPDLRM_CHECK_MSG(gauges_.count(name) == 0 && histograms_.count(name) == 0,
                   "metric name reused across kinds: " + name);
  counters_[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  MutexLock lock(mu_);
  UPDLRM_CHECK_MSG(
      counters_.count(name) == 0 && histograms_.count(name) == 0,
      "metric name reused across kinds: " + name);
  gauges_[name] = value;
}

void MetricsRegistry::Observe(const std::string& name, double value) {
  MutexLock lock(mu_);
  UPDLRM_CHECK_MSG(counters_.count(name) == 0 && gauges_.count(name) == 0,
                   "metric name reused across kinds: " + name);
  histograms_[name].Observe(value);
}

double MetricsRegistry::CounterValue(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

ValueHistogram MetricsRegistry::HistogramValue(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? ValueHistogram{} : it->second;
}

bool MetricsRegistry::Has(const std::string& name) const {
  MutexLock lock(mu_);
  return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
         histograms_.count(name) != 0;
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  JsonWriter w;
  w.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, value] : counters_) w.Field(name, value);
  w.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges_) w.Field(name, value);
  w.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    w.Key(name).BeginObject().Field("count", h.count());
    w.Field("mean", h.Mean()).Field("p50", h.Percentile(50.0));
    w.Field("p95", h.Percentile(95.0)).Field("p99", h.Percentile(99.0));
    w.Field("min", h.min()).Field("max", h.max()).EndObject();
  }
  w.EndObject().EndObject();
  return w.str();
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace updlrm::telemetry
