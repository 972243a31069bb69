#include "serve/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace updlrm::serve {

namespace {
// Bucket width ratio: 10^(1/kBucketsPerDecade).
const double kGrowth = std::pow(10.0, 1.0 / LatencyHistogram::kBucketsPerDecade);
const double kLogGrowth = std::log(kGrowth);
}  // namespace

Nanos LatencyHistogram::BucketLowerNs(int i) {
  if (i <= 0) return 0.0;
  return kMinNs * std::pow(kGrowth, i - 1);
}

Nanos LatencyHistogram::BucketUpperNs(int i) {
  if (i >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return kMinNs * std::pow(kGrowth, i);
}

void LatencyHistogram::Add(Nanos latency_ns) {
  latency_ns = std::max(latency_ns, 0.0);
  int bucket;
  if (latency_ns < kMinNs) {
    bucket = 0;
  } else {
    bucket = 1 + static_cast<int>(std::log(latency_ns / kMinNs) /
                                  kLogGrowth);
    // Guard the float boundary: keep the sample inside its [lo, hi).
    while (bucket > 1 && latency_ns < BucketLowerNs(bucket)) --bucket;
    while (bucket < kNumBuckets - 1 &&
           latency_ns >= BucketUpperNs(bucket)) {
      ++bucket;
    }
    bucket = std::min(bucket, kNumBuckets - 1);
  }
  ++buckets_[bucket];
  ++count_;
  sum_ += latency_ns;
  if (count_ == 1) {
    min_ = max_ = latency_ns;
  } else {
    min_ = std::min(min_, latency_ns);
    max_ = std::max(max_, latency_ns);
  }
}

Nanos LatencyHistogram::PercentileNs(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target sample (1-based, nearest-rank with ceil).
  const auto rank = static_cast<std::uint64_t>(std::max(
      1.0, std::ceil(p / 100.0 * static_cast<double>(count_))));
  if (rank >= count_) return max_;  // p100 is the exact observed max
  std::uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (seen + buckets_[i] >= rank) {
      // Linear interpolation across the bucket's span.
      const double within = buckets_[i] <= 1
                                ? 0.5
                                : (static_cast<double>(rank - seen) - 0.5) /
                                      static_cast<double>(buckets_[i]);
      const Nanos lo = std::max(BucketLowerNs(i), min_);
      const Nanos hi = std::min(
          i == kNumBuckets - 1 ? max_ : BucketUpperNs(i), max_);
      const Nanos value = lo + (std::max(hi, lo) - lo) * within;
      return std::clamp(value, min_, max_);
    }
    seen += buckets_[i];
  }
  return max_;
}

void SloReport::WriteFields(telemetry::JsonWriter& w) const {
  w.Field("offered_qps", offered_qps).Field("achieved_qps", achieved_qps);
  w.Field("completed", completed).Field("shed", shed);
  w.Field("p50_us", NanosToMicros(p50_ns));
  w.Field("p95_us", NanosToMicros(p95_ns));
  w.Field("p99_us", NanosToMicros(p99_ns));
  w.Field("mean_us", NanosToMicros(mean_ns));
  w.Field("max_us", NanosToMicros(max_ns));
  w.Field("slo_us", NanosToMicros(slo_ns)).Field("slo_met", slo_met);
}

double MaxSustainableQps(std::span<const RatePoint> points, Nanos slo_ns) {
  double best = 0.0;
  for (const RatePoint& pt : points) {
    if (pt.shed == 0 && pt.p99_ns <= slo_ns) {
      best = std::max(best, pt.offered_qps);
    }
  }
  return best;
}

SloReport ServeScorecard::MakeSloReport(double offered_qps,
                                        Nanos slo_ns) const {
  SloReport report;
  report.offered_qps = offered_qps;
  report.completed = completed;
  report.shed = shed;
  report.achieved_qps =
      makespan_ns <= 0.0 ? 0.0
                         : static_cast<double>(completed) /
                               (makespan_ns / kNanosPerSecond);
  report.p50_ns = latency.PercentileNs(50.0);
  report.p95_ns = latency.PercentileNs(95.0);
  report.p99_ns = latency.PercentileNs(99.0);
  report.mean_ns = latency.MeanNs();
  report.max_ns = latency.max_ns();
  report.slo_ns = slo_ns;
  report.slo_met = shed == 0 && report.p99_ns <= slo_ns;
  return report;
}

}  // namespace updlrm::serve
