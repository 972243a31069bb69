#include "serve/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

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

namespace {
std::string FmtDouble(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}
}  // namespace

std::string SloReport::ToJson() const {
  std::ostringstream os;
  os << "{\"offered_qps\": " << FmtDouble(offered_qps)
     << ", \"achieved_qps\": " << FmtDouble(achieved_qps)
     << ", \"completed\": " << completed << ", \"shed\": " << shed
     << ", \"p50_us\": " << FmtDouble(NanosToMicros(p50_ns))
     << ", \"p95_us\": " << FmtDouble(NanosToMicros(p95_ns))
     << ", \"p99_us\": " << FmtDouble(NanosToMicros(p99_ns))
     << ", \"mean_us\": " << FmtDouble(NanosToMicros(mean_ns))
     << ", \"max_us\": " << FmtDouble(NanosToMicros(max_ns))
     << ", \"slo_us\": " << FmtDouble(NanosToMicros(slo_ns))
     << ", \"slo_met\": " << (slo_met ? "true" : "false") << "}";
  return os.str();
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
