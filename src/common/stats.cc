#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace updlrm {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (count_ == 0) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double NearestRank(std::span<const double> values, double p) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps decimal p exact: 99.9% of 1000 is rank 999, not
  // the 1000 that 99.9 * 1000 / 100 = 999.0000000000001 would round to.
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * n / 100.0 - 1e-9)));
  return sorted[std::min(rank, sorted.size()) - 1];
}

double ImbalanceRatio(std::span<const double> loads) {
  if (loads.empty()) return 0.0;
  double sum = 0.0;
  double max = 0.0;
  for (double v : loads) {
    sum += v;
    max = std::max(max, v);
  }
  if (sum == 0.0) return 0.0;
  const double mean = sum / static_cast<double>(loads.size());
  return max / mean;
}

double MaxMinRatio(std::span<const double> loads) {
  if (loads.empty()) return 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = 0.0;
  for (double v : loads) {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  if (max == 0.0) return 0.0;
  if (min == 0.0) return std::numeric_limits<double>::infinity();
  return max / min;
}

double CoefficientOfVariation(std::span<const double> loads) {
  OnlineStats s;
  for (double v : loads) s.Add(v);
  if (s.count() == 0 || s.mean() == 0.0) return 0.0;
  return s.stddev() / s.mean();
}

double GiniCoefficient(std::span<const double> values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  double cum_weighted = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cum_weighted += static_cast<double>(i + 1) * sorted[i];
    total += sorted[i];
  }
  if (total == 0.0) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  return (2.0 * cum_weighted) / (n * total) - (n + 1.0) / n;
}

std::vector<double> ToDoubles(std::span<const std::uint64_t> values) {
  std::vector<double> out;
  out.reserve(values.size());
  for (auto v : values) out.push_back(static_cast<double>(v));
  return out;
}

}  // namespace updlrm
