// Descriptive statistics used by the profiler, balance metrics, and the
// benchmark harnesses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace updlrm {

/// Single-pass accumulator for mean / variance / extrema (Welford).
class OnlineStats {
 public:
  void Add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact nearest-rank percentile of `values` (any order): the smallest
/// value v such that at least p% of the values are <= v, p in (0, 100].
/// Returns 0 for an empty input. Copies and sorts.
double NearestRank(std::span<const double> values, double p);

/// max / mean of a load vector; 1.0 == perfectly balanced. Returns 0 for
/// empty or all-zero input.
double ImbalanceRatio(std::span<const double> loads);

/// max / min of a load vector, the skew metric Fig. 5 reports.
/// Returns +inf if min == 0 and max > 0; 0 for empty/all-zero input.
double MaxMinRatio(std::span<const double> loads);

/// Coefficient of variation (stddev / mean); 0 == perfectly balanced.
double CoefficientOfVariation(std::span<const double> loads);

/// Gini coefficient in [0, 1); 0 == perfectly equal.
double GiniCoefficient(std::span<const double> values);

/// Convenience: convert integral load vectors for the metrics above.
std::vector<double> ToDoubles(std::span<const std::uint64_t> values);

}  // namespace updlrm
