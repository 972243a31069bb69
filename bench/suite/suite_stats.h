// Pure statistics helpers of the repo benchmark (bench/suite).
//
// Everything here is a function of its arguments only, so the helper
// gtests (suite_stats_test.cc) pin the exact definitions the benchmark
// reports: nearest-rank percentiles after a warm-up cut, the knee
// bisection, the backlog test and the latency digest.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace updlrm::suite {

/// Share of completions dropped from the front of a run as warm-up.
inline constexpr double kWarmupFraction = 0.10;

/// Exact nearest-rank percentile of `values` (any order): the smallest
/// value v such that at least p% of the values are <= v, p in (0, 100].
/// Returns 0 for an empty input.
double NearestRank(std::span<const double> values, double p);

/// The values left after dropping the first `fraction` of them (rounded
/// down), in their original order.
std::span<const double> AfterWarmup(std::span<const double> values,
                                    double fraction = kWarmupFraction);

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty input.
double Median(std::vector<double> values);

/// Knee search: `steps` bisection steps over [lo, hi] against an oracle
/// that is assumed monotone (passes below the knee, fails above it).
/// Returns the highest rate seen to pass, or 0 when `lo` itself fails.
/// `hi` is never evaluated: it is the assumed-failing upper bracket.
double BisectKnee(double lo, double hi, int steps,
                  const std::function<bool(double)>& passes);

/// The backlog test: a run keeps up when the queue it leaves behind at
/// the last arrival drains within one SLO. A backlog that grows through
/// the run drains for much longer even while the p99 of the whole run
/// still meets the SLO.
bool DrainsWithinSlo(double last_arrival_ns, double makespan_ns,
                     double slo_ns);

/// 64-bit FNV-1a over the IEEE-754 bit patterns of `values`: equal
/// digests mean bit-identical simulated latency vectors.
std::uint64_t SimDigest(std::span<const double> values);

}  // namespace updlrm::suite
