#include "suite_stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace updlrm::suite {

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

std::span<const double> AfterWarmup(std::span<const double> values,
                                    double fraction) {
  const auto skip = static_cast<std::size_t>(
      fraction * static_cast<double>(values.size()));
  return values.subspan(std::min(skip, values.size()));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double BisectKnee(double lo, double hi, int steps,
                  const std::function<bool(double)>& passes) {
  if (!passes(lo)) return 0.0;
  for (int i = 0; i < steps; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool DrainsWithinSlo(double last_arrival_ns, double makespan_ns,
                     double slo_ns) {
  return makespan_ns - last_arrival_ns <= slo_ns;
}

std::uint64_t SimDigest(std::span<const double> values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

}  // namespace updlrm::suite
