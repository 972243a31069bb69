#include "partition/allocation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace updlrm::partition {

Result<std::vector<std::uint32_t>> AllocateDpus(
    std::span<const dlrm::TableShape> shapes, std::uint32_t num_dpus,
    std::uint32_t col_shards, DpuAllocationPolicy policy,
    std::span<const double> weights) {
  if (shapes.empty()) {
    return Status::InvalidArgument("need at least one table");
  }
  if (col_shards == 0) {
    return Status::InvalidArgument("col_shards must be >= 1");
  }
  if (num_dpus % col_shards != 0) {
    return Status::InvalidArgument(
        "num_dpus must be a multiple of the column-shard count");
  }
  const std::uint64_t units = num_dpus / col_shards;  // row shards total
  const std::size_t tables = shapes.size();
  if (units < tables) {
    return Status::CapacityExceeded(
        "fewer row-shard units (" + std::to_string(units) +
        ") than tables (" + std::to_string(tables) + ")");
  }
  if (policy == DpuAllocationPolicy::kProportionalTraffic &&
      weights.size() != tables) {
    return Status::InvalidArgument(
        "traffic policy needs one weight per table");
  }

  std::vector<double> w(tables, 1.0);
  if (policy == DpuAllocationPolicy::kProportionalTraffic) {
    for (std::size_t t = 0; t < tables; ++t) {
      w[t] = std::max(weights[t], 0.0);
    }
  }
  const double total_w = std::accumulate(w.begin(), w.end(), 0.0);
  if (total_w <= 0.0) {
    std::fill(w.begin(), w.end(), 1.0);
  }

  // Largest-remainder apportionment with a 1-unit floor and a per-table
  // ceiling of its row count (a row shard cannot be empty).
  const double sum_w = std::accumulate(w.begin(), w.end(), 0.0);
  std::vector<std::uint64_t> alloc(tables, 1);
  std::vector<double> remainder(tables, 0.0);
  std::uint64_t assigned = tables;
  for (std::size_t t = 0; t < tables; ++t) {
    const double ideal =
        static_cast<double>(units) * w[t] / sum_w;
    const auto floor_units = static_cast<std::uint64_t>(ideal);
    const std::uint64_t cap = std::max<std::uint64_t>(shapes[t].rows, 1);
    const std::uint64_t grant =
        std::min(cap, std::max<std::uint64_t>(floor_units, 1));
    assigned += grant - 1;  // the floor of 1 is already counted
    alloc[t] = grant;
    remainder[t] = ideal - static_cast<double>(floor_units);
  }
  if (assigned > units) {
    // Over-committed (floors + caps): shave from the largest grants.
    while (assigned > units) {
      const std::size_t biggest = static_cast<std::size_t>(
          std::max_element(alloc.begin(), alloc.end()) - alloc.begin());
      if (alloc[biggest] == 1) {
        return Status::CapacityExceeded(
            "cannot satisfy 1 row shard per table");
      }
      --alloc[biggest];
      --assigned;
    }
  }
  // Distribute leftovers by largest remainder, respecting the caps.
  while (assigned < units) {
    std::size_t best = tables;
    for (std::size_t t = 0; t < tables; ++t) {
      if (alloc[t] >= shapes[t].rows) continue;  // capped
      if (best == tables || remainder[t] > remainder[best]) best = t;
    }
    if (best == tables) break;
    ++alloc[best];
    remainder[best] -= 1.0;
    ++assigned;
  }
  // Units still unassigned here (every table capped at its row count)
  // stay idle: no group gets them and the counts sum to less than
  // num_dpus. In practice rows >> shards.

  std::vector<std::uint32_t> result(tables);
  for (std::size_t t = 0; t < tables; ++t) {
    result[t] = static_cast<std::uint32_t>(alloc[t] * col_shards);
  }
  return result;
}

}  // namespace updlrm::partition
