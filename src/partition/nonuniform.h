// Non-uniform EMT partitioning (§3.2).
//
// Real traces have strongly skewed item popularity, so equal row blocks
// leave some DPUs with orders of magnitude more lookups than others.
// The non-uniform method treats each row bin as a bin-packing bin with
// fixed count: sort items by profiled access frequency (descending) and
// greedily assign each to the bin with the lowest aggregate frequency
// that still has EMT capacity. O(R) over items with a small per-bin
// scan, as in the paper.
#pragma once

#include <cstdint>
#include <span>

#include "common/status.h"
#include "partition/plan.h"

namespace updlrm::partition {

struct NonUniformOptions {
  /// Per-bin EMT capacity in rows (e.g. BinCapacity.emt_bytes /
  /// row_bytes). 0 means unlimited.
  std::uint64_t max_rows_per_bin = 0;

  /// Precomputed descending-frequency order (ItemsByFrequency(freq),
  /// e.g. trace::TableProfile::by_freq). The permutation depends only
  /// on `freq`, so callers building several plans from one profile can
  /// share it instead of re-sorting every row per plan. Empty =
  /// compute internally; non-empty must have one entry per row.
  std::span<const std::uint32_t> order;
};

/// Greedy frequency-balanced assignment. `freq[r]` is the profiled
/// access count of row r (size must equal table rows). Fails with
/// CapacityExceeded when the rows cannot fit the bins.
Result<PartitionPlan> NonUniformPartition(
    const GroupGeometry& geom, std::span<const std::uint64_t> freq,
    const NonUniformOptions& options = {});

}  // namespace updlrm::partition
