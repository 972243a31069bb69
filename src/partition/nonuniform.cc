#include "partition/nonuniform.h"

#include <algorithm>
#include <limits>

#include "trace/profiler.h"

namespace updlrm::partition {

Result<PartitionPlan> NonUniformPartition(
    const GroupGeometry& geom, std::span<const std::uint64_t> freq,
    const NonUniformOptions& options) {
  if (freq.size() != geom.table.rows) {
    return Status::InvalidArgument(
        "freq must have one entry per table row");
  }
  if (!options.order.empty() && options.order.size() != freq.size()) {
    return Status::InvalidArgument(
        "order hint must have one entry per table row");
  }
  const std::uint64_t capacity = options.max_rows_per_bin == 0
                                     ? std::numeric_limits<std::uint64_t>::max()
                                     : options.max_rows_per_bin;
  if (capacity * geom.row_shards < geom.table.rows) {
    return Status::CapacityExceeded(
        "rows exceed total bin capacity: " +
        std::to_string(geom.table.rows) + " rows, " +
        std::to_string(capacity) + " per bin x " +
        std::to_string(geom.row_shards) + " bins");
  }

  PartitionPlan plan;
  plan.geom = geom;
  plan.method = Method::kNonUniform;
  plan.row_bin.assign(geom.table.rows, 0);

  std::vector<std::uint32_t> computed_order;
  if (options.order.empty()) computed_order = trace::ItemsByFrequency(freq);
  const std::span<const std::uint32_t> order =
      options.order.empty() ? std::span<const std::uint32_t>(computed_order)
                            : options.order;

  std::vector<std::uint64_t> bin_load(geom.row_shards, 0);
  std::vector<std::uint64_t> bin_rows(geom.row_shards, 0);
  for (const std::uint32_t row : order) {
    // Lowest aggregate frequency wins; ties break toward fewer rows so
    // the zero-frequency tail still spreads evenly.
    std::int64_t best = -1;
    for (std::uint32_t b = 0; b < geom.row_shards; ++b) {
      if (bin_rows[b] >= capacity) continue;
      if (best < 0 || bin_load[b] < bin_load[best] ||
          (bin_load[b] == bin_load[best] &&
           bin_rows[b] < bin_rows[best])) {
        best = b;
      }
    }
    UPDLRM_CHECK_MSG(best >= 0, "capacity pre-check guarantees a free bin");
    plan.row_bin[row] = static_cast<std::uint32_t>(best);
    bin_load[best] += freq[row];
    ++bin_rows[best];
  }
  return plan;
}

}  // namespace updlrm::partition
