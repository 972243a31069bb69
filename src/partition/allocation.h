// DPU-to-table allocation (extension for heterogeneous tables).
//
// The paper duplicates one dataset into 8 identical EMTs and splits the
// 256 DPUs evenly. With heterogeneous tables an even split wastes DPUs:
// a 100k-row side table gets as many as a 10M-row user table, and
// stage 2 waits for the overloaded group. Allocation assigns each table
// a DPU count proportional to its profiled traffic, in units of the
// column-shard width (every group needs a whole number of row shards).
// Traffic-proportional groups size placement from per-table statistics,
// as RecShard does.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "dlrm/embedding.h"

namespace updlrm::partition {

enum class DpuAllocationPolicy {
  kEqual,                // the paper's setup: num_dpus / num_tables each
  kProportionalTraffic,  // weight = profiled lookups (time balance)
};

/// Splits `num_dpus` across tables. Every table receives a positive
/// multiple of `col_shards` DPUs (at least one row shard), never more
/// row shards than it has rows. The counts sum to exactly num_dpus
/// unless every table is capped at its row count; the units left over
/// then stay unassigned.
/// `weights` is required (same size as shapes) for kProportionalTraffic
/// and ignored otherwise.
Result<std::vector<std::uint32_t>> AllocateDpus(
    std::span<const dlrm::TableShape> shapes, std::uint32_t num_dpus,
    std::uint32_t col_shards, DpuAllocationPolicy policy,
    std::span<const double> weights = {});

}  // namespace updlrm::partition
