// Trace profiling: access-frequency histograms and skew metrics.
//
// The non-uniform and cache-aware partitioners consume the per-item
// access-frequency histogram ("obj_freq" in Algorithm 1); the Fig. 5
// bench consumes the row-block histogram.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "trace/trace.h"

namespace updlrm::trace {

/// Per-item access counts for one table (size == num_items). Aborts on
/// an id >= num_items.
std::vector<std::uint64_t> ItemFrequencies(const TableTrace& table,
                                           std::uint64_t num_items);

/// ItemFrequencies for untrusted traces: InvalidArgument on an id >=
/// num_items instead of aborting.
Result<std::vector<std::uint64_t>> CheckedItemFrequencies(
    const TableTrace& table, std::uint64_t num_items);

/// Sum of per-item counts over contiguous row blocks — Fig. 5's
/// "accesses per row block" histogram. Blocks are equal-sized (the last
/// absorbs the remainder). Requires 1 <= num_blocks <= freq.size().
std::vector<std::uint64_t> RowBlockCounts(
    std::span<const std::uint64_t> freq, std::size_t num_blocks);

struct SkewReport {
  double max_min_ratio = 0.0;  // the "340x" metric of Fig. 5
  double imbalance = 0.0;      // max / mean
  double cv = 0.0;             // coefficient of variation
  double gini = 0.0;
  double top_block_share = 0.0;  // fraction of accesses in the max block
};

SkewReport AnalyzeSkew(std::span<const std::uint64_t> block_counts);

/// Fraction of all accesses that hit the `top_k` most frequent items —
/// used to size FAE's GPU-resident hot-item cache and to sanity-check
/// generated skew.
double TopKAccessShare(std::span<const std::uint64_t> freq,
                       std::size_t top_k);

/// Item ids sorted by descending access frequency (ties by id).
std::vector<std::uint32_t> ItemsByFrequency(
    std::span<const std::uint64_t> freq);

/// One table's profile, computed once and shared across every consumer
/// that would otherwise re-derive it: the per-item access histogram and
/// its descending-frequency permutation. Both partitioners and the
/// engine accept these precomputed (the profiling analogue of
/// EngineOptions::premined_cache) — re-profiling the same trace per
/// engine configuration repeats a full radix sort of every table row.
struct TableProfile {
  std::vector<std::uint64_t> freq;     // ItemFrequencies(table, items)
  std::vector<std::uint32_t> by_freq;  // ItemsByFrequency(freq)
};

/// Profiles one table: histogram + descending-frequency order. Aborts
/// on an id >= num_items.
TableProfile ProfileTable(const TableTrace& table,
                          std::uint64_t num_items);

/// ProfileTable for untrusted traces: InvalidArgument on an id >=
/// num_items instead of aborting.
Result<TableProfile> CheckedProfileTable(const TableTrace& table,
                                         std::uint64_t num_items);

}  // namespace updlrm::trace
