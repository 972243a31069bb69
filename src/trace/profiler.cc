#include "trace/profiler.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/radix_sort.h"
#include "common/stats.h"

namespace updlrm::trace {

std::vector<std::uint64_t> ItemFrequencies(const TableTrace& table,
                                           std::uint64_t num_items) {
  auto freq = CheckedItemFrequencies(table, num_items);
  UPDLRM_CHECK_MSG(freq.ok(), freq.status().ToString());
  return std::move(freq).value();
}

Result<std::vector<std::uint64_t>> CheckedItemFrequencies(
    const TableTrace& table, std::uint64_t num_items) {
  std::vector<std::uint64_t> freq(num_items, 0);
  for (std::uint32_t idx : table.indices()) {
    if (idx >= num_items) {
      return Status::InvalidArgument(
          "trace holds an item id >= num_items (" +
          std::to_string(num_items) + ")");
    }
    ++freq[idx];
  }
  return freq;
}

std::vector<std::uint64_t> RowBlockCounts(
    std::span<const std::uint64_t> freq, std::size_t num_blocks) {
  UPDLRM_CHECK(num_blocks >= 1 && num_blocks <= freq.size());
  const std::size_t block_size = freq.size() / num_blocks;
  std::vector<std::uint64_t> blocks(num_blocks, 0);
  for (std::size_t i = 0; i < freq.size(); ++i) {
    const std::size_t b = std::min(i / block_size, num_blocks - 1);
    blocks[b] += freq[i];
  }
  return blocks;
}

SkewReport AnalyzeSkew(std::span<const std::uint64_t> block_counts) {
  SkewReport report;
  const std::vector<double> loads = ToDoubles(block_counts);
  report.max_min_ratio = MaxMinRatio(loads);
  report.imbalance = ImbalanceRatio(loads);
  report.cv = CoefficientOfVariation(loads);
  report.gini = GiniCoefficient(loads);
  const double total = std::accumulate(loads.begin(), loads.end(), 0.0);
  if (total > 0.0) {
    report.top_block_share =
        *std::max_element(loads.begin(), loads.end()) / total;
  }
  return report;
}

double TopKAccessShare(std::span<const std::uint64_t> freq,
                       std::size_t top_k) {
  if (freq.empty() || top_k == 0) return 0.0;
  // Only the top-k *multiset of values* matters, and both sums are
  // exact integer sums (order-insensitive) — a linear-time selection
  // gives the same result as a full descending sort.
  std::vector<std::uint64_t> values(freq.begin(), freq.end());
  top_k = std::min(top_k, values.size());
  std::nth_element(values.begin(), values.begin() + (top_k - 1),
                   values.end(), std::greater<std::uint64_t>());
  const double total = static_cast<double>(
      std::accumulate(values.begin(), values.end(), std::uint64_t{0}));
  if (total == 0.0) return 0.0;
  const double top = static_cast<double>(
      std::accumulate(values.begin(), values.begin() + top_k,
                      std::uint64_t{0}));
  return top / total;
}

std::vector<std::uint32_t> ItemsByFrequency(
    std::span<const std::uint64_t> freq) {
  // Stable descending-by-frequency == stable ascending on ~freq; the
  // radix sort reproduces the stable_sort permutation exactly.
  std::vector<std::uint32_t> ids(freq.size());
  std::iota(ids.begin(), ids.end(), 0U);
  std::vector<std::uint64_t> keys(freq.size());
  for (std::size_t i = 0; i < freq.size(); ++i) {
    keys[i] = AscendingKeyFromDescendingU64(freq[i]);
  }
  StableRadixSortIdsByKey(std::span<std::uint32_t>(ids),
                          std::span<std::uint64_t>(keys));
  return ids;
}

TableProfile ProfileTable(const TableTrace& table,
                          std::uint64_t num_items) {
  auto profile = CheckedProfileTable(table, num_items);
  UPDLRM_CHECK_MSG(profile.ok(), profile.status().ToString());
  return std::move(profile).value();
}

Result<TableProfile> CheckedProfileTable(const TableTrace& table,
                                         std::uint64_t num_items) {
  auto freq = CheckedItemFrequencies(table, num_items);
  if (!freq.ok()) return freq.status();
  TableProfile profile;
  profile.freq = std::move(freq).value();
  profile.by_freq = ItemsByFrequency(profile.freq);
  return profile;
}

}  // namespace updlrm::trace
