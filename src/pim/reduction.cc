#include "pim/reduction.h"

#include <algorithm>
#include <array>

#include "common/status.h"

namespace updlrm::pim {

std::uint32_t Log2Levels(std::uint64_t n) {
  std::uint32_t levels = 0;
  std::uint64_t span = 1;
  while (span < n) {
    span <<= 1;
    ++levels;
  }
  return levels;
}

TransferHop MergeLevelHop(const FleetTopology& topo, std::uint32_t level) {
  if (topo.single_host()) return TransferHop::kCrossRank;
  // Level l pairs nodes 2^l ranks apart; once the pairing distance
  // reaches the per-host rank count, partners live on different hosts.
  const std::uint64_t distance = std::uint64_t{1} << level;
  return distance < topo.ranks_per_host() ? TransferHop::kCrossRank
                                          : TransferHop::kCrossHost;
}

ReductionPlan PlanReduction(
    const FleetTopology& topo,
    std::span<const std::uint64_t> rank_partial_bytes,
    std::span<const std::uint64_t> level_bytes,
    double stream_bytes_per_sec) {
  ReductionPlan plan;
  std::uint64_t total_bytes = 0;
  std::uint64_t max_rank_bytes = 0;
  for (const std::uint64_t b : rank_partial_bytes) {
    total_bytes += b;
    max_rank_bytes = std::max(max_rank_bytes, b);
    if (b > 0) ++plan.active_ranks;
  }
  plan.flat_ns = TransferNanos(total_bytes, stream_bytes_per_sec);
  plan.levels = Log2Levels(plan.active_ranks);
  UPDLRM_CHECK(level_bytes.size() >= plan.levels);

  // Level 1: concurrent per-rank reduce streams — the slowest rank
  // bounds it. Level 2: the merge tree; every level moves one buffer
  // per surviving pair, and pairs within a level merge concurrently,
  // so a level costs one hop of its class.
  plan.hier_ns = TransferNanos(max_rank_bytes, stream_bytes_per_sec);
  for (std::uint32_t l = 0; l < plan.levels; ++l) {
    const Nanos hop = topo.HopTime(MergeLevelHop(topo, l), level_bytes[l]);
    plan.hier_ns += hop;
    plan.tree_ns += hop;
  }

  // Ties stay flat: strict improvement required, so the degenerate
  // single-rank fleet (hier == flat == one stream) keeps the exact
  // historical pricing.
  plan.hierarchical =
      plan.active_ranks > 1 && plan.hier_ns < plan.flat_ns;
  plan.time_ns = plan.hierarchical ? plan.hier_ns : plan.flat_ns;
  return plan;
}

ReductionPlan PlanReduction(
    const FleetTopology& topo,
    std::span<const std::uint64_t> rank_partial_bytes,
    std::uint64_t pooled_bytes, double stream_bytes_per_sec) {
  // A rank count fits 32 bits, so the tree is at most 32 levels deep.
  std::array<std::uint64_t, 32> level_bytes;
  level_bytes.fill(pooled_bytes);
  return PlanReduction(topo, rank_partial_bytes, level_bytes,
                       stream_bytes_per_sec);
}

}  // namespace updlrm::pim
