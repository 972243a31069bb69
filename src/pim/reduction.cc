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

TransferHop MergeLevelHop(const FleetTopology& topo,
                          std::uint32_t group_width, std::uint32_t level) {
  const std::uint32_t ranks = topo.num_ranks();
  UPDLRM_CHECK(group_width > 0 && ranks % group_width == 0);
  const std::uint64_t distance = std::uint64_t{1} << level;
  TransferHop farthest = TransferHop::kCrossRank;
  for (std::uint32_t lo = 0; lo < ranks; lo += group_width) {
    for (std::uint64_t i = 0; i + distance < group_width;
         i += 2 * distance) {
      const TransferHop hop =
          topo.HopBetween(static_cast<std::uint32_t>(lo + i),
                          static_cast<std::uint32_t>(lo + i + distance));
      farthest = std::max(farthest, hop);
    }
  }
  return farthest;
}

Nanos FlatIngressTime(const FleetTopology& topo,
                      std::span<const std::uint64_t> rank_partial_bytes) {
  if (topo.num_hosts() == 1) return 0.0;
  const std::uint32_t home = topo.HostOfRank(0);
  std::uint64_t remote_bytes = 0;
  for (std::size_t r = 0; r < rank_partial_bytes.size(); ++r) {
    if (topo.HostOfRank(static_cast<std::uint32_t>(r)) != home) {
      remote_bytes += rank_partial_bytes[r];
    }
  }
  return remote_bytes == 0
             ? 0.0
             : topo.HopTime(TransferHop::kCrossHost, remote_bytes);
}

ReductionPlan PlanReduction(
    const FleetTopology& topo,
    std::span<const std::uint64_t> rank_partial_bytes,
    std::uint64_t slice_bytes, double stream_bytes_per_sec,
    std::uint32_t groups) {
  const std::size_t ranks = rank_partial_bytes.size();
  UPDLRM_CHECK(ranks == topo.num_ranks());
  UPDLRM_CHECK(groups > 0 && ranks % groups == 0);
  const std::size_t group_width = ranks / groups;
  ReductionPlan plan;
  plan.groups = groups;
  std::uint64_t total_bytes = 0;
  std::uint64_t max_rank_bytes = 0;
  for (std::size_t lo = 0; lo < ranks; lo += group_width) {
    std::uint32_t active = 0;
    for (std::size_t r = lo; r < lo + group_width; ++r) {
      const std::uint64_t b = rank_partial_bytes[r];
      total_bytes += b;
      max_rank_bytes = std::max(max_rank_bytes, b);
      if (b > 0) ++active;
    }
    plan.active_ranks += active;
    plan.group_ranks = std::max(plan.group_ranks, active);
  }
  plan.flat_ns = TransferNanos(total_bytes, stream_bytes_per_sec) +
                 FlatIngressTime(topo, rank_partial_bytes);
  const std::uint32_t tree_levels = Log2Levels(plan.group_ranks);
  plan.levels = tree_levels + (groups > 1 ? 1 : 0);

  // Level 1: concurrent per-rank reduce streams — the slowest rank
  // bounds it. Level 2: the in-group tree; every level moves one slice
  // per surviving pair, and pairs (and groups) within a level merge
  // concurrently, so a level costs one hop of its farthest pair's class.
  plan.hier_ns = TransferNanos(max_rank_bytes, stream_bytes_per_sec);
  for (std::uint32_t l = 0; l < tree_levels; ++l) {
    const Nanos hop = topo.HopTime(
        MergeLevelHop(topo, static_cast<std::uint32_t>(group_width), l),
        slice_bytes);
    plan.hier_ns += hop;
    plan.tree_ns += hop;
  }
  // Level 3: the gather. Group g's slice sits at its first rank; each
  // hop class is one shared link, and the links run concurrently.
  if (groups > 1) {
    std::array<std::uint64_t, 3> class_bytes{};
    for (std::size_t lo = group_width; lo < ranks; lo += group_width) {
      const TransferHop hop =
          topo.HopBetween(0, static_cast<std::uint32_t>(lo));
      class_bytes[static_cast<std::size_t>(hop)] += slice_bytes;
    }
    Nanos gather = 0.0;
    for (std::size_t c = 0; c < class_bytes.size(); ++c) {
      if (class_bytes[c] == 0) continue;
      gather = std::max(gather, topo.HopTime(static_cast<TransferHop>(c),
                                             class_bytes[c]));
    }
    plan.hier_ns += gather;
    plan.tree_ns += gather;
  }

  // Ties stay flat: strict improvement required, so the degenerate
  // single-rank fleet (hier == flat == one stream) keeps the exact
  // historical pricing.
  plan.hierarchical =
      plan.active_ranks > 1 && plan.hier_ns < plan.flat_ns;
  plan.time_ns = plan.hierarchical ? plan.hier_ns : plan.flat_ns;
  return plan;
}

}  // namespace updlrm::pim
