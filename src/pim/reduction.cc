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
    std::uint64_t slice_bytes, std::uint32_t groups) {
  const std::size_t ranks = rank_partial_bytes.size();
  UPDLRM_CHECK(ranks == topo.num_ranks());
  UPDLRM_CHECK(groups > 0 && ranks % groups == 0);
  const std::size_t group_width = ranks / groups;
  ReductionPlan plan;
  plan.groups = groups;
  for (std::size_t lo = 0; lo < ranks; lo += group_width) {
    std::uint32_t active = 0;
    for (std::size_t r = lo; r < lo + group_width; ++r) {
      if (rank_partial_bytes[r] > 0) ++active;
    }
    plan.active_ranks += active;
    plan.group_ranks = std::max(plan.group_ranks, active);
  }
  const std::uint32_t tree_levels = Log2Levels(plan.group_ranks);
  plan.levels = tree_levels + (groups > 1 ? 1 : 0);

  // The in-group tree: every level moves one slice per surviving pair,
  // and pairs (and groups) within a level merge concurrently, so a
  // level costs one hop of its farthest pair's class.
  for (std::uint32_t l = 0; l < tree_levels; ++l) {
    plan.tree_ns += topo.HopTime(
        MergeLevelHop(topo, static_cast<std::uint32_t>(group_width), l),
        slice_bytes);
  }
  // The gather. Group g's slice sits at its first rank; each hop class
  // is one shared link, and the links run concurrently.
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
    plan.tree_ns += gather;
  }
  return plan;
}

}  // namespace updlrm::pim
