// Stage-3 reduction pricing.
//
// Inside one engine the host aggregates every pulled partial sum in
// one flat stream (the paper's stage 3, §3.1), on the host of rank 0.
// A pull lands on the host that owns the rank, so on a topology
// spanning hosts every rank off that host first sends its partials
// over the reducing host's cross-host link: FlatIngressTime prices
// that ingress, and the engine adds it to the stream.
//
// Across table-group shards (updlrm/scaleout.h) each shard reduces its
// own partials on its own host, and PlanReduction prices the merge of
// the shards' results. The "ranks" are shards split into G contiguous
// groups that hold disjoint tables, so the merge sums only where it
// must: each group's shards sum their row slices of the group's tables
// in a pairwise tree of ceil(log2(S/G)) levels, all groups
// concurrently, every level moving one group slice (batch x T/G tables
// x dim x 8 B) over the hop class its farthest pair implies
// (cross-rank inside a host, cross-host above). Then every other
// group's merged slice goes straight to the front end in one gather
// level: senders sharing a hop class share its link (one latency plus
// their summed bytes over its bandwidth), and the cross-rank and
// cross-host links run concurrently. G = 1 is the plain tree, and
// G = S a single gather. The merged accumulators are int64 sums of
// int32 wire terms, exactly associative, so the merge order never
// changes the pooled bytes.
#pragma once

#include <cstdint>
#include <span>

#include "common/units.h"
#include "pim/topology.h"

namespace updlrm::pim {

struct ReductionPlan {
  /// Disjoint table groups the merge spans.
  std::uint32_t groups = 1;
  /// Ranks that pulled any partial bytes this batch.
  std::uint32_t active_ranks = 0;
  /// The most active ranks in one group: the in-group tree's width.
  std::uint32_t group_ranks = 0;
  /// Merge depth: ceil(log2(group_ranks)) tree levels, plus one gather
  /// level when groups > 1.
  std::uint32_t levels = 0;
  /// The merge's price: one hop per tree level plus the gather.
  Nanos tree_ns = 0.0;
};

/// Prices the cross-shard merge for one batch. `rank_partial_bytes[r]`
/// is the total pulled partial-sum bytes of rank r (a rank that pulled
/// nothing joins no tree); the ranks form `groups` contiguous equal
/// groups (which must divide the rank count). `slice_bytes` is one
/// group's merged int64 accumulator buffer (batch x its tables x dim x
/// 8): what every tree level and every gather sender moves.
ReductionPlan PlanReduction(const FleetTopology& topo,
                            std::span<const std::uint64_t> rank_partial_bytes,
                            std::uint64_t slice_bytes,
                            std::uint32_t groups = 1);

/// ceil(log2(n)) with Log2Levels(0) == Log2Levels(1) == 0.
std::uint32_t Log2Levels(std::uint64_t n);

/// Hop class of in-group tree level `level` (0-based) when the
/// topology's ranks form contiguous groups of `group_width`: level l
/// merges rank lo + i + 2^l into lo + i (i a multiple of 2^(l+1)) in
/// every group at once, so it costs the farthest such pair's hop —
/// cross-host as soon as one pair straddles a host boundary, also when
/// a group does not start on one.
TransferHop MergeLevelHop(const FleetTopology& topo,
                          std::uint32_t group_width, std::uint32_t level);

/// What the flat stream pays, on top of streaming every partial, to
/// bring the partials of ranks owned by another host than rank 0's onto
/// rank 0's host: those senders share its link, so one cross-host hop
/// of their summed bytes. Zero when every active rank shares rank 0's
/// host (in particular on any single-host topology).
Nanos FlatIngressTime(const FleetTopology& topo,
                      std::span<const std::uint64_t> rank_partial_bytes);

}  // namespace updlrm::pim
