// Hierarchical partial-sum reduction planning.
//
// The flat host reduction streams every pulled partial sum through one
// core: time = StreamTime(sum of all per-DPU output bytes). At fleet
// scale that single stream becomes the bottleneck. The hierarchical
// alternative reduces in two levels:
//
//   1. per-rank: the host worker that pulled rank r's partials reduces
//      them locally — ranks reduce concurrently, so this level costs
//      the *max* per-rank stream, not the sum;
//   2. cross-rank merge: the per-rank pooled buffers (batch x tables x
//      dim int64 accumulators) merge pairwise, ceil(log2(R)) levels
//      deep; each level moves one buffer over the hop class the pairing
//      distance implies (cross-rank inside a host, cross-host above).
//
// Across table-group shards (updlrm/scaleout.h) the "ranks" are shards
// split into G contiguous groups that hold disjoint tables, so the
// merge sums only where it must: each group's shards sum their row
// slices of the group's tables in a tree of ceil(log2(S/G)) levels,
// all groups concurrently, every level moving one group slice (batch x
// T/G tables x dim x 8 B). Then every other group's merged slice goes
// straight to the front end in one gather level: senders sharing a hop
// class share its link (one latency plus their summed bytes over its
// bandwidth), and the cross-rank and cross-host links run concurrently.
// G = 1 is the plain tree, and G = S a single gather.
//
// The flat stream runs on the host of rank 0 (the engine's own host, or
// the front end across shards). A pull lands on the host that owns the
// rank, so on a topology spanning hosts every rank off that host first
// sends its partials over the reducing host's cross-host link
// (FlatIngressTime); the hierarchical schedule reduces them where they
// land and pays the cross-host hops in its merge instead.
//
// PlanReduction prices both and picks the cheaper (ties stay flat), so
// the hierarchical option can never lose — the kReductionShape audit
// and the topology monotonicity tests pin this. Execution keeps the
// bit-exactness contract: per-rank accumulation and the pairwise merge
// reassociate only int64 additions of int32 wire terms, which are
// exactly associative, so hierarchical and flat orders produce
// identical pooled bytes (property-tested in tests/pim/reduction_test
// and tests/updlrm/determinism_test).
#pragma once

#include <cstdint>
#include <span>

#include "common/units.h"
#include "pim/topology.h"

namespace updlrm::pim {

struct ReductionPlan {
  /// True when the hierarchical schedule is strictly cheaper than the
  /// flat stream; the engine executes whichever this says.
  bool hierarchical = false;
  /// Disjoint table groups the merge spans (1 inside one engine).
  std::uint32_t groups = 1;
  /// Ranks that pulled any partial bytes this batch.
  std::uint32_t active_ranks = 0;
  /// The most active ranks in one group: the in-group tree's width.
  std::uint32_t group_ranks = 0;
  /// Merge depth: ceil(log2(group_ranks)) tree levels, plus one gather
  /// level when groups > 1.
  std::uint32_t levels = 0;
  Nanos flat_ns = 0.0;
  Nanos hier_ns = 0.0;
  /// The merge's part of hier_ns: one hop per tree level plus the
  /// gather.
  Nanos tree_ns = 0.0;
  /// min(flat_ns, hier_ns) — what the engine charges as cpu_aggregate
  /// (before the per-table bag overhead, identical in both schedules).
  Nanos time_ns = 0.0;
};

/// Prices the flat stream vs the per-rank + merge schedule for one
/// batch. `rank_partial_bytes[r]` is the total pulled partial-sum bytes
/// of rank r; the ranks form `groups` contiguous equal groups (which
/// must divide the rank count). `slice_bytes` is one group's merged
/// int64 accumulator buffer (batch x its tables x dim x 8): what every
/// tree level and every gather sender moves. `stream_bytes_per_sec` is
/// the host's sequential reduce bandwidth (the same constant the flat
/// path uses).
ReductionPlan PlanReduction(const FleetTopology& topo,
                            std::span<const std::uint64_t> rank_partial_bytes,
                            std::uint64_t slice_bytes,
                            double stream_bytes_per_sec,
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
