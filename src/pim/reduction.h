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
//   2. cross-rank merge tree: the per-rank pooled buffers (batch x
//      tables x dim int64 accumulators) merge pairwise, ceil(log2(R))
//      levels deep; each level moves one buffer over the hop class the
//      pairing distance implies (cross-rank inside a host, cross-host
//      above). A level's buffer is the full pooled buffer inside one
//      engine; across table-group shards it is the slice of tables the
//      sending subtree holds (updlrm/scaleout.h).
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
  /// Ranks that pulled any partial bytes this batch.
  std::uint32_t active_ranks = 0;
  /// Merge-tree depth: ceil(log2(active_ranks)); 0 when <= 1 rank.
  std::uint32_t levels = 0;
  Nanos flat_ns = 0.0;
  Nanos hier_ns = 0.0;
  /// The merge tree's part of hier_ns: one hop per level.
  Nanos tree_ns = 0.0;
  /// min(flat_ns, hier_ns) — what the engine charges as cpu_aggregate
  /// (before the per-table bag overhead, identical in both schedules).
  Nanos time_ns = 0.0;
};

/// Prices the flat stream vs the per-rank + merge-tree schedule for one
/// batch. `rank_partial_bytes[r]` is the total pulled partial-sum bytes
/// of rank r; `level_bytes[l]` is the size of the int64 accumulator
/// buffer merge level l moves (at least ceil(log2(active ranks))
/// entries); `stream_bytes_per_sec` is the host's sequential reduce
/// bandwidth (the same constant the flat path uses).
ReductionPlan PlanReduction(const FleetTopology& topo,
                            std::span<const std::uint64_t> rank_partial_bytes,
                            std::span<const std::uint64_t> level_bytes,
                            double stream_bytes_per_sec);

/// Every level moves one merged pooled buffer of `pooled_bytes` (batch
/// x tables x dim x 8): the tree inside one engine.
ReductionPlan PlanReduction(const FleetTopology& topo,
                            std::span<const std::uint64_t> rank_partial_bytes,
                            std::uint64_t pooled_bytes,
                            double stream_bytes_per_sec);

/// ceil(log2(n)) with Log2Levels(0) == Log2Levels(1) == 0.
std::uint32_t Log2Levels(std::uint64_t n);

/// Hop class of merge level `level` (0-based): pairing distance 2^level
/// ranks — cross-rank while both partners share a host, cross-host
/// above. Monotone in `level` for any valid topology.
TransferHop MergeLevelHop(const FleetTopology& topo, std::uint32_t level);

}  // namespace updlrm::pim
