// GRACE-style co-occurrence mining.
//
// The paper uses GRACE [Ye et al., ASPLOS'23] as a black box that turns
// an access trace into `cache_res`: groups of hot items that frequently
// coexist in a sample, with an estimated memory-access benefit per
// group. GraceMiner reproduces that artifact with the same graph-based
// idea: build the pairwise co-occurrence graph over the hottest items,
// then greedily grow high-weight groups (up to kMaxCacheListSize items)
// from the heaviest edges, and finally score each group by replaying the
// trace ("benefit" = accesses avoided when every >=2-item intersection
// collapses to a single cached-partial-sum read). The paper notes
// UpDLRM works with any cache-list generator; this one is ours.
#pragma once

#include <cstdint>

#include "cache/cache_list.h"
#include "common/status.h"
#include "trace/profiler.h"
#include "trace/trace.h"

namespace updlrm::cache {

// Pairs counted per sample are capped (a sample with h hot items
// contributes O(h^2) edges): a sample with more hot items counts the
// pairs of a seeded random subset of this many. Sampling by frequency
// would count the same head items every time and starve
// mid-popularity cliques; random subsampling scales every pair's
// support by the same expected factor, preserving the ranking.
inline constexpr std::size_t kMaxHotPerSample = 96;

struct GraceOptions {
  // Only the `num_hot_items` most frequent items enter the graph
  // (co-occurrence counting over all items is quadratic in sample size).
  std::size_t num_hot_items = 16384;
  // Minimum pair co-occurrence count for an edge to be considered.
  std::uint64_t min_pair_count = 4;
  // Maximum number of lists to emit (highest benefit first).
  std::size_t max_lists = 8192;
  // Maximum items per list; capped at kMaxCacheListSize.
  std::size_t max_list_size = kMaxCacheListSize;
  // Host threads for the hot-rank fill, the pair-block counting and
  // the scoring replay (0 = default pool, 1 = serial). Mined results
  // are thread-count invariant: every sample writes its hot ranks at a
  // fixed offset, counts are exact integers, blocks emit their edges in
  // rank order whichever thread counts them, and ties break on item
  // ids.
  std::uint32_t num_threads = 0;

  Status Validate() const;
};

class GraceMiner {
 public:
  explicit GraceMiner(GraceOptions options = {});

  /// Mines cache lists from one table's trace. Lists are disjoint,
  /// benefit-scored on the same trace, and sorted by descending benefit;
  /// zero-benefit groups are dropped. `profile` optionally supplies the
  /// table's precomputed freq (trace::ProfileTable; by_freq is not
  /// read) so callers that already profiled the trace skip the miner's
  /// own counting pass; null = count internally. Results are identical
  /// either way. InvalidArgument when the trace holds an id >=
  /// num_items, or when `profile` cannot describe `table` (wrong size,
  /// or a count above the sample count).
  Result<CacheRes> Mine(const trace::TableTrace& table,
                        std::uint64_t num_items,
                        const trace::TableProfile* profile = nullptr) const;

  const GraceOptions& options() const { return options_; }

 private:
  GraceOptions options_;
};

/// Replays `table` and recomputes the benefit of each list in `res`
/// (avoided accesses). Used to score externally supplied or trimmed
/// cache lists; returns a copy with updated, re-sorted benefits.
/// Sample shards are replayed in parallel (`num_threads`: 0 = default
/// pool, 1 = serial); per-list benefits are exact integer counts, so
/// the shard merge is order-insensitive and the result thread-count
/// invariant.
CacheRes ScoreCacheLists(const trace::TableTrace& table,
                         std::uint64_t num_items, const CacheRes& res,
                         std::uint32_t num_threads = 0);

}  // namespace updlrm::cache
