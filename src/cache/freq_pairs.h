// A co-occurrence-oblivious cache-list generator.
//
// §5 notes UpDLRM "does not rely on GRACE and can work with any other
// caching technique". This is the simplest such technique — and the
// natural strawman for GRACE's co-occurrence graph: pair items purely
// by popularity rank (hottest with second-hottest, and so on), hoping
// popular items happen to co-occur. Benefits are still scored by trace
// replay, so lists that never co-occur are dropped.
//
// bench/abl_cache_miner compares the two: frequency pairing recovers a
// fraction of GRACE's traffic cut — popularity alone implies *some*
// co-occurrence under skew — but misses the deliberately co-accessed
// groups that make partial-sum caching pay.
#pragma once

#include <cstdint>

#include "cache/cache_list.h"
#include "common/status.h"
#include "trace/trace.h"

namespace updlrm::cache {

struct FreqPairOptions {
  /// The top `num_hot_items` by frequency are paired rank-adjacently.
  std::size_t num_hot_items = 8192;
  /// Items per list (2..kMaxCacheListSize).
  std::size_t list_size = 2;
  /// Maximum lists to emit (after benefit scoring).
  std::size_t max_lists = 8192;

  Status Validate() const;
};

class FreqPairMiner {
 public:
  explicit FreqPairMiner(FreqPairOptions options = {});

  /// Groups the hottest items rank-adjacently, scores each group by
  /// replaying the trace, drops zero-benefit groups, and returns the
  /// collection sorted by descending benefit. InvalidArgument when the
  /// trace holds an id >= num_items.
  Result<CacheRes> Mine(const trace::TableTrace& table,
                        std::uint64_t num_items) const;

 private:
  FreqPairOptions options_;
};

}  // namespace updlrm::cache
