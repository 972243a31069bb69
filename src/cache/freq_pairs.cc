#include "cache/freq_pairs.h"

#include <algorithm>

#include "cache/grace.h"
#include "trace/profiler.h"

namespace updlrm::cache {

Status FreqPairOptions::Validate() const {
  if (num_hot_items < 2) {
    return Status::InvalidArgument("num_hot_items must be >= 2");
  }
  if (list_size < 2 || list_size > kMaxCacheListSize) {
    return Status::InvalidArgument("list_size must be in [2, " +
                                   std::to_string(kMaxCacheListSize) + "]");
  }
  if (max_lists == 0) {
    return Status::InvalidArgument("max_lists must be >= 1");
  }
  return Status::Ok();
}

FreqPairMiner::FreqPairMiner(FreqPairOptions options) : options_(options) {}

Result<CacheRes> FreqPairMiner::Mine(const trace::TableTrace& table,
                                     std::uint64_t num_items) const {
  UPDLRM_RETURN_IF_ERROR(options_.Validate());
  if (num_items == 0) {
    return Status::InvalidArgument("num_items must be > 0");
  }
  auto profile = trace::CheckedProfileTable(table, num_items);
  if (!profile.ok()) return profile.status();
  const std::vector<std::uint64_t>& freq = profile->freq;

  CacheRes res;
  std::vector<std::uint32_t> group;
  for (std::uint32_t id : profile->by_freq) {
    if (res.lists.size() * options_.list_size + group.size() >=
            options_.num_hot_items ||
        freq[id] == 0) {
      break;
    }
    group.push_back(id);
    if (group.size() == options_.list_size) {
      std::sort(group.begin(), group.end());
      res.lists.push_back(CacheList{group, 0.0});
      group.clear();
    }
  }

  res = ScoreCacheLists(table, num_items, res);
  if (res.lists.size() > options_.max_lists) {
    res.lists.resize(options_.max_lists);
  }
  UPDLRM_RETURN_IF_ERROR(res.Validate(num_items));
  return res;
}

}  // namespace updlrm::cache
