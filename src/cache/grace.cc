#include "cache/grace.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <numeric>

#include "common/radix_sort.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "telemetry/tracer.h"
#include "trace/profiler.h"

namespace updlrm::cache {

namespace {

// rank_of entry of an item outside the hot set.
constexpr std::uint32_t kNotHot = std::numeric_limits<std::uint32_t>::max();

// Hot sets up to this size pack a rank pair into a u32 key (16 bits per
// rank); larger ones use u64 keys (32 bits per rank).
constexpr std::size_t kMaxHotForU32Keys = std::size_t{1} << 16;

// Samples are counted in parallel shards; a per-sample seed keeps the
// (rare) hot-item subsampling independent of both shard boundaries and
// thread count.
std::uint64_t SubsampleSeed(std::size_t sample) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ sample;
  return SplitMix64(state);
}

// Shard grain for the counting / scoring replays: big enough to
// amortize the per-shard scratch, small enough to load-balance.
std::size_t ReplayGrain(std::size_t num_samples) {
  return std::max<std::size_t>(64, num_samples / 256);
}

// Pairs a sample with `hot` hot items contributes: every 2-subset of
// its hot items after the cap.
std::uint64_t PairsOf(std::size_t hot) {
  const std::uint64_t h = std::min(hot, kMaxHotPerSample);
  return h < 2 ? 0 : h * (h - 1) / 2;
}

// Hot ranks of sample `s` in sample order, subsampled to the cap.
void HotRanks(std::span<const std::uint32_t> sample, std::size_t s,
              std::span<const std::uint32_t> rank_of,
              std::vector<std::uint32_t>& hot) {
  hot.clear();
  for (std::uint32_t idx : sample) {
    const std::uint32_t r = rank_of[idx];
    if (r != kNotHot) hot.push_back(r);
  }
  if (hot.size() > kMaxHotPerSample) {
    Rng subsample_rng(SubsampleSeed(s));
    subsample_rng.Shuffle(hot);
    hot.resize(kMaxHotPerSample);
  }
}

// One co-occurrence edge between hot ranks a <= b.
struct Edge {
  std::uint64_t count;
  std::uint32_t a, b;
};

// Counts every hot pair of every sample exactly. A rank pass sizes
// each sample's run of pair keys (rank a in the high half of the key, b
// in the low) and prefix-sums the runs into fixed offsets of one
// buffer; the fill pass writes each run in place, so the buffer's bytes
// do not depend on the thread count. The buffer is radix-sorted and
// equal keys are run-length counted. Returns the edges with count >=
// min_pair_count in ascending (a, b) order, or InvalidArgument when the
// trace holds an id >= rank_of.size(), the item count (the rank pass
// checks every id before anything indexes by it).
template <typename Key>
Result<std::vector<Edge>> CountEdges(const trace::TableTrace& table,
                                     std::span<const std::uint32_t> rank_of,
                                     std::uint64_t min_pair_count,
                                     std::uint32_t num_threads) {
  constexpr int kRankBits = sizeof(Key) * 4;
  const std::size_t num_samples = table.num_samples();
  std::vector<Key> keys;
  {
    telemetry::TraceSpan span("grace.count", "cache");
    std::vector<std::uint64_t> run_offset(num_samples + 1, 0);
    std::atomic<bool> id_out_of_range{false};
    ParallelFor(
        num_samples,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            std::size_t hot = 0;
            for (std::uint32_t idx : table.Sample(s)) {
              if (idx >= rank_of.size()) {
                id_out_of_range = true;
                return;
              }
              hot += rank_of[idx] != kNotHot;
            }
            run_offset[s + 1] = PairsOf(hot);
          }
        },
        num_threads, ReplayGrain(num_samples));
    if (id_out_of_range) {
      return Status::InvalidArgument(
          "trace holds an item id >= num_items (" +
          std::to_string(rank_of.size()) + ")");
    }
    std::partial_sum(run_offset.begin(), run_offset.end(),
                     run_offset.begin());

    keys.resize(run_offset.back());
    ParallelFor(
        num_samples,
        [&](std::size_t begin, std::size_t end) {
          std::vector<std::uint32_t> hot;
          for (std::size_t s = begin; s < end; ++s) {
            HotRanks(table.Sample(s), s, rank_of, hot);
            Key* out = keys.data() + run_offset[s];
            for (std::size_t i = 0; i < hot.size(); ++i) {
              for (std::size_t j = i + 1; j < hot.size(); ++j) {
                const Key lo = std::min(hot[i], hot[j]);
                const Key hi = std::max(hot[i], hot[j]);
                *out++ = static_cast<Key>(lo << kRankBits) | hi;
              }
            }
          }
        },
        num_threads, ReplayGrain(num_samples));
  }

  telemetry::TraceSpan span("grace.sort", "cache");
  {
    std::vector<Key> scratch;
    if constexpr (sizeof(Key) == sizeof(std::uint32_t)) {
      RadixSortU32(std::span<Key>(keys), scratch);
    } else {
      RadixSortU64(std::span<Key>(keys), scratch);
    }
  }
  constexpr Key kRankMask = (Key{1} << kRankBits) - 1;
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i + 1;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    if (j - i >= min_pair_count) {
      edges.push_back({j - i,
                       static_cast<std::uint32_t>(keys[i] >> kRankBits),
                       static_cast<std::uint32_t>(keys[i] & kRankMask)});
    }
    i = j;
  }
  return edges;
}

}  // namespace

Status GraceOptions::Validate() const {
  if (num_hot_items < 2) {
    return Status::InvalidArgument("num_hot_items must be >= 2");
  }
  if (max_list_size < 2 || max_list_size > kMaxCacheListSize) {
    return Status::InvalidArgument("max_list_size must be in [2, " +
                                   std::to_string(kMaxCacheListSize) + "]");
  }
  if (max_lists == 0) {
    return Status::InvalidArgument("max_lists must be >= 1");
  }
  return Status::Ok();
}

GraceMiner::GraceMiner(GraceOptions options) : options_(options) {}

Result<CacheRes> GraceMiner::Mine(const trace::TableTrace& table,
                                  std::uint64_t num_items,
                                  const trace::TableProfile* profile) const {
  UPDLRM_RETURN_IF_ERROR(options_.Validate());
  if (num_items == 0) {
    return Status::InvalidArgument("num_items must be > 0");
  }
  if (profile != nullptr && (profile->freq.size() != num_items ||
                             profile->by_freq.size() != num_items)) {
    return Status::InvalidArgument(
        "profile does not match the table shape");
  }

  trace::TableProfile own_profile;
  if (profile == nullptr) {
    auto profiled = trace::CheckedProfileTable(table, num_items);
    if (!profiled.ok()) return profiled.status();
    own_profile = std::move(profiled).value();
    profile = &own_profile;
  }
  const std::span<const std::uint64_t> freq(profile->freq);

  // Hot set: the most frequent items with nonzero counts, ranked in
  // ascending id order so rank order is id order.
  std::vector<std::uint32_t> hot_ids;
  for (std::uint32_t id : profile->by_freq) {
    if (hot_ids.size() >= options_.num_hot_items || freq[id] == 0) break;
    hot_ids.push_back(id);
  }
  std::sort(hot_ids.begin(), hot_ids.end());
  std::vector<std::uint32_t> rank_of(num_items, kNotHot);
  for (std::uint32_t r = 0; r < hot_ids.size(); ++r) rank_of[hot_ids[r]] = r;

  auto edges_or =
      hot_ids.size() <= kMaxHotForU32Keys
          ? CountEdges<std::uint32_t>(table, rank_of,
                                      options_.min_pair_count,
                                      options_.num_threads)
          : CountEdges<std::uint64_t>(table, rank_of,
                                      options_.min_pair_count,
                                      options_.num_threads);
  if (!edges_or.ok()) return edges_or.status();
  const std::vector<Edge>& edges = *edges_or;

  std::vector<std::vector<std::uint32_t>> groups;
  {
    telemetry::TraceSpan span("grace.group", "cache");
    // Heaviest edges first: a stable sort by descending count keeps the
    // (a, b) order within each count — the (count desc, a asc, b asc)
    // order, exactly.
    std::vector<std::uint32_t> order(edges.size());
    std::iota(order.begin(), order.end(), 0u);
    std::vector<std::uint64_t> count_keys(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e) {
      count_keys[e] = AscendingKeyFromDescendingU64(edges[e].count);
    }
    StableRadixSortIdsByKey(std::span<std::uint32_t>(order),
                            std::span<std::uint64_t>(count_keys));

    // Greedy group growth from heavy edges.
    std::vector<std::int32_t> group_of(hot_ids.size(), -1);
    for (std::uint32_t e : order) {
      const std::uint32_t a = edges[e].a;
      const std::uint32_t b = edges[e].b;
      const std::int32_t ga = group_of[a];
      const std::int32_t gb = group_of[b];
      if (ga == -1 && gb == -1) {
        group_of[a] = static_cast<std::int32_t>(groups.size());
        group_of[b] = static_cast<std::int32_t>(groups.size());
        groups.push_back({a, b});
      } else if (ga >= 0 && gb == -1 &&
                 groups[ga].size() < options_.max_list_size) {
        group_of[b] = ga;
        groups[ga].push_back(b);
      } else if (gb >= 0 && ga == -1 &&
                 groups[gb].size() < options_.max_list_size) {
        group_of[a] = gb;
        groups[gb].push_back(a);
      }
      // Both already grouped: keep groups disjoint (no merges; subset
      // storage is exponential in list size).
    }
  }

  CacheRes res;
  for (auto& group : groups) {
    // Ranks ascend with ids, so sorting ranks sorts the items.
    std::sort(group.begin(), group.end());
    for (std::uint32_t& item : group) item = hot_ids[item];
    res.lists.push_back(CacheList{std::move(group), 0.0});
  }

  {
    telemetry::TraceSpan span("grace.score", "cache");
    res = ScoreCacheLists(table, num_items, res, options_.num_threads);
  }
  if (res.lists.size() > options_.max_lists) {
    res.lists.resize(options_.max_lists);
  }
  UPDLRM_RETURN_IF_ERROR(res.Validate(num_items));
  return res;
}

CacheRes ScoreCacheLists(const trace::TableTrace& table,
                         std::uint64_t num_items, const CacheRes& res,
                         std::uint32_t num_threads) {
  CacheRes scored = res;
  for (auto& list : scored.lists) list.benefit = 0.0;
  if (scored.lists.empty()) return scored;

  const std::vector<std::int32_t> item_to_list =
      scored.BuildItemToList(num_items);

  // Parallel replay: per-shard integer benefit counters merged by
  // addition (order-insensitive), then assigned to the double-valued
  // benefit field once. Benefits stay exact integers well below 2^53,
  // so the result is bit-identical at every thread count.
  std::vector<std::uint64_t> benefit(scored.lists.size(), 0);
  std::mutex merge_mu;
  ParallelFor(
      table.num_samples(),
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint64_t> local(scored.lists.size(), 0);
        std::vector<std::uint32_t> hits(scored.lists.size(), 0);
        std::vector<std::uint32_t> touched;
        for (std::size_t s = begin; s < end; ++s) {
          touched.clear();
          for (std::uint32_t idx : table.Sample(s)) {
            const std::int32_t l = item_to_list[idx];
            if (l < 0) continue;
            if (hits[l]++ == 0) {
              touched.push_back(static_cast<std::uint32_t>(l));
            }
          }
          for (std::uint32_t l : touched) {
            // An intersection of c >= 2 items collapses into one
            // cached read.
            if (hits[l] >= 2) local[l] += hits[l] - 1;
            hits[l] = 0;
          }
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        for (std::size_t l = 0; l < local.size(); ++l) {
          benefit[l] += local[l];
        }
      },
      num_threads, ReplayGrain(table.num_samples()));
  for (std::size_t l = 0; l < benefit.size(); ++l) {
    scored.lists[l].benefit = static_cast<double>(benefit[l]);
  }

  std::stable_sort(scored.lists.begin(), scored.lists.end(),
                   [](const CacheList& a, const CacheList& b) {
                     return a.benefit > b.benefit;
                   });
  while (!scored.lists.empty() && scored.lists.back().benefit <= 0.0) {
    scored.lists.pop_back();
  }
  return scored;
}

}  // namespace updlrm::cache
