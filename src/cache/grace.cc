#include "cache/grace.h"

#include <algorithm>
#include <atomic>
#include <bit>
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

// Counter cells of one pair block: W = max(1, kBlockCells / H) rows of
// the H x H pair triangle, so a dense block's u32 counters fit in 1 MiB.
constexpr std::size_t kBlockCells = std::size_t{1} << 18;

// A block counts densely when it holds at least one pair per this many
// cells; sparser blocks sort their cell ids instead.
constexpr std::uint64_t kDenseCellsPerPair = 32;

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

// Hot set: the `num_hot` most frequent items with nonzero counts, ties
// broken toward lower ids (exactly the prefix of
// trace::ItemsByFrequency), in ascending id order. A frequency
// histogram finds the threshold f*: every item above it is hot, and
// the lowest-id items at f* fill the remaining slots.
std::vector<std::uint32_t> HotIds(std::span<const std::uint64_t> freq,
                                  std::uint64_t max_freq,
                                  std::size_t num_hot) {
  std::vector<std::uint64_t> items_at(max_freq + 1, 0);
  for (std::uint64_t f : freq) ++items_at[f];
  std::uint64_t threshold = 1;
  std::uint64_t quota = max_freq >= 1 ? items_at[1] : 0;
  std::uint64_t above = 0;
  for (std::uint64_t f = max_freq; f >= 1; --f) {
    if (above + items_at[f] >= num_hot) {
      threshold = f;
      quota = num_hot - above;
      break;
    }
    above += items_at[f];
  }
  std::vector<std::uint32_t> hot_ids;
  hot_ids.reserve(std::min<std::uint64_t>(num_hot, freq.size()));
  for (std::size_t id = 0; id < freq.size(); ++id) {
    if (freq[id] > threshold) {
      hot_ids.push_back(static_cast<std::uint32_t>(id));
    } else if (freq[id] == threshold && quota > 0) {
      hot_ids.push_back(static_cast<std::uint32_t>(id));
      --quota;
    }
  }
  return hot_ids;
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

// One co-occurrence edge between hot ranks a < b. A count is at most
// the number of samples holding two hot items, below 2^32 because the
// CSR's positions are.
struct Edge {
  std::uint32_t count, a, b;
};

// The pairs of one CSR position: (ranks[first], ranks[q]) for every q
// in (first, end), the rest of its sample.
struct Run {
  std::uint32_t first, end;
};

// One pair block: rows [first_row, first_row + rows) of the H x H pair
// triangle and the runs whose first rank falls in them.
struct PairBlock {
  std::span<const Run> runs;
  std::size_t first_row, rows;
};

// A pair-counting chunk's scratch, reused across its blocks.
struct BlockScratch {
  std::vector<std::uint32_t> counts;  // dense counters, zero between blocks
  std::vector<Edge> row_edges;        // one dense row's candidates
  std::vector<std::uint32_t> cells, sorted, offset;  // sparse cell sort
};

// Counts a dense block into a rows x H counter array, then scans each
// row from a + 1 in ascending order, resetting what it reads. Runs of 8
// zero counters are skipped; the others emit branch-free.
void CountDenseBlock(const PairBlock& block,
                     std::span<const std::uint32_t> ranks,
                     std::size_t num_hot, std::uint64_t min_count,
                     BlockScratch& scratch, std::vector<Edge>& out) {
  if (scratch.counts.size() < block.rows * num_hot) {
    scratch.counts.resize(block.rows * num_hot, 0);
    scratch.row_edges.resize(num_hot);
  }
  for (const Run& run : block.runs) {
    std::uint32_t* row =
        scratch.counts.data() + (ranks[run.first] - block.first_row) * num_hot;
    for (std::uint32_t q = run.first + 1; q < run.end; ++q) ++row[ranks[q]];
  }
  for (std::size_t r = 0; r < block.rows; ++r) {
    const auto a = static_cast<std::uint32_t>(block.first_row + r);
    std::uint32_t* row = scratch.counts.data() + r * num_hot;
    Edge* next = scratch.row_edges.data();
    const auto emit = [&](std::size_t b) {
      const std::uint32_t count = row[b];
      row[b] = 0;
      *next = Edge{count, a, static_cast<std::uint32_t>(b)};
      next += count >= min_count;
    };
    std::size_t b = a + 1;
    for (; b + 8 <= num_hot; b += 8) {
      std::uint32_t any = 0;
      for (std::size_t k = 0; k < 8; ++k) any |= row[b + k];
      if (any == 0) continue;
      for (std::size_t k = 0; k < 8; ++k) emit(b + k);
    }
    for (; b < num_hot; ++b) emit(b);
    out.insert(out.end(), scratch.row_edges.data(), next);
  }
}

// Sorts a sparse block's cell ids, local_row * H + b, with two stable
// counting passes: the low half of their bits, then the high half.
void SortCells(std::size_t num_cells, BlockScratch& scratch) {
  std::vector<std::uint32_t>& cells = scratch.cells;
  std::vector<std::uint32_t>& sorted = scratch.sorted;
  const unsigned low_bits = (std::bit_width(num_cells - 1) + 1) / 2;
  const std::uint32_t low_mask = (std::uint32_t{1} << low_bits) - 1;
  sorted.resize(cells.size());
  const auto pass = [&](const std::vector<std::uint32_t>& from,
                        std::vector<std::uint32_t>& to, auto digit) {
    std::vector<std::uint32_t>& offset = scratch.offset;
    offset.assign(std::size_t{low_mask} + 2, 0);
    for (std::uint32_t c : from) ++offset[digit(c) + 1];
    std::partial_sum(offset.begin(), offset.end(), offset.begin());
    for (std::uint32_t c : from) to[offset[digit(c)]++] = c;
  };
  pass(cells, sorted, [&](std::uint32_t c) { return c & low_mask; });
  pass(sorted, cells, [&](std::uint32_t c) { return c >> low_bits; });
}

// Counts a sparse block by sorting its cell ids and run-length counting
// equal ones, in ascending (a, b) order.
void CountSparseBlock(const PairBlock& block,
                      std::span<const std::uint32_t> ranks,
                      std::size_t num_hot, std::uint64_t min_count,
                      BlockScratch& scratch, std::vector<Edge>& out) {
  std::vector<std::uint32_t>& cells = scratch.cells;
  cells.clear();
  for (const Run& run : block.runs) {
    const std::size_t row = (ranks[run.first] - block.first_row) * num_hot;
    for (std::uint32_t q = run.first + 1; q < run.end; ++q) {
      cells.push_back(static_cast<std::uint32_t>(row + ranks[q]));
    }
  }
  SortCells(block.rows * num_hot, scratch);
  for (std::size_t i = 0; i < cells.size();) {
    std::size_t j = i + 1;
    while (j < cells.size() && cells[j] == cells[i]) ++j;
    if (j - i >= min_count) {
      out.push_back(
          {static_cast<std::uint32_t>(j - i),
           static_cast<std::uint32_t>(block.first_row + cells[i] / num_hot),
           static_cast<std::uint32_t>(cells[i] % num_hot)});
    }
    i = j;
  }
}

// Counts every hot pair of every sample exactly. A rank pass sizes each
// sample's capped hot run, and a fill pass writes its ranks, sorted, at
// a fixed CSR offset (so the CSR's bytes do not depend on the thread
// count). Each CSR position with a pair to its right is bucketed by the
// block of its rank, W = max(1, kBlockCells / H) rows of the pair
// triangle. Blocks are counted in parallel: a dense block increments a
// W x H counter array and scans its rows in ascending order, a sparse
// one sorts its block-local cell ids and run-length counts them. Either
// way a block's edges come out in ascending (a, b) order, so the edges
// concatenated in block order are ascending too. Returns the edges with
// count >= max(1, min_pair_count), or InvalidArgument when the trace
// holds an id >= rank_of.size(), the item count (the rank pass checks
// every id before anything indexes by it).
Result<std::vector<Edge>> CountEdges(const trace::TableTrace& table,
                                     std::span<const std::uint32_t> rank_of,
                                     std::size_t num_hot,
                                     std::uint64_t min_pair_count,
                                     std::uint32_t num_threads) {
  const std::size_t num_samples = table.num_samples();
  std::vector<std::uint64_t> run_offset(num_samples + 1, 0);
  std::vector<std::uint32_t> ranks;
  {
    telemetry::TraceSpan span("grace.count", "cache");
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
            run_offset[s + 1] = std::min(hot, kMaxHotPerSample);
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
    if (run_offset.back() > std::numeric_limits<std::uint32_t>::max()) {
      return Status::InvalidArgument("trace holds more than 2^32 hot "
                                     "accesses after the per-sample cap");
    }

    ranks.resize(run_offset.back());
    ParallelFor(
        num_samples,
        [&](std::size_t begin, std::size_t end) {
          std::vector<std::uint32_t> hot;
          for (std::size_t s = begin; s < end; ++s) {
            HotRanks(table.Sample(s), s, rank_of, hot);
            std::sort(hot.begin(), hot.end());
            std::copy(hot.begin(), hot.end(), ranks.begin() + run_offset[s]);
          }
        },
        num_threads, ReplayGrain(num_samples));
  }

  telemetry::TraceSpan span("grace.pairs", "cache");
  const std::size_t rows_per_block =
      std::max<std::size_t>(1, kBlockCells / std::max<std::size_t>(num_hot, 1));
  const std::size_t num_blocks =
      (num_hot + rows_per_block - 1) / rows_per_block;

  // Bucket the runs by block (a counting sort), tallying block pairs.
  std::vector<std::uint64_t> block_pairs(num_blocks, 0);
  std::vector<std::uint32_t> block_first(num_blocks + 1, 0);
  for (std::size_t s = 0; s < num_samples; ++s) {
    for (std::uint64_t p = run_offset[s]; p + 1 < run_offset[s + 1]; ++p) {
      const std::size_t block = ranks[p] / rows_per_block;
      ++block_first[block + 1];
      block_pairs[block] += run_offset[s + 1] - p - 1;
    }
  }
  std::partial_sum(block_first.begin(), block_first.end(),
                   block_first.begin());
  std::vector<Run> runs(block_first.back());
  {
    std::vector<std::uint32_t> fill(block_first.begin(),
                                    block_first.end() - 1);
    for (std::size_t s = 0; s < num_samples; ++s) {
      const auto end = static_cast<std::uint32_t>(run_offset[s + 1]);
      for (auto p = static_cast<std::uint32_t>(run_offset[s]); p + 1 < end;
           ++p) {
        runs[fill[ranks[p] / rows_per_block]++] = Run{p, end};
      }
    }
  }

  // Blocks are cut into a few chunks of about equal pair count, each
  // with one counter array and one edge vector for all its blocks.
  const std::size_t workers =
      num_threads != 0 ? num_threads : ThreadPool::Default().size();
  const std::size_t num_chunks = std::min(num_blocks, 4 * workers);
  std::vector<std::uint64_t> pairs_before(num_blocks + 1, 0);
  std::partial_sum(block_pairs.begin(), block_pairs.end(),
                   pairs_before.begin() + 1);
  std::vector<std::size_t> chunk_first(num_chunks + 1, num_blocks);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::uint64_t target = pairs_before.back() * c / num_chunks;
    chunk_first[c] = static_cast<std::size_t>(
        std::lower_bound(pairs_before.begin(), pairs_before.end() - 1,
                         target) -
        pairs_before.begin());
  }

  const std::uint64_t min_count = std::max<std::uint64_t>(1, min_pair_count);
  std::vector<std::vector<Edge>> chunk_edges(num_chunks);
  ParallelFor(
      num_chunks,
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        BlockScratch scratch;
        for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
          for (std::size_t b = chunk_first[c]; b < chunk_first[c + 1]; ++b) {
            const std::size_t first_row = b * rows_per_block;
            const PairBlock block{
                std::span<const Run>(runs.data() + block_first[b],
                                     block_first[b + 1] - block_first[b]),
                first_row, std::min(rows_per_block, num_hot - first_row)};
            if (block_pairs[b] * kDenseCellsPerPair >= block.rows * num_hot) {
              CountDenseBlock(block, ranks, num_hot, min_count, scratch,
                              chunk_edges[c]);
            } else {
              CountSparseBlock(block, ranks, num_hot, min_count, scratch,
                               chunk_edges[c]);
            }
          }
        }
      },
      num_threads);

  std::size_t num_edges = 0;
  for (const auto& part : chunk_edges) num_edges += part.size();
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (auto& part : chunk_edges) {
    edges.insert(edges.end(), part.begin(), part.end());
    std::vector<Edge>().swap(part);
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
  if (profile != nullptr && profile->freq.size() != num_items) {
    return Status::InvalidArgument(
        "profile does not match the table shape");
  }

  std::vector<std::uint64_t> own_freq;
  if (profile == nullptr) {
    auto counted = trace::CheckedItemFrequencies(table, num_items);
    if (!counted.ok()) return counted.status();
    own_freq = std::move(counted).value();
  }
  const std::span<const std::uint64_t> freq =
      profile != nullptr ? std::span<const std::uint64_t>(profile->freq)
                         : std::span<const std::uint64_t>(own_freq);
  // A sample holds an id at most once, so no count of this trace
  // exceeds its sample count (which also bounds HotIds' histogram).
  const std::uint64_t max_freq =
      freq.empty() ? 0 : *std::max_element(freq.begin(), freq.end());
  if (max_freq > table.num_samples()) {
    return Status::InvalidArgument(
        "profile does not match the table shape");
  }

  // Ranked in ascending id order, so rank order is id order.
  const std::vector<std::uint32_t> hot_ids =
      HotIds(freq, max_freq, options_.num_hot_items);
  std::vector<std::uint32_t> rank_of(num_items, kNotHot);
  for (std::uint32_t r = 0; r < hot_ids.size(); ++r) rank_of[hot_ids[r]] = r;

  auto edges_or = CountEdges(table, rank_of, hot_ids.size(),
                             options_.min_pair_count, options_.num_threads);
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
