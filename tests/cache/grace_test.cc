#include "cache/grace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/rng.h"
#include "telemetry/tracer.h"
#include "trace/generator.h"
#include "trace/profiler.h"

namespace updlrm::cache {
namespace {

// ---------------------------------------------------------------------
// Reference miner: the open-addressed hash-map pair counter and
// comparator sort GraceMiner used before its counting became
// sort-based. Serial and slow, kept only as the oracle the sort-based
// miner must match byte for byte.
// ---------------------------------------------------------------------

constexpr std::size_t kRefMaxHotPerSample = 96;

std::uint64_t RefPairKey(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

std::uint64_t RefSubsampleSeed(std::size_t sample) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ sample;
  return SplitMix64(state);
}

// Pair-key -> count map (linear probing, power-of-2 capacity, keys
// stored +1 so 0 marks an empty slot).
class RefPairCounts {
 public:
  RefPairCounts() { slots_.resize(kInitialSlots); }

  void Add(std::uint64_t key) {
    if ((size_ + 1) * 10 >= slots_.size() * 7) Grow();
    Slot& slot = FindSlot(slots_, key);
    if (slot.key_plus_1 == 0) {
      slot.key_plus_1 = key + 1;
      ++size_;
    }
    ++slot.count;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key_plus_1 != 0) fn(slot.key_plus_1 - 1, slot.count);
    }
  }

 private:
  static constexpr std::size_t kInitialSlots = 1 << 14;

  struct Slot {
    std::uint64_t key_plus_1 = 0;  // 0 = empty
    std::uint64_t count = 0;
  };

  static Slot& FindSlot(std::vector<Slot>& slots, std::uint64_t key) {
    const std::size_t mask = slots.size() - 1;
    std::uint64_t h = key;
    std::size_t i = SplitMix64(h) & mask;
    while (slots[i].key_plus_1 != 0 && slots[i].key_plus_1 != key + 1) {
      i = (i + 1) & mask;
    }
    return slots[i];
  }

  void Grow() {
    std::vector<Slot> bigger(slots_.size() * 2);
    for (const Slot& slot : slots_) {
      if (slot.key_plus_1 == 0) continue;
      FindSlot(bigger, slot.key_plus_1 - 1) = slot;
    }
    slots_ = std::move(bigger);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

CacheRes ReferenceMine(const trace::TableTrace& table,
                       std::uint64_t num_items,
                       const GraceOptions& options) {
  const trace::TableProfile profile = trace::ProfileTable(table, num_items);
  std::vector<bool> is_hot(num_items, false);
  std::size_t hot_count = 0;
  for (std::uint32_t id : profile.by_freq) {
    if (hot_count >= options.num_hot_items || profile.freq[id] == 0) break;
    is_hot[id] = true;
    ++hot_count;
  }

  RefPairCounts pair_counts;
  std::vector<std::uint32_t> hot_in_sample;
  for (std::size_t s = 0; s < table.num_samples(); ++s) {
    hot_in_sample.clear();
    for (std::uint32_t idx : table.Sample(s)) {
      if (is_hot[idx]) hot_in_sample.push_back(idx);
    }
    if (hot_in_sample.size() > kRefMaxHotPerSample) {
      Rng subsample_rng(RefSubsampleSeed(s));
      subsample_rng.Shuffle(hot_in_sample);
      hot_in_sample.resize(kRefMaxHotPerSample);
    }
    for (std::size_t i = 0; i < hot_in_sample.size(); ++i) {
      for (std::size_t j = i + 1; j < hot_in_sample.size(); ++j) {
        pair_counts.Add(RefPairKey(hot_in_sample[i], hot_in_sample[j]));
      }
    }
  }

  struct Edge {
    std::uint64_t count;
    std::uint32_t a, b;
  };
  std::vector<Edge> edges;
  pair_counts.ForEach([&](std::uint64_t key, std::uint64_t count) {
    if (count < options.min_pair_count) return;
    edges.push_back({count, static_cast<std::uint32_t>(key >> 32),
                     static_cast<std::uint32_t>(key & 0xffffffffU)});
  });
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.count != y.count) return x.count > y.count;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });

  std::unordered_map<std::uint32_t, std::int32_t> group_of;
  std::vector<std::vector<std::uint32_t>> groups;
  for (const Edge& e : edges) {
    const auto ita = group_of.find(e.a);
    const auto itb = group_of.find(e.b);
    const std::int32_t ga = ita == group_of.end() ? -1 : ita->second;
    const std::int32_t gb = itb == group_of.end() ? -1 : itb->second;
    if (ga == -1 && gb == -1) {
      group_of[e.a] = static_cast<std::int32_t>(groups.size());
      group_of[e.b] = static_cast<std::int32_t>(groups.size());
      groups.push_back({e.a, e.b});
    } else if (ga >= 0 && gb == -1 &&
               groups[ga].size() < options.max_list_size) {
      group_of[e.b] = ga;
      groups[ga].push_back(e.b);
    } else if (gb >= 0 && ga == -1 &&
               groups[gb].size() < options.max_list_size) {
      group_of[e.a] = gb;
      groups[gb].push_back(e.a);
    }
  }

  CacheRes res;
  for (auto& group : groups) {
    std::sort(group.begin(), group.end());
    res.lists.push_back(CacheList{std::move(group), 0.0});
  }
  res = ScoreCacheLists(table, num_items, res, 1);
  if (res.lists.size() > options.max_lists) {
    res.lists.resize(options.max_lists);
  }
  return res;
}

// Identical members, list order and benefits (bit-compared).
void ExpectSameCacheRes(const CacheRes& expected, const CacheRes& actual) {
  ASSERT_EQ(expected.lists.size(), actual.lists.size());
  for (std::size_t l = 0; l < expected.lists.size(); ++l) {
    EXPECT_EQ(expected.lists[l].items, actual.lists[l].items) << "list " << l;
    EXPECT_EQ(std::memcmp(&expected.lists[l].benefit,
                          &actual.lists[l].benefit, sizeof(double)),
              0)
        << "list " << l;
  }
}

// Seeded random table: each sample holds up to `max_len` distinct ids
// (sorted, as TableTrace requires) drawn Zipf(alpha) over `num_items`,
// so hot items repeat across samples and form real edges.
trace::TableTrace RandomTable(std::uint64_t seed, std::size_t samples,
                              std::size_t max_len, std::uint64_t num_items,
                              double alpha) {
  Rng rng(seed);
  const ZipfSampler zipf(num_items, alpha);
  trace::TableTrace table;
  std::vector<std::uint32_t> sample;
  std::vector<bool> in_sample(num_items, false);
  for (std::size_t s = 0; s < samples; ++s) {
    sample.clear();
    const std::size_t len = rng.NextBounded(max_len + 1);
    for (std::size_t k = 0; k < len; ++k) {
      const auto id = static_cast<std::uint32_t>(zipf.Sample(rng));
      if (in_sample[id]) continue;
      in_sample[id] = true;
      sample.push_back(id);
    }
    for (std::uint32_t id : sample) in_sample[id] = false;
    std::sort(sample.begin(), sample.end());
    table.AppendSample(sample);
  }
  return table;
}

// Mines `table` at 1, 2 and 4 threads and checks each result against
// the reference miner. Returns the number of reference lists, so a case
// can assert it compared something.
std::size_t ExpectMatchesReference(const trace::TableTrace& table,
                                   std::uint64_t num_items,
                                   GraceOptions options) {
  const CacheRes expected = ReferenceMine(table, num_items, options);
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    options.num_threads = threads;
    auto mined = GraceMiner(options).Mine(table, num_items);
    EXPECT_TRUE(mined.ok()) << mined.status().ToString();
    if (mined.ok()) ExpectSameCacheRes(expected, *mined);
  }
  return expected.lists.size();
}

trace::TableTrace TraceWithPlantedCliques(trace::DatasetSpec* out_spec,
                                          trace::CliqueModel* out_model) {
  trace::DatasetSpec spec;
  spec.name = "mine";
  spec.num_items = 5'000;
  spec.avg_reduction = 24.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.7;
  spec.num_hot_items = 128;
  spec.seed = 17;
  trace::TraceGeneratorOptions options;
  options.num_samples = 800;
  options.num_tables = 1;
  trace::TraceGenerator gen(spec);
  auto t = gen.Generate(options);
  UPDLRM_CHECK(t.ok());
  if (out_spec != nullptr) *out_spec = spec;
  if (out_model != nullptr) *out_model = gen.BuildCliqueModel(0, options);
  return std::move(t->tables[0]);
}

TEST(GraceTest, OptionsValidation) {
  GraceOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.num_hot_items = 1;
  EXPECT_FALSE(options.Validate().ok());
  options = GraceOptions{};
  options.max_list_size = 1;
  EXPECT_FALSE(options.Validate().ok());
  options = GraceOptions{};
  options.max_list_size = kMaxCacheListSize + 1;
  EXPECT_FALSE(options.Validate().ok());
  options = GraceOptions{};
  options.max_lists = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(GraceTest, MinedListsAreValid) {
  const auto table = TraceWithPlantedCliques(nullptr, nullptr);
  GraceMiner miner;
  auto res = miner.Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->lists.empty());
  EXPECT_TRUE(res->Validate(5'000).ok());
}

TEST(GraceTest, BenefitsAreSortedAndPositive) {
  const auto table = TraceWithPlantedCliques(nullptr, nullptr);
  auto res = GraceMiner().Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  double prev = 1e18;
  for (const auto& list : res->lists) {
    EXPECT_GT(list.benefit, 0.0);
    EXPECT_LE(list.benefit, prev);
    prev = list.benefit;
  }
}

TEST(GraceTest, RecoversPlantedCoOccurrence) {
  // The miner should group items from the same planted clique: check
  // that a large share of mined pairs are clique-mates.
  trace::CliqueModel model;
  const auto table = TraceWithPlantedCliques(nullptr, &model);
  auto res = GraceMiner().Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  ASSERT_FALSE(res->lists.empty());

  // item -> planted clique id
  std::vector<std::int32_t> planted(5'000, -1);
  for (std::size_t c = 0; c < model.cliques.size(); ++c) {
    for (std::uint32_t item : model.cliques[c]) {
      planted[item] = static_cast<std::int32_t>(c);
    }
  }
  std::size_t matched_pairs = 0;
  std::size_t total_pairs = 0;
  for (const auto& list : res->lists) {
    for (std::size_t i = 0; i < list.items.size(); ++i) {
      for (std::size_t j = i + 1; j < list.items.size(); ++j) {
        ++total_pairs;
        if (planted[list.items[i]] >= 0 &&
            planted[list.items[i]] == planted[list.items[j]]) {
          ++matched_pairs;
        }
      }
    }
  }
  ASSERT_GT(total_pairs, 0u);
  EXPECT_GT(static_cast<double>(matched_pairs) /
                static_cast<double>(total_pairs),
            0.6);
}

TEST(GraceTest, BenefitMatchesReplayDefinition) {
  // Construct a tiny trace by hand: items {1,2} co-occur twice, once
  // with only item 1 present.
  trace::TableTrace table;
  table.AppendSample(std::vector<std::uint32_t>{1, 2});
  table.AppendSample(std::vector<std::uint32_t>{1, 2, 3});
  table.AppendSample(std::vector<std::uint32_t>{1});
  CacheRes res;
  res.lists.push_back(CacheList{{1, 2}, 0.0});
  const CacheRes scored = ScoreCacheLists(table, 5, res);
  ASSERT_EQ(scored.lists.size(), 1u);
  // Two samples intersect with both items: each saves 1 access.
  EXPECT_DOUBLE_EQ(scored.lists[0].benefit, 2.0);
}

TEST(GraceTest, ScoreDropsZeroBenefitLists) {
  trace::TableTrace table;
  table.AppendSample(std::vector<std::uint32_t>{1});
  table.AppendSample(std::vector<std::uint32_t>{2});
  CacheRes res;
  res.lists.push_back(CacheList{{1, 2}, 99.0});  // never co-occur
  const CacheRes scored = ScoreCacheLists(table, 5, res);
  EXPECT_TRUE(scored.lists.empty());
}

TEST(GraceTest, RespectsMaxListSize) {
  GraceOptions options;
  options.max_list_size = 2;
  const auto table = TraceWithPlantedCliques(nullptr, nullptr);
  auto res = GraceMiner(options).Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  for (const auto& list : res->lists) {
    EXPECT_LE(list.items.size(), 2u);
  }
}

TEST(GraceTest, RespectsMaxLists) {
  GraceOptions options;
  options.max_lists = 3;
  const auto table = TraceWithPlantedCliques(nullptr, nullptr);
  auto res = GraceMiner(options).Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  EXPECT_LE(res->lists.size(), 3u);
}

TEST(GraceTest, BalancedTraceYieldsFewOrNoLists) {
  // With uniform popularity and no planted structure, co-occurrence
  // support stays below the threshold ("clo is quite balanced, and the
  // cache rate is low").
  const trace::DatasetSpec spec =
      trace::MakeBalancedSyntheticSpec(20'000, 20.0);
  trace::TraceGeneratorOptions options;
  options.num_samples = 500;
  options.num_tables = 1;
  auto t = trace::TraceGenerator(spec).Generate(options);
  ASSERT_TRUE(t.ok());
  auto res = GraceMiner().Mine(t->tables[0], 20'000);
  ASSERT_TRUE(res.ok());
  EXPECT_LT(res->lists.size(), 20u);
}

TEST(GraceTest, RejectsZeroItems) {
  trace::TableTrace table;
  table.AppendSample(std::vector<std::uint32_t>{});
  EXPECT_FALSE(GraceMiner().Mine(table, 0).ok());
}

TEST(GraceTest, RejectsOutOfRangeIds) {
  trace::TableTrace table;
  table.AppendSample(std::vector<std::uint32_t>{1, 2, 3});
  table.AppendSample(std::vector<std::uint32_t>{1, 2, 10});
  // Profiled inside the miner.
  auto own = GraceMiner().Mine(table, 10);
  ASSERT_FALSE(own.ok());
  EXPECT_EQ(own.status().code(), StatusCode::kInvalidArgument);
  // With a caller-supplied profile (here of the well-formed first
  // sample), the rank pass catches the bad id.
  trace::TableTrace good;
  good.AppendSample(std::vector<std::uint32_t>{1, 2, 3});
  const trace::TableProfile profile = trace::ProfileTable(good, 10);
  auto supplied = GraceMiner().Mine(table, 10, &profile);
  ASSERT_FALSE(supplied.ok());
  EXPECT_EQ(supplied.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraceOracleTest, MatchesReferenceOnRandomTraces) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto table = RandomTable(seed, 700, 40, 3'000, 1.1);
    GraceOptions options;
    options.num_hot_items = 400;
    options.min_pair_count = 3;
    EXPECT_GT(ExpectMatchesReference(table, 3'000, options), 0u);
  }
}

TEST(GraceOracleTest, MatchesReferenceOnPlantedCliques) {
  const auto table = TraceWithPlantedCliques(nullptr, nullptr);
  EXPECT_GT(ExpectMatchesReference(table, 5'000, GraceOptions{}), 0u);
}

TEST(GraceOracleTest, MatchesReferenceWhenSamplesExceedTheHotCap) {
  // 150-250 distinct ids per sample, nearly all hot: almost every
  // sample takes the seeded subsampling path.
  const auto table = RandomTable(4, 300, 400, 1'000, 0.6);
  std::size_t over_cap = 0;
  for (std::size_t s = 0; s < table.num_samples(); ++s) {
    over_cap += table.Sample(s).size() > 96;
  }
  ASSERT_GT(over_cap, table.num_samples() / 2);
  GraceOptions options;
  options.min_pair_count = 2;
  EXPECT_GT(ExpectMatchesReference(table, 1'000, options), 0u);
}

TEST(GraceOracleTest, MatchesReferenceWithU64Keys) {
  // A hot set above 65,536 items, whose ranks do not fit 16 bits: pair
  // blocks are 3 rows wide and nearly all sparse. Every sample
  // sweeps 28 fresh ids across the 70,000-item range (so all of them
  // are hot) plus 6 ids from a small high-id pool whose ranks fill the
  // last blocks, so those pairs repeat into edges.
  constexpr std::uint64_t kItems = 70'000;
  Rng rng(5);
  trace::TableTrace table;
  std::vector<std::uint32_t> sample;
  std::uint32_t next = 0;
  for (std::size_t s = 0; s < 2'500; ++s) {
    sample.clear();
    for (int k = 0; k < 28; ++k) {
      sample.push_back(next);
      next = (next + 1) % (kItems - 200);
    }
    while (sample.size() < 34) {
      const auto id = static_cast<std::uint32_t>(kItems - 1 -
                                                 rng.NextBounded(200));
      if (std::find(sample.begin(), sample.end(), id) == sample.end()) {
        sample.push_back(id);
      }
    }
    std::sort(sample.begin(), sample.end());
    table.AppendSample(sample);
  }
  GraceOptions options;
  options.num_hot_items = kItems;
  const trace::TableProfile profile = trace::ProfileTable(table, kItems);
  std::size_t nonzero = 0;
  for (std::uint64_t f : profile.freq) nonzero += f > 0;
  ASSERT_GT(nonzero, std::size_t{1} << 16);
  EXPECT_GT(ExpectMatchesReference(table, kItems, options), 0u);
}

// Pair blocks are W = max(1, 2^18 / H) rows of the H x H pair
// triangle; a block counts densely when it holds a pair per 32 cells.
// Each sample here holds `low` distinct ids from [0, low_range) and
// `high` ids swept in order through [low_range, num_items). Pairs start
// at the lower rank, so the blocks over the low ids are dense and, when
// the sweep is sparse, the ones above them sort.
trace::TableTrace LowHighTable(std::uint64_t seed, std::size_t samples,
                               std::size_t low, std::uint32_t low_range,
                               std::size_t high, std::uint32_t num_items) {
  Rng rng(seed);
  trace::TableTrace table;
  std::vector<std::uint32_t> sample;
  std::uint32_t next = low_range;
  for (std::size_t s = 0; s < samples; ++s) {
    sample.clear();
    while (sample.size() < low) {
      const auto id = static_cast<std::uint32_t>(rng.NextBounded(low_range));
      if (std::find(sample.begin(), sample.end(), id) == sample.end()) {
        sample.push_back(id);
      }
    }
    for (std::size_t k = 0; k < high; ++k) {
      sample.push_back(next);
      next = next + 1 < num_items ? next + 1 : low_range;
    }
    std::sort(sample.begin(), sample.end());
    table.AppendSample(sample);
  }
  return table;
}

TEST(GraceOracleTest, MatchesReferenceOnDenseBlocks) {
  // read-ca-shard4's shape in miniature: a 2,048-item hot set (16 blocks
  // of 128 rows) cut from 2,100 items, and samples of about 118 hot
  // items, all over the 96 cap, so every block holds far more than one
  // pair per 32 cells.
  const auto table = LowHighTable(8, 400, 100, 1'800, 20, 2'100);
  GraceOptions options;
  options.num_hot_items = 2'048;
  options.min_pair_count = 6;
  EXPECT_GT(ExpectMatchesReference(table, 2'100, options), 0u);
}

TEST(GraceOracleTest, MatchesReferenceOnMixedDenseAndSparseBlocks) {
  // 4,096 hot items (64 blocks of 64 rows) cut from 4,608: 60 ids per
  // sample from the lowest 512 make their 8 blocks dense; 8 swept ids
  // per sample leave the other 56 blocks sparse. The sweep's period of
  // 512 samples repeats the same groups of 8, so their pairs become
  // sparse-block edges.
  const auto table = LowHighTable(9, 3'000, 60, 512, 8, 4'608);
  GraceOptions options;
  options.num_hot_items = 4'096;
  options.min_pair_count = 2;
  EXPECT_GT(ExpectMatchesReference(table, 4'608, options), 0u);
}

TEST(GraceOracleTest, MinPairCountZeroEmitsOnlyOccurringPairs) {
  // Dense blocks hold many counters that stay zero; a zero count must
  // never become an edge (the reference counts only pairs that occur).
  const auto table = LowHighTable(10, 300, 40, 600, 6, 3'000);
  GraceOptions options;
  options.num_hot_items = 3'000;
  options.min_pair_count = 0;
  EXPECT_GT(ExpectMatchesReference(table, 3'000, options), 0u);
}

TEST(GraceOracleTest, HotSetTiesAtTheCutMatchWithAndWithoutProfile) {
  // Ten hubs in every sample; 50 mid items (ids 10..59) each in every
  // other sample by parity; 40 tail items each in every fourth sample.
  // A 30-item hot set takes the hubs and 20 of the 50 tied mid items:
  // the lowest ids, as in trace::ItemsByFrequency.
  trace::TableTrace table;
  std::vector<std::uint32_t> sample;
  for (std::uint32_t s = 0; s < 200; ++s) {
    sample.clear();
    for (std::uint32_t id = 0; id < 100; ++id) {
      const bool in = id < 10 || (id < 60 && (s + id) % 2 == 0) ||
                      (id >= 60 && (s + id) % 4 == 0);
      if (in) sample.push_back(id);
    }
    table.AppendSample(sample);
  }
  const trace::TableProfile profile = trace::ProfileTable(table, 100);
  GraceOptions options;
  options.num_hot_items = 30;
  options.min_pair_count = 2;
  ASSERT_EQ(profile.freq[profile.by_freq[29]],
            profile.freq[profile.by_freq[30]]);
  EXPECT_GT(ExpectMatchesReference(table, 100, options), 0u);
  auto own = GraceMiner(options).Mine(table, 100);
  auto supplied = GraceMiner(options).Mine(table, 100, &profile);
  ASSERT_TRUE(own.ok());
  ASSERT_TRUE(supplied.ok());
  ExpectSameCacheRes(*own, *supplied);
}

TEST(GraceTest, RejectsAProfileThatCannotDescribeTheTrace) {
  trace::TableTrace table;
  table.AppendSample(std::vector<std::uint32_t>{1, 2});
  trace::TableProfile profile = trace::ProfileTable(table, 4);
  profile.freq[3] = 2;  // more than the trace's one sample
  auto mined = GraceMiner().Mine(table, 4, &profile);
  ASSERT_FALSE(mined.ok());
  EXPECT_EQ(mined.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraceOracleTest, MatchesReferenceAtEdgeThresholds) {
  const auto table = RandomTable(6, 500, 30, 2'000, 1.0);
  GraceOptions options;
  options.num_hot_items = 300;
  options.min_pair_count = 1;  // every co-occurring pair is an edge
  EXPECT_GT(ExpectMatchesReference(table, 2'000, options), 0u);

  options.min_pair_count = 1'000'000;  // above every count: no edges
  ExpectMatchesReference(table, 2'000, options);
  auto none = GraceMiner(options).Mine(table, 2'000);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->lists.empty());
}

TEST(GraceOracleTest, MatchesReferenceOnEmptyTraces) {
  const trace::TableTrace no_samples;
  ExpectMatchesReference(no_samples, 100, GraceOptions{});
  trace::TableTrace empty_samples;
  for (int s = 0; s < 10; ++s) {
    empty_samples.AppendSample(std::vector<std::uint32_t>{});
  }
  ExpectMatchesReference(empty_samples, 100, GraceOptions{});
  auto res = GraceMiner().Mine(empty_samples, 100);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->lists.empty());
}

TEST(GraceTest, TracingIsBitNeutralAndEmitsPhaseSpans) {
  const auto table = TraceWithPlantedCliques(nullptr, nullptr);
  auto untraced = GraceMiner().Mine(table, 5'000);
  ASSERT_TRUE(untraced.ok());

  telemetry::Tracer::Get().Enable();
  auto traced = GraceMiner().Mine(table, 5'000);
  telemetry::Tracer::Get().Disable();
  ASSERT_TRUE(traced.ok());
  ExpectSameCacheRes(*untraced, *traced);

  const std::vector<telemetry::TraceEvent> events =
      telemetry::Tracer::Get().Snapshot();
  for (const char* span :
       {"grace.count", "grace.pairs", "grace.group", "grace.score"}) {
    EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                            [&](const telemetry::TraceEvent& e) {
                              return e.name != nullptr &&
                                     std::strcmp(e.name, span) == 0;
                            }))
        << span;
  }
}

}  // namespace
}  // namespace updlrm::cache
