#include "cache/freq_pairs.h"

#include <gtest/gtest.h>

#include "cache/grace.h"
#include "trace/generator.h"

namespace updlrm::cache {
namespace {

trace::TableTrace CliqueTrace() {
  trace::DatasetSpec spec;
  spec.name = "fp";
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
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  return std::move(t->tables[0]);
}

TEST(FreqPairsTest, OptionsValidation) {
  FreqPairOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.num_hot_items = 1;
  EXPECT_FALSE(options.Validate().ok());
  options = FreqPairOptions{};
  options.list_size = 1;
  EXPECT_FALSE(options.Validate().ok());
  options = FreqPairOptions{};
  options.list_size = kMaxCacheListSize + 1;
  EXPECT_FALSE(options.Validate().ok());
  options = FreqPairOptions{};
  options.max_lists = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(FreqPairsTest, ProducesValidBenefitSortedLists) {
  const auto table = CliqueTrace();
  auto res = FreqPairMiner().Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->lists.empty());
  EXPECT_TRUE(res->Validate(5'000).ok());
  for (const auto& list : res->lists) {
    EXPECT_EQ(list.items.size(), 2u);
    EXPECT_GT(list.benefit, 0.0);
  }
}

TEST(FreqPairsTest, ConfigurableListSize) {
  FreqPairOptions options;
  options.list_size = 3;
  const auto table = CliqueTrace();
  auto res = FreqPairMiner(options).Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  for (const auto& list : res->lists) {
    EXPECT_EQ(list.items.size(), 3u);
  }
}

TEST(FreqPairsTest, GraceBeatsFrequencyPairingOnCliqueTraces) {
  // The ablation's point: co-occurrence-aware mining captures the
  // planted cliques; popularity-rank pairing only stumbles into them.
  const auto table = CliqueTrace();
  auto grace = GraceMiner().Mine(table, 5'000);
  auto pairs = FreqPairMiner().Mine(table, 5'000);
  ASSERT_TRUE(grace.ok() && pairs.ok());
  EXPECT_GT(grace->TotalBenefit(), 1.5 * pairs->TotalBenefit());
}

TEST(FreqPairsTest, RejectsZeroItems) {
  trace::TableTrace table;
  table.AppendSample(std::vector<std::uint32_t>{});
  EXPECT_FALSE(FreqPairMiner().Mine(table, 0).ok());
}

TEST(FreqPairsTest, RejectsOutOfRangeIds) {
  trace::TableTrace table;
  table.AppendSample(std::vector<std::uint32_t>{1, 2});
  table.AppendSample(std::vector<std::uint32_t>{2, 7});
  auto res = FreqPairMiner().Mine(table, 5);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace updlrm::cache
