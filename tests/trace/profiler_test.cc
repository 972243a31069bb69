#include "trace/profiler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace updlrm::trace {
namespace {

TableTrace MakeTrace() {
  TableTrace t;
  t.AppendSample(std::vector<std::uint32_t>{0, 1, 2});
  t.AppendSample(std::vector<std::uint32_t>{0, 1});
  t.AppendSample(std::vector<std::uint32_t>{0});
  return t;
}

TEST(ProfilerTest, ItemFrequencies) {
  const auto freq = ItemFrequencies(MakeTrace(), 4);
  ASSERT_EQ(freq.size(), 4u);
  EXPECT_EQ(freq[0], 3u);
  EXPECT_EQ(freq[1], 2u);
  EXPECT_EQ(freq[2], 1u);
  EXPECT_EQ(freq[3], 0u);
}

TEST(ProfilerTest, CheckedProfileTableMatchesAndRejectsBadIds) {
  TableTrace table;
  table.AppendSample(std::vector<std::uint32_t>{0, 3});
  table.AppendSample(std::vector<std::uint32_t>{3});
  auto checked = CheckedProfileTable(table, 4);
  ASSERT_TRUE(checked.ok());
  const TableProfile profile = ProfileTable(table, 4);
  EXPECT_EQ(checked->freq, profile.freq);
  EXPECT_EQ(checked->by_freq, profile.by_freq);
  auto freq = CheckedItemFrequencies(table, 4);
  ASSERT_TRUE(freq.ok());
  EXPECT_EQ(*freq, profile.freq);

  table.AppendSample(std::vector<std::uint32_t>{4});
  auto bad = CheckedProfileTable(table, 4);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckedItemFrequencies(table, 4).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProfilerTest, RowBlockCountsEvenSplit) {
  const std::vector<std::uint64_t> freq = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto blocks = RowBlockCounts(freq, 4);
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0], 3u);
  EXPECT_EQ(blocks[1], 7u);
  EXPECT_EQ(blocks[2], 11u);
  EXPECT_EQ(blocks[3], 15u);
}

TEST(ProfilerTest, RowBlockCountsRemainderGoesToLastBlock) {
  const std::vector<std::uint64_t> freq = {1, 1, 1, 1, 1, 1, 1};  // 7 items
  const auto blocks = RowBlockCounts(freq, 3);                    // size 2
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0], 2u);
  EXPECT_EQ(blocks[1], 2u);
  EXPECT_EQ(blocks[2], 3u);  // absorbs the remainder
  EXPECT_EQ(std::accumulate(blocks.begin(), blocks.end(), 0ull), 7ull);
}

TEST(ProfilerTest, AnalyzeSkewBalanced) {
  const std::vector<std::uint64_t> blocks = {10, 10, 10, 10};
  const auto skew = AnalyzeSkew(blocks);
  EXPECT_DOUBLE_EQ(skew.max_min_ratio, 1.0);
  EXPECT_DOUBLE_EQ(skew.imbalance, 1.0);
  EXPECT_DOUBLE_EQ(skew.cv, 0.0);
  EXPECT_DOUBLE_EQ(skew.top_block_share, 0.25);
}

TEST(ProfilerTest, AnalyzeSkewImbalanced) {
  const std::vector<std::uint64_t> blocks = {340, 100, 10, 1};
  const auto skew = AnalyzeSkew(blocks);
  EXPECT_DOUBLE_EQ(skew.max_min_ratio, 340.0);
  EXPECT_GT(skew.gini, 0.4);
  EXPECT_NEAR(skew.top_block_share, 340.0 / 451.0, 1e-12);
}

TEST(ProfilerTest, TopKAccessShare) {
  const std::vector<std::uint64_t> freq = {1, 50, 3, 46};
  EXPECT_DOUBLE_EQ(TopKAccessShare(freq, 1), 0.5);
  EXPECT_DOUBLE_EQ(TopKAccessShare(freq, 2), 0.96);
  EXPECT_DOUBLE_EQ(TopKAccessShare(freq, 4), 1.0);
  EXPECT_DOUBLE_EQ(TopKAccessShare(freq, 10), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(TopKAccessShare(freq, 0), 0.0);
}

TEST(ProfilerTest, ItemsByFrequencyDescendingStable) {
  const std::vector<std::uint64_t> freq = {5, 9, 5, 1};
  const auto order = ItemsByFrequency(freq);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);  // ties keep id order
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[3], 3u);
}

TEST(ProfilerTest, BlockCountsPreserveTotal) {
  const auto trace = MakeTrace();
  const auto freq = ItemFrequencies(trace, 4);
  const auto blocks = RowBlockCounts(freq, 2);
  EXPECT_EQ(std::accumulate(blocks.begin(), blocks.end(), 0ull),
            trace.num_lookups());
}

}  // namespace
}  // namespace updlrm::trace
