#include "partition/allocation.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace updlrm::partition {
namespace {

std::vector<dlrm::TableShape> Shapes(
    std::initializer_list<std::uint64_t> rows) {
  std::vector<dlrm::TableShape> shapes;
  for (std::uint64_t r : rows) shapes.push_back({r, 32});
  return shapes;
}

std::uint32_t Sum(const std::vector<std::uint32_t>& v) {
  return std::accumulate(v.begin(), v.end(), 0u);
}

TEST(AllocationTest, EqualPolicySplitsEvenly) {
  const auto shapes = Shapes({1000, 1000, 1000, 1000});
  auto alloc = AllocateDpus(shapes, 32, 4, DpuAllocationPolicy::kEqual);
  ASSERT_TRUE(alloc.ok());
  for (std::uint32_t a : *alloc) EXPECT_EQ(a, 8u);
}

TEST(AllocationTest, ProportionalTrafficUsesWeights) {
  const auto shapes = Shapes({1000, 1000});
  const std::vector<double> weights = {3.0, 1.0};
  auto alloc = AllocateDpus(shapes, 32, 4,
                            DpuAllocationPolicy::kProportionalTraffic,
                            weights);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ((*alloc)[0], 24u);
  EXPECT_EQ((*alloc)[1], 8u);
}

TEST(AllocationTest, EveryTableGetsAtLeastOneRowShard) {
  const auto shapes = Shapes({1'000'000, 10, 10, 10});
  const std::vector<double> weights = {1'000'000.0, 10.0, 10.0, 10.0};
  auto alloc = AllocateDpus(shapes, 32, 4,
                            DpuAllocationPolicy::kProportionalTraffic,
                            weights);
  ASSERT_TRUE(alloc.ok());
  for (std::uint32_t a : *alloc) EXPECT_GE(a, 4u);  // >= col_shards
  EXPECT_EQ(Sum(*alloc), 32u);
}

TEST(AllocationTest, CountsAreColShardMultiples) {
  const auto shapes = Shapes({500, 900, 100});
  const std::vector<double> weights = {5.0, 9.0, 1.0};
  auto alloc = AllocateDpus(shapes, 48, 8,
                            DpuAllocationPolicy::kProportionalTraffic,
                            weights);
  ASSERT_TRUE(alloc.ok());
  for (std::uint32_t a : *alloc) EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(Sum(*alloc), 48u);
}

TEST(AllocationTest, RowShardCapRespected) {
  // A 2-row table cannot take more than 2 row shards.
  const auto shapes = Shapes({2, 1000});
  const std::vector<double> weights = {1000.0, 1.0};  // absurd weight
  auto alloc = AllocateDpus(shapes, 32, 4,
                            DpuAllocationPolicy::kProportionalTraffic,
                            weights);
  ASSERT_TRUE(alloc.ok());
  EXPECT_LE((*alloc)[0], 2u * 4);
}

TEST(AllocationTest, ZeroWeightsFallBackToEqual) {
  const auto shapes = Shapes({1000, 1000});
  const std::vector<double> weights = {0.0, 0.0};
  auto alloc = AllocateDpus(shapes, 16, 4,
                            DpuAllocationPolicy::kProportionalTraffic,
                            weights);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ((*alloc)[0], (*alloc)[1]);
}

TEST(AllocationTest, ErrorCases) {
  const auto shapes = Shapes({1000, 1000});
  // Not a multiple of col shards.
  EXPECT_FALSE(
      AllocateDpus(shapes, 30, 4, DpuAllocationPolicy::kEqual).ok());
  // Fewer units than tables.
  EXPECT_FALSE(
      AllocateDpus(shapes, 4, 4, DpuAllocationPolicy::kEqual).ok());
  // Traffic policy without weights.
  EXPECT_FALSE(
      AllocateDpus(shapes, 32, 4,
                   DpuAllocationPolicy::kProportionalTraffic)
          .ok());
  // No tables.
  EXPECT_FALSE(AllocateDpus({}, 32, 4, DpuAllocationPolicy::kEqual).ok());
}

class AllocationPropertyTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AllocationPropertyTest, SumsAndFloorsHoldAcrossSystemSizes) {
  const std::uint32_t num_dpus = GetParam();
  const auto shapes = Shapes({50'000, 5'000, 500'000, 1'000});
  const std::vector<double> weights = {5.0, 1.0, 20.0, 0.5};
  auto alloc = AllocateDpus(shapes, num_dpus, 4,
                            DpuAllocationPolicy::kProportionalTraffic,
                            weights);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(Sum(*alloc), num_dpus);
  for (std::uint32_t a : *alloc) {
    EXPECT_GE(a, 4u);
    EXPECT_EQ(a % 4, 0u);
  }
  // Monotonic with weight: the heaviest table gets the most DPUs.
  EXPECT_GE((*alloc)[2], (*alloc)[0]);
  EXPECT_GE((*alloc)[0], (*alloc)[1]);
}

INSTANTIATE_TEST_SUITE_P(SystemSizes, AllocationPropertyTest,
                         ::testing::Values(16u, 32u, 64u, 128u, 256u));

}  // namespace
}  // namespace updlrm::partition
