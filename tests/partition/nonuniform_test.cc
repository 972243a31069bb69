#include "partition/nonuniform.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "partition/uniform.h"

namespace updlrm::partition {
namespace {

GroupGeometry Geom(std::uint64_t rows, std::uint32_t bins) {
  // cols 8, nc 8 => 1 column shard => bins == dpus.
  auto geom = GroupGeometry::Make(dlrm::TableShape{rows, 8}, bins, 8);
  UPDLRM_CHECK(geom.ok());
  return *geom;
}

std::vector<double> BinLoads(const PartitionPlan& plan,
                             std::span<const std::uint64_t> freq) {
  std::vector<double> loads(plan.geom.row_shards, 0.0);
  for (std::uint64_t r = 0; r < freq.size(); ++r) {
    loads[plan.row_bin[r]] += static_cast<double>(freq[r]);
  }
  return loads;
}

TEST(NonUniformTest, RejectsWrongFreqSize) {
  const std::vector<std::uint64_t> freq(10, 1);
  EXPECT_FALSE(NonUniformPartition(Geom(20, 4), freq).ok());
}

TEST(NonUniformTest, BalancesSkewedFrequencies) {
  // Zipf-like frequencies: greedy packing should land within a few
  // percent of perfect balance, far better than contiguous blocks.
  const std::uint64_t rows = 4'000;
  std::vector<std::uint64_t> freq(rows);
  for (std::uint64_t r = 0; r < rows; ++r) {
    freq[r] = static_cast<std::uint64_t>(
        100'000.0 / std::pow(static_cast<double>(r + 1), 1.05));
  }
  const GroupGeometry geom = Geom(rows, 8);
  auto nu = NonUniformPartition(geom, freq);
  ASSERT_TRUE(nu.ok());
  auto uniform = UniformPartition(geom);
  ASSERT_TRUE(uniform.ok());

  const double nu_imb = ImbalanceRatio(BinLoads(*nu, freq));
  const double u_imb = ImbalanceRatio(BinLoads(*uniform, freq));
  // The single hottest row alone exceeds the per-bin mean, so ~1.09 is
  // the best any row-granular packing can do here.
  EXPECT_LT(nu_imb, 1.15);
  EXPECT_GT(u_imb, 3.0);  // ids are popularity-ordered here: very skewed
}

TEST(NonUniformTest, EveryRowAssignedExactlyOnce) {
  std::vector<std::uint64_t> freq(100);
  Rng rng(3);
  for (auto& f : freq) f = rng.NextBounded(50);
  auto plan = NonUniformPartition(Geom(100, 4), freq);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->row_bin.size(), 100u);
  for (std::uint32_t bin : plan->row_bin) EXPECT_LT(bin, 4u);
  const auto rows = plan->EmtRowsPerBin();
  EXPECT_EQ(std::accumulate(rows.begin(), rows.end(), 0ull), 100ull);
}

TEST(NonUniformTest, ZeroFrequencyTailSpreadsEvenly) {
  // All-zero frequencies: tie-break on row count keeps bins row-even.
  const std::vector<std::uint64_t> freq(100, 0);
  auto plan = NonUniformPartition(Geom(100, 4), freq);
  ASSERT_TRUE(plan.ok());
  for (std::uint64_t rows : plan->EmtRowsPerBin()) {
    EXPECT_EQ(rows, 25u);
  }
}

TEST(NonUniformTest, CapacityRespected) {
  std::vector<std::uint64_t> freq(100, 1);
  NonUniformOptions options;
  options.max_rows_per_bin = 25;
  auto plan = NonUniformPartition(Geom(100, 4), freq, options);
  ASSERT_TRUE(plan.ok());
  for (std::uint64_t rows : plan->EmtRowsPerBin()) {
    EXPECT_LE(rows, 25u);
  }
}

TEST(NonUniformTest, CapacityOverflowFails) {
  const std::vector<std::uint64_t> freq(100, 1);
  NonUniformOptions options;
  options.max_rows_per_bin = 20;  // 4 bins x 20 < 100 rows
  const auto plan = NonUniformPartition(Geom(100, 4), freq, options);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kCapacityExceeded);
}

TEST(NonUniformTest, HottestRowsLandInDistinctBins) {
  // The 4 hottest rows must spread across the 4 bins (greedy order).
  std::vector<std::uint64_t> freq(100, 1);
  freq[10] = 1000;
  freq[20] = 900;
  freq[30] = 800;
  freq[40] = 700;
  auto plan = NonUniformPartition(Geom(100, 4), freq);
  ASSERT_TRUE(plan.ok());
  std::vector<bool> used(4, false);
  for (std::uint64_t r : {10u, 20u, 30u, 40u}) {
    EXPECT_FALSE(used[plan->row_bin[r]]) << "row " << r;
    used[plan->row_bin[r]] = true;
  }
}

class NonUniformPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NonUniformPropertyTest, NeverWorseThanUniformOnRandomSkew) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::uint64_t rows = 1'000;
  std::vector<std::uint64_t> freq(rows);
  for (auto& f : freq) {
    // Heavy-tailed random loads.
    f = static_cast<std::uint64_t>(
        std::exp(rng.NextDouble() * 8.0));
  }
  const GroupGeometry geom = Geom(rows, 8);
  auto nu = NonUniformPartition(geom, freq);
  auto u = UniformPartition(geom);
  ASSERT_TRUE(nu.ok() && u.ok());
  EXPECT_LE(ImbalanceRatio(BinLoads(*nu, freq)),
            ImbalanceRatio(BinLoads(*u, freq)) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NonUniformPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace updlrm::partition
