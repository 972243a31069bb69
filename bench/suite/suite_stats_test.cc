// Pins the benchmark's statistical definitions (suite_stats.h).
#include "suite_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace updlrm::suite {
namespace {

TEST(NearestRankTest, SmallestValueCoveringTheRank) {
  const std::vector<double> v = {50, 10, 40, 20, 30};  // any order
  EXPECT_EQ(NearestRank(v, 20.0), 10.0);  // rank ceil(1.0) = 1
  EXPECT_EQ(NearestRank(v, 21.0), 20.0);  // rank ceil(1.05) = 2
  EXPECT_EQ(NearestRank(v, 50.0), 30.0);
  EXPECT_EQ(NearestRank(v, 99.0), 50.0);
  EXPECT_EQ(NearestRank(v, 100.0), 50.0);
}

TEST(NearestRankTest, TailNeedsTheSampleToResolveIt) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(NearestRank(v, 99.0), 990.0);
  EXPECT_EQ(NearestRank(v, 99.9), 999.0);
  EXPECT_EQ(NearestRank(std::vector<double>{}, 99.0), 0.0);
  EXPECT_EQ(NearestRank(std::vector<double>{7.0}, 0.1), 7.0);
}

TEST(WarmupTest, DropsTheLeadingTenthInOrder) {
  std::vector<double> v;
  for (int i = 0; i < 25; ++i) v.push_back(i);
  const auto kept = AfterWarmup(v);
  ASSERT_EQ(kept.size(), 23u);  // floor(2.5) = 2 dropped
  EXPECT_EQ(kept.front(), 2.0);
  EXPECT_EQ(kept.back(), 24.0);
  EXPECT_TRUE(AfterWarmup(std::vector<double>{}).empty());
  EXPECT_EQ(AfterWarmup(v, 1.0).size(), 0u);
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(BisectKneeTest, ConvergesBelowAMonotoneKnee) {
  const double knee = 168'000.0;
  int calls = 0;
  const double found = BisectKnee(20e3, 800e3, 10, [&](double qps) {
    ++calls;
    return qps <= knee;
  });
  EXPECT_EQ(calls, 11);  // the lower bracket, then ten steps
  EXPECT_LE(found, knee);
  EXPECT_GT(found, knee - (800e3 - 20e3) / 1024.0);
}

TEST(BisectKneeTest, ReportsZeroWhenTheLowerBracketFails) {
  EXPECT_EQ(BisectKnee(20e3, 800e3, 10, [](double) { return false; }), 0.0);
}

TEST(BisectKneeTest, StaysBelowTheUpperBracketWhenEverythingPasses) {
  const double found = BisectKnee(20e3, 800e3, 10, [](double) { return true; });
  EXPECT_LT(found, 800e3);
  EXPECT_GT(found, 799e3);
}

TEST(BacklogTest, QueueMustDrainWithinOneSlo) {
  EXPECT_TRUE(DrainsWithinSlo(100e6, 101e6, 2e6));
  EXPECT_TRUE(DrainsWithinSlo(100e6, 102e6, 2e6));  // boundary passes
  EXPECT_FALSE(DrainsWithinSlo(100e6, 102.5e6, 2e6));
}

TEST(SimDigestTest, BitExactAndOrderSensitive) {
  const std::vector<double> a = {1.0, 2.5, 1e6};
  const std::vector<double> b = {2.5, 1.0, 1e6};
  std::vector<double> c = a;
  EXPECT_EQ(SimDigest(a), SimDigest(c));
  EXPECT_NE(SimDigest(a), SimDigest(b));
  c[2] = std::nextafter(c[2], 2e6);  // one ulp
  EXPECT_NE(SimDigest(a), SimDigest(c));
  EXPECT_EQ(SimDigest(std::vector<double>{}), 0xcbf29ce484222325ULL);
}

}  // namespace
}  // namespace updlrm::suite
