#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace updlrm {
namespace {

TEST(OnlineStatsTest, BasicMoments) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStatsTest, SingleValue) {
  OnlineStats s;
  s.Add(-3.5);
  EXPECT_DOUBLE_EQ(s.mean(), -3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.5);
  EXPECT_DOUBLE_EQ(s.max(), -3.5);
}

TEST(NearestRankTest, EmptyIsZeroAndSingleValueIsEveryPercentile) {
  EXPECT_EQ(NearestRank(std::vector<double>{}, 99.0), 0.0);
  for (const double p : {0.1, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(NearestRank(std::vector<double>{7.0}, p), 7.0) << p;
  }
}

TEST(NearestRankTest, SmallestValueCoveringTheRank) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_EQ(NearestRank(v, 1.0), 10.0);   // small p is the min
  EXPECT_EQ(NearestRank(v, 20.0), 10.0);  // rank ceil(1.0) = 1
  EXPECT_EQ(NearestRank(v, 21.0), 20.0);  // rank ceil(1.05) = 2
  EXPECT_EQ(NearestRank(v, 50.0), 30.0);
  EXPECT_EQ(NearestRank(v, 99.0), 50.0);
  EXPECT_EQ(NearestRank(v, 100.0), 50.0);  // p = 100 is the max
}

TEST(NearestRankTest, TiesAndDecimalRanksAreExact) {
  const std::vector<double> tied = {5.0, 1.0, 5.0, 5.0};
  EXPECT_EQ(NearestRank(tied, 25.0), 1.0);
  EXPECT_EQ(NearestRank(tied, 26.0), 5.0);
  EXPECT_EQ(NearestRank(tied, 100.0), 5.0);
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(static_cast<double>(i));
  EXPECT_EQ(NearestRank(v, 99.0), 990.0);
  EXPECT_EQ(NearestRank(v, 99.9), 999.0);  // not 1000
}

TEST(NearestRankTest, UnsortedInputHandled) {
  const std::vector<double> v = {9.0, 1.0, 5.0};
  EXPECT_EQ(NearestRank(v, 50.0), 5.0);
  EXPECT_EQ(NearestRank(v, 34.0), 5.0);
  EXPECT_EQ(NearestRank(v, 33.0), 1.0);
}

TEST(ImbalanceTest, BalancedIsOne) {
  const std::vector<double> v = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(ImbalanceRatio(v), 1.0);
}

TEST(ImbalanceTest, SkewedAboveOne) {
  const std::vector<double> v = {1.0, 1.0, 10.0};
  EXPECT_DOUBLE_EQ(ImbalanceRatio(v), 10.0 / 4.0);
}

TEST(ImbalanceTest, EmptyAndZeroSafe) {
  EXPECT_DOUBLE_EQ(ImbalanceRatio({}), 0.0);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(ImbalanceRatio(zeros), 0.0);
}

TEST(MaxMinTest, Basics) {
  const std::vector<double> v = {2.0, 8.0, 4.0};
  EXPECT_DOUBLE_EQ(MaxMinRatio(v), 4.0);
}

TEST(MaxMinTest, ZeroMinIsInfinity) {
  const std::vector<double> v = {0.0, 5.0};
  EXPECT_TRUE(std::isinf(MaxMinRatio(v)));
}

TEST(MaxMinTest, AllZeroIsZero) {
  const std::vector<double> v = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(MaxMinRatio(v), 0.0);
}

TEST(CvTest, BalancedIsZero) {
  const std::vector<double> v = {5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(CoefficientOfVariation(v), 0.0);
}

TEST(CvTest, KnownValue) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(CoefficientOfVariation(v), 2.0 / 5.0, 1e-12);
}

TEST(GiniTest, EqualIsZero) {
  const std::vector<double> v = {1.0, 1.0, 1.0, 1.0};
  EXPECT_NEAR(GiniCoefficient(v), 0.0, 1e-12);
}

TEST(GiniTest, ExtremeInequalityApproachesOne) {
  std::vector<double> v(100, 0.0);
  v[0] = 1000.0;
  EXPECT_GT(GiniCoefficient(v), 0.95);
}

TEST(GiniTest, MoreSkewMeansHigherGini) {
  const std::vector<double> mild = {4.0, 5.0, 6.0};
  const std::vector<double> harsh = {1.0, 1.0, 13.0};
  EXPECT_LT(GiniCoefficient(mild), GiniCoefficient(harsh));
}

TEST(ToDoublesTest, ConvertsValues) {
  const std::vector<std::uint64_t> v = {1, 2, 3};
  const std::vector<double> d = ToDoubles(v);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
}

}  // namespace
}  // namespace updlrm
