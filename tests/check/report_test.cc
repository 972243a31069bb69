#include "check/report.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "telemetry/json.h"

namespace updlrm::check {
namespace {

TEST(CheckReportTest, StartsClean) {
  CheckReport report;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.total(), 0u);
  EXPECT_EQ(report.count(Rule::kDmaAlignment), 0u);
  EXPECT_EQ(report.first_offender(Rule::kDmaAlignment), "");
  EXPECT_NE(report.ToString().find("all checks passed"),
            std::string::npos);
}

TEST(CheckReportTest, CountsPerRuleAndKeepsFirstOffender) {
  CheckReport report;
  report.AddViolation(Rule::kDmaSize, "first dma");
  report.AddViolation(Rule::kDmaSize, "second dma");
  report.AddViolation(Rule::kUninitRead, "cold read");
  EXPECT_EQ(report.count(Rule::kDmaSize), 2u);
  EXPECT_EQ(report.count(Rule::kUninitRead), 1u);
  EXPECT_EQ(report.total(), 3u);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.first_offender(Rule::kDmaSize), "first dma");
}

TEST(CheckReportTest, EveryRuleHasAName) {
  for (std::size_t i = 0; i < kNumCheckRules; ++i) {
    EXPECT_NE(RuleName(static_cast<Rule>(i)), "unknown") << "rule " << i;
  }
}

TEST(CheckReportTest, ToStringAndJsonListNonzeroRules) {
  CheckReport report;
  report.AddViolation(Rule::kBankBounds, "offset 1 << 40");
  const std::string text = report.ToString();
  EXPECT_NE(text.find("bank-bounds"), std::string::npos);
  EXPECT_NE(text.find("offset 1 << 40"), std::string::npos);
  auto json = telemetry::ParseJson(report.ToJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json->Find("total")->AsNumber(), 1.0);
  EXPECT_NE(json->Find("rules")->Find("bank-bounds"), nullptr);
  // The offender context round-trips byte for byte: quotes, a
  // backslash and control characters are escaped, not rewritten.
  const std::string offender = std::string("a \"quoted\" \\ ctx") + "\n\x01";
  report.AddViolation(Rule::kDmaSize, offender);
  auto quoted = telemetry::ParseJson(report.ToJson());
  ASSERT_TRUE(quoted.ok()) << quoted.status().ToString();
  EXPECT_EQ(quoted->Find("total")->AsNumber(), 2.0);
  const telemetry::JsonValue* first =
      quoted->Find("rules")->Find("dma-size")->Find("first");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->AsString(), offender);
}

TEST(CheckReportTest, ResetClearsCountsAndOffenders) {
  CheckReport report;
  report.AddViolation(Rule::kRegionOverlap, "emt vs cache");
  report.Reset();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.first_offender(Rule::kRegionOverlap), "");
}

TEST(CheckReportTest, ConcurrentAddsSumExactly) {
  CheckReport report;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&report] {
      for (int i = 0; i < kPerThread; ++i) {
        report.AddViolation(Rule::kModelSimDivergence, "ctx");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(report.count(Rule::kModelSimDivergence),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace updlrm::check
