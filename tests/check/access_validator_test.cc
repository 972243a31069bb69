// Injected-fault coverage of the shadow-state access validator: one
// deliberate violation per hardware rule (alignment, DMA size, bank
// bounds, uninitialized read, region overlap), plus the clean-path and
// interval-set behavior the rules depend on.
#include "check/access_validator.h"

#include <gtest/gtest.h>

#include "check/report.h"

namespace updlrm::check {
namespace {

constexpr std::uint64_t kBank = 64 * 1024 * 1024;

AccessLimits Limits() {
  return AccessLimits{.bank_bytes = kBank, .alignment = 8,
                      .max_dma_bytes = 2048};
}

TEST(AccessValidatorTest, CleanAccessesReportNothing) {
  CheckReport report;
  AccessValidator v(2, Limits(), &report);
  v.RegisterRegion(0, RegionKind::kEmt, 0, 4096);
  v.RegisterRegion(0, RegionKind::kCache, 4096, 4096);
  v.OnWrite(0, 0, 256);
  v.OnRead(0, 0, 256);
  v.OnDma(0, 0, 2048, false);
  v.OnDma(0, 8, 8, true);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// Rule: kDmaAlignment — misaligned offset.
TEST(AccessValidatorTest, MisalignedOffsetFires) {
  CheckReport report;
  AccessValidator v(1, Limits(), &report);
  v.OnWrite(0, 4, 8);
  EXPECT_EQ(report.count(Rule::kDmaAlignment), 1u);
  EXPECT_NE(report.first_offender(Rule::kDmaAlignment).find("offset"),
            std::string::npos);
}

// Rule: kDmaAlignment — DMA size not 8-byte aligned.
TEST(AccessValidatorTest, MisalignedDmaSizeFires) {
  CheckReport report;
  AccessValidator v(1, Limits(), &report);
  v.OnDma(0, 0, 12, false);
  EXPECT_EQ(report.count(Rule::kDmaAlignment), 1u);
}

// Rule: kDmaSize — transfers of 0 or > 2048 bytes.
TEST(AccessValidatorTest, OversizedAndZeroDmaFire) {
  CheckReport report;
  AccessValidator v(1, Limits(), &report);
  v.OnDma(0, 0, 4096, true);
  EXPECT_EQ(report.count(Rule::kDmaSize), 1u);
  v.OnDma(0, 0, 0, false);
  EXPECT_EQ(report.count(Rule::kDmaSize), 2u);
}

// Rule: kBankBounds — access beyond the 64 MB bank.
TEST(AccessValidatorTest, OutOfBankAccessFires) {
  CheckReport report;
  AccessValidator v(1, Limits(), &report);
  v.OnWrite(0, kBank - 8, 16);  // straddles the end
  EXPECT_EQ(report.count(Rule::kBankBounds), 1u);
  v.OnRead(0, kBank + 1024, 8);  // fully outside (and unwritten)
  EXPECT_EQ(report.count(Rule::kBankBounds), 2u);
}

// Rule: kUninitRead — reading bytes never written.
TEST(AccessValidatorTest, UninitializedReadFires) {
  CheckReport report;
  AccessValidator v(1, Limits(), &report);
  v.OnWrite(0, 0, 64);
  v.OnRead(0, 0, 64);  // fine: fully covered
  EXPECT_EQ(report.count(Rule::kUninitRead), 0u);
  v.OnRead(0, 64, 8);  // one past the written range
  EXPECT_EQ(report.count(Rule::kUninitRead), 1u);
  v.OnRead(0, 56, 16);  // half written, half cold
  EXPECT_EQ(report.count(Rule::kUninitRead), 2u);
}

// Rule: kRegionOverlap — EMT and cache regions intersecting.
TEST(AccessValidatorTest, OverlappingRegionsFire) {
  CheckReport report;
  AccessValidator v(1, Limits(), &report);
  v.RegisterRegion(0, RegionKind::kEmt, 0, 4096);
  v.RegisterRegion(0, RegionKind::kCache, 4088, 4096);
  EXPECT_EQ(report.count(Rule::kRegionOverlap), 1u);
  const std::string ctx = report.first_offender(Rule::kRegionOverlap);
  EXPECT_NE(ctx.find("cache"), std::string::npos);
  EXPECT_NE(ctx.find("emt"), std::string::npos);
}

TEST(AccessValidatorTest, AdjacentAndZeroByteRegionsNeverOverlap) {
  CheckReport report;
  AccessValidator v(1, Limits(), &report);
  v.RegisterRegion(0, RegionKind::kEmt, 0, 4096);
  v.RegisterRegion(0, RegionKind::kCache, 4096, 4096);  // adjacent
  v.RegisterRegion(0, RegionKind::kIndex, 2048, 0);     // empty
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(AccessValidatorTest, RegionBeyondBankFires) {
  CheckReport report;
  AccessValidator v(1, Limits(), &report);
  v.RegisterRegion(0, RegionKind::kOutput, kBank - 1024, 4096);
  EXPECT_EQ(report.count(Rule::kBankBounds), 1u);
}

TEST(AccessValidatorTest, WrittenIntervalsMergeAcrossWrites) {
  CheckReport report;
  AccessValidator v(1, Limits(), &report);
  v.OnWrite(0, 0, 32);
  v.OnWrite(0, 64, 32);
  EXPECT_FALSE(v.IsWritten(0, 0, 96));  // hole at [32, 64)
  v.OnWrite(0, 32, 32);                 // fill the hole
  EXPECT_TRUE(v.IsWritten(0, 0, 96));
  v.OnRead(0, 0, 96);
  EXPECT_EQ(report.count(Rule::kUninitRead), 0u);
}

TEST(AccessValidatorTest, ShadowStateIsPerDpu) {
  CheckReport report;
  AccessValidator v(2, Limits(), &report);
  v.OnWrite(0, 0, 64);
  EXPECT_TRUE(v.IsWritten(0, 0, 64));
  EXPECT_FALSE(v.IsWritten(1, 0, 64));
  v.OnRead(1, 0, 64);
  EXPECT_EQ(report.count(Rule::kUninitRead), 1u);
}

TEST(AccessValidatorTest, ResetDropsShadowStateOnly) {
  CheckReport report;
  AccessValidator v(1, Limits(), &report);
  v.OnWrite(0, 0, 64);
  v.OnDma(0, 0, 4096, false);
  v.Reset();
  EXPECT_FALSE(v.IsWritten(0, 0, 64));
  // Report survives a shadow reset (it belongs to the run, not the
  // engine instance).
  EXPECT_EQ(report.count(Rule::kDmaSize), 1u);
}

}  // namespace
}  // namespace updlrm::check
