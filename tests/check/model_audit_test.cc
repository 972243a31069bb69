// Model/sim cross-audit: the analytic cost model's claims must land
// inside the declared executed/claimed band, honest claims pass, and a
// drifted claim (the injected fault) fires kModelSimDivergence.
#include "check/model_audit.h"

#include <gtest/gtest.h>

#include "check/report.h"

namespace updlrm::check {
namespace {

pim::EmbeddingKernelWork TypicalWork() {
  pim::EmbeddingKernelWork work;
  work.num_lookups = 300;
  work.num_cache_reads = 40;
  work.num_samples = 16;
  work.row_bytes = 16;
  return work;
}

struct AuditUnderTest {
  CheckReport report;
  pim::DpuConfig dpu;
  pim::EmbeddingKernelCostParams params;
  pim::MramTimingParams mram;
  pim::EmbeddingKernelCostModel model{params, dpu,
                                      pim::MramTimingModel(mram)};
  ModelAudit audit{dpu, params, mram, ModelAuditTolerance{}, &report};
};

TEST(ModelAuditTest, HonestClaimsPassAcrossWorkShapes) {
  AuditUnderTest t;
  for (std::uint64_t lookups : {1u, 64u, 900u}) {
    for (std::uint32_t row_bytes : {8u, 16u, 32u}) {
      // 4-byte indices and the packed stage-1 format's 3-byte ones,
      // whose in-WRAM decode both implementations price.
      for (std::uint32_t index_bytes : {4u, 3u}) {
        pim::EmbeddingKernelWork work;
        work.num_lookups = lookups;
        work.num_samples = 16;
        work.row_bytes = row_bytes;
        work.index_bytes = index_bytes;
        t.audit.AuditKernel(work, t.model.KernelCycles(work));
      }
    }
  }
  EXPECT_TRUE(t.report.clean()) << t.report.ToString();
}

TEST(ModelAuditTest, LeverWorkShapesPassToo) {
  AuditUnderTest t;
  pim::EmbeddingKernelWork work = TypicalWork();
  work.num_wram_hits = 120;
  t.audit.AuditKernel(work, t.model.KernelCycles(work));
  EXPECT_TRUE(t.report.clean()) << t.report.ToString();
}

// Injected fault: a claim inflated far beyond any tail effect.
TEST(ModelAuditTest, InflatedClaimFiresDivergence) {
  AuditUnderTest t;
  const pim::EmbeddingKernelWork work = TypicalWork();
  t.audit.AuditKernel(work, t.model.KernelCycles(work) * 10);
  EXPECT_EQ(t.report.count(Rule::kModelSimDivergence), 1u);
  EXPECT_NE(
      t.report.first_offender(Rule::kModelSimDivergence).find("ratio"),
      std::string::npos);
}

// Injected fault: a claim far below the executed makespan (a phase the
// model forgot to price).
TEST(ModelAuditTest, UnderpricedClaimFiresDivergence) {
  AuditUnderTest t;
  const pim::EmbeddingKernelWork work = TypicalWork();
  t.audit.AuditKernel(work, t.model.KernelCycles(work) / 10);
  EXPECT_EQ(t.report.count(Rule::kModelSimDivergence), 1u);
}

TEST(ModelAuditTest, EmptyWorkMustClaimZero) {
  AuditUnderTest t;
  const pim::EmbeddingKernelWork empty;
  t.audit.AuditKernel(empty, 0);
  EXPECT_TRUE(t.report.clean());
  t.audit.AuditKernel(empty, 1'000);
  EXPECT_EQ(t.report.count(Rule::kModelSimDivergence), 1u);
}

TEST(ModelAuditTest, MemoizesDistinctWorkShapes) {
  AuditUnderTest t;
  const pim::EmbeddingKernelWork work = TypicalWork();
  const Cycles claimed = t.model.KernelCycles(work);
  for (int i = 0; i < 50; ++i) t.audit.AuditKernel(work, claimed);
  EXPECT_EQ(t.audit.simulated(), 1u);
  pim::EmbeddingKernelWork other = work;
  other.num_lookups += 1;
  t.audit.AuditKernel(other, t.model.KernelCycles(other));
  EXPECT_EQ(t.audit.simulated(), 2u);
  EXPECT_TRUE(t.report.clean()) << t.report.ToString();
}

TEST(ModelAuditTest, CustomToleranceRespected) {
  CheckReport report;
  pim::DpuConfig dpu;
  pim::EmbeddingKernelCostParams params;
  pim::MramTimingParams mram;
  // A band so tight nothing realistic fits: everything diverges.
  ModelAudit audit(dpu, params, mram,
                   ModelAuditTolerance{.min_ratio = 0.9999,
                                       .max_ratio = 1.0001},
                   &report);
  pim::EmbeddingKernelCostModel model(params, dpu,
                                      pim::MramTimingModel(mram));
  const pim::EmbeddingKernelWork work = TypicalWork();
  audit.AuditKernel(work, model.KernelCycles(work) * 2);
  EXPECT_EQ(report.count(Rule::kModelSimDivergence), 1u);
}

}  // namespace
}  // namespace updlrm::check
