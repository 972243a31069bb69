#include "partition/uniform.h"

#include <gtest/gtest.h>

#include "pim/system.h"

namespace updlrm::partition {
namespace {

std::unique_ptr<pim::DpuSystem> MakeSystem() {
  pim::DpuSystemConfig config;
  config.num_dpus = 256;
  config.dpus_per_rank = 64;
  config.functional = false;
  auto system = pim::DpuSystem::Create(config);
  UPDLRM_CHECK(system.ok());
  return std::move(system).value();
}

TEST(UniformTest, ContiguousEqualBlocks) {
  auto geom = GroupGeometry::Make(dlrm::TableShape{100, 8}, 8, 4);
  ASSERT_TRUE(geom.ok());
  auto plan = UniformPartition(*geom);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->method, Method::kUniform);
  // 4 bins (8 DPUs / 2 col shards), 25 rows each, contiguous.
  EXPECT_EQ(plan->row_bin[0], 0u);
  EXPECT_EQ(plan->row_bin[24], 0u);
  EXPECT_EQ(plan->row_bin[25], 1u);
  EXPECT_EQ(plan->row_bin[99], 3u);
}

TEST(UniformTest, LastBinAbsorbsShortTail) {
  auto geom = GroupGeometry::Make(dlrm::TableShape{10, 8}, 8, 4);
  ASSERT_TRUE(geom.ok());
  // 4 bins, ceil(10/4) = 3 rows per bin; last bin gets 1.
  auto plan = UniformPartition(*geom);
  ASSERT_TRUE(plan.ok());
  auto rows = plan->EmtRowsPerBin();
  EXPECT_EQ(rows[0], 3u);
  EXPECT_EQ(rows[3], 1u);
}

TEST(TileOptimizerTest, PicksAFeasibleCandidate) {
  auto system = MakeSystem();
  auto result = OptimizeTileShape(dlrm::TableShape{2'360'650, 32}, 32, 64,
                                  245.8, *system);
  ASSERT_TRUE(result.ok());
  // Feasible candidates are 2, 4, 8 (6 does not divide 32).
  ASSERT_EQ(result->candidates.size(), 3u);
  EXPECT_EQ(result->candidates[0].nc, 2u);
  EXPECT_EQ(result->candidates[1].nc, 4u);
  EXPECT_EQ(result->candidates[2].nc, 8u);
  EXPECT_TRUE(result->best.nc == 2 || result->best.nc == 4 ||
              result->best.nc == 8);
}

TEST(TileOptimizerTest, BestMinimizesTotal) {
  auto system = MakeSystem();
  auto result = OptimizeTileShape(dlrm::TableShape{2'360'650, 32}, 32, 64,
                                  245.8, *system);
  ASSERT_TRUE(result.ok());
  for (const auto& cand : result->candidates) {
    EXPECT_LE(result->best.total_ns, cand.total_ns);
  }
}

TEST(TileOptimizerTest, TradeoffDirectionsMatchSection31) {
  // §3.1 / §4.3: larger Nc lowers CPU->DPU (fewer lookups per DPU) and
  // raises DPU->CPU (wider partial results).
  auto system = MakeSystem();
  auto result = OptimizeTileShape(dlrm::TableShape{2'360'650, 32}, 32, 64,
                                  245.8, *system);
  ASSERT_TRUE(result.ok());
  const auto& c = result->candidates;
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_LT(c[i].stage1_ns, c[i - 1].stage1_ns);
    EXPECT_GE(c[i].stage3_ns, c[i - 1].stage3_ns);
  }
}

TEST(TileOptimizerTest, EqTwoRejectsOversizedTiles) {
  auto system = MakeSystem();
  // A single DPU for a table whose tile would exceed 64 MB / 4 B values:
  // rows * nc must violate Eq. (2) for every candidate.
  auto result = OptimizeTileShape(dlrm::TableShape{20'000'000, 32}, 4, 64,
                                  50.0, *system);
  // 20M rows / (4/16 col shards)... every Nc makes Nr*Nc > 16.7M values.
  EXPECT_FALSE(result.ok());
}

TEST(TileOptimizerTest, RejectsBadArguments) {
  auto system = MakeSystem();
  EXPECT_FALSE(OptimizeTileShape(dlrm::TableShape{100, 32}, 32, 0, 50.0,
                                 *system)
                   .ok());
  EXPECT_FALSE(OptimizeTileShape(dlrm::TableShape{100, 32}, 32, 64, 0.0,
                                 *system)
                   .ok());
}

TEST(TileOptimizerTest, StageEstimatesArePositive) {
  auto system = MakeSystem();
  auto result = OptimizeTileShape(dlrm::TableShape{1'000'000, 32}, 32, 64,
                                  100.0, *system);
  ASSERT_TRUE(result.ok());
  for (const auto& cand : result->candidates) {
    EXPECT_GT(cand.stage1_ns, 0.0);
    EXPECT_GT(cand.stage2_ns, 0.0);
    EXPECT_GT(cand.stage3_ns, 0.0);
    EXPECT_DOUBLE_EQ(cand.total_ns,
                     cand.stage1_ns + cand.stage2_ns + cand.stage3_ns);
  }
}

// ---- The replica axis R (whole-rank model copies). ----

TEST(TileOptimizerTest, SingleReplicaKeepsThePaperCandidates) {
  // R = 1 (the default) prices exactly the paper's one-copy Eq. 1-3
  // search: these are the optimizer's candidates from before R existed.
  struct Want {
    std::uint32_t nc;
    std::uint64_t nr;
    Nanos s1, s2, s3, total;
  };
  const Want want[] = {
      {2, 1180325, 0x1.606e555555556p+19, 0x1.66e58p+20,
       0x1.3e00e38e38e39p+16, 0x1.157e5c71c71c8p+21},
      {4, 590163, 0x1.791caaaaaaaabp+18, 0x1.9025249249249p+19,
       0x1.cc39c71c71c72p+16, 0x1.431d596596596p+20},
      {8, 295082, 0x1.aa64p+17, 0x1.e28cdb6db6db7p+18,
       0x1.7455c71c71c72p+17, 0x1.b8f4df7df7df8p+19},
  };
  auto system = MakeSystem();
  for (const std::uint32_t pinned : {1U, 0U}) {
    auto result = OptimizeTileShape(dlrm::TableShape{2'360'650, 32}, 32, 64,
                                    245.8, *system, DefaultNcCandidates(),
                                    pinned);
    ASSERT_TRUE(result.ok());
    std::vector<TileCandidate> one_copy;
    for (const TileCandidate& c : result->candidates) {
      if (c.replicas == 1) one_copy.push_back(c);
    }
    if (pinned == 1) {
      EXPECT_EQ(one_copy.size(), result->candidates.size());
    }
    ASSERT_EQ(one_copy.size(), 3u);
    for (std::size_t i = 0; i < one_copy.size(); ++i) {
      EXPECT_EQ(one_copy[i].nc, want[i].nc);
      EXPECT_EQ(one_copy[i].nr, want[i].nr);
      EXPECT_EQ(one_copy[i].stage1_ns, want[i].s1);
      EXPECT_EQ(one_copy[i].stage2_ns, want[i].s2);
      EXPECT_EQ(one_copy[i].stage3_ns, want[i].s3);
      EXPECT_EQ(one_copy[i].total_ns, want[i].total);
    }
  }
}

TEST(TileOptimizerTest, ReplicasShrinkThePullButNotThePushOrLookup) {
  // 256 DPUs in 4 ranks, 8 tables of 32 DPUs: R in {1, 2, 4}. At a fixed
  // Nc, each copy has 1/R of the bins and 1/R of the samples, so the
  // per-DPU lookups stay put while each DPU pulls 1/R of the rows.
  auto system = MakeSystem();
  auto result = OptimizeTileShape(dlrm::TableShape{2'360'650, 32}, 32, 64,
                                  245.8, *system, DefaultNcCandidates(),
                                  /*replicas=*/0);
  ASSERT_TRUE(result.ok());
  std::size_t pairs = 0;
  const auto& c = result->candidates;
  for (std::size_t i = 1; i < c.size(); ++i) {
    if (c[i].nc != c[i - 1].nc) continue;
    ++pairs;
    EXPECT_GT(c[i].replicas, c[i - 1].replicas);
    EXPECT_LT(c[i].stage3_ns, c[i - 1].stage3_ns) << "nc " << c[i].nc;
    EXPECT_LE(c[i].stage1_ns, c[i - 1].stage1_ns) << "nc " << c[i].nc;
    EXPECT_LE(c[i].stage2_ns, c[i - 1].stage2_ns) << "nc " << c[i].nc;
  }
  EXPECT_GE(pairs, 4u);  // nc 4 and 8 at R = 1, 2, 4
  EXPECT_EQ(result->best.replicas, 4u);
}

TEST(TileOptimizerTest, PicksTheLargestReplicaCountThatFitsEqTwo) {
  // meta1's 5.78M rows: at R = 4 every tile exceeds 64 MB / 4 B values,
  // at R = 2 the Nc = 8 tile fits.
  auto system = MakeSystem();
  auto result = OptimizeTileShape(dlrm::TableShape{5'780'000, 32}, 32, 64,
                                  100.0, *system, DefaultNcCandidates(),
                                  /*replicas=*/0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best.replicas, 2u);
  for (const TileCandidate& cand : result->candidates) {
    EXPECT_LE(cand.replicas, 2u);
  }
  // Pinned to 4 copies, nothing fits: a capacity error.
  auto four = OptimizeTileShape(dlrm::TableShape{5'780'000, 32}, 32, 64,
                                100.0, *system, DefaultNcCandidates(),
                                /*replicas=*/4);
  ASSERT_FALSE(four.ok());
  EXPECT_EQ(four.status().code(), StatusCode::kCapacityExceeded);
}

TEST(TileOptimizerTest, PackedFormatNarrowsStageOneOnly) {
  // GoodReads-sized table at every (Nc, R): the packed wire format
  // prices each candidate's push through the shared wire helper, cuts
  // stage 1, and adds only the decode to stage 2.
  auto system = MakeSystem();
  auto paper = OptimizeTileShape(dlrm::TableShape{2'360'650, 32}, 32, 64,
                                 245.8, *system, DefaultNcCandidates(), 0);
  auto packed = OptimizeTileShape(dlrm::TableShape{2'360'650, 32}, 32, 64,
                                  245.8, *system, DefaultNcCandidates(), 0,
                                  /*packed_indices=*/true);
  ASSERT_TRUE(paper.ok());
  ASSERT_TRUE(packed.ok());
  ASSERT_EQ(paper->candidates.size(), packed->candidates.size());
  for (std::size_t i = 0; i < paper->candidates.size(); ++i) {
    const TileCandidate& p = paper->candidates[i];
    const TileCandidate& k = packed->candidates[i];
    const std::uint64_t samples = CeilDiv(64, k.replicas);
    const std::uint64_t lookups = (p.push_bytes - (samples + 1) * 4) / 4;
    EXPECT_EQ(k.push_bytes, lookups * 3 + (samples + 1) * 2);
    EXPECT_LT(k.stage1_ns, p.stage1_ns);
    EXPECT_GE(k.stage2_ns, p.stage2_ns);
    EXPECT_LE(k.stage2_ns, 1.01 * p.stage2_ns);
    EXPECT_EQ(k.stage3_ns, p.stage3_ns);
  }
  EXPECT_EQ(packed->best.nc, paper->best.nc);
  EXPECT_EQ(packed->best.replicas, paper->best.replicas);
}

TEST(TileOptimizerTest, ReplicasNeedWholeRanksAndAGroupPerTable) {
  auto system = MakeSystem();  // 4 ranks
  EXPECT_TRUE(ReplicasFit(1, 32, *system));
  EXPECT_TRUE(ReplicasFit(2, 32, *system));
  EXPECT_TRUE(ReplicasFit(4, 32, *system));
  EXPECT_FALSE(ReplicasFit(3, 32, *system));  // does not divide 4 ranks
  EXPECT_FALSE(ReplicasFit(8, 32, *system));  // more copies than ranks
  EXPECT_FALSE(ReplicasFit(4, 2, *system));   // a table's group splits
  EXPECT_FALSE(ReplicasFit(0, 32, *system));
}

}  // namespace
}  // namespace updlrm::partition
