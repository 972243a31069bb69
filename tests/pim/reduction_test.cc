// Reduction-pricing tests: plan shape, the degenerate single-rank
// plan, the flat stream's cross-host ingress, and the table-group
// merge (in-group tree, then one gather).
#include "pim/reduction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace updlrm::pim {
namespace {

TEST(ReductionTest, Log2Levels) {
  EXPECT_EQ(Log2Levels(0), 0u);
  EXPECT_EQ(Log2Levels(1), 0u);
  EXPECT_EQ(Log2Levels(2), 1u);
  EXPECT_EQ(Log2Levels(3), 2u);
  EXPECT_EQ(Log2Levels(4), 2u);
  EXPECT_EQ(Log2Levels(5), 3u);
  EXPECT_EQ(Log2Levels(8), 3u);
  EXPECT_EQ(Log2Levels(1024), 10u);
}

TEST(ReductionTest, SingleRankStaysFlat) {
  const FleetTopology topo(FleetTopologyConfig{}, 1);
  const std::vector<std::uint64_t> bytes = {1 << 20};
  const ReductionPlan plan = PlanReduction(topo, bytes, 1 << 16);
  EXPECT_EQ(plan.active_ranks, 1u);
  EXPECT_EQ(plan.levels, 0u);
  EXPECT_EQ(plan.tree_ns, 0.0);
}

TEST(ReductionTest, EmptyRanksAreInactive) {
  const FleetTopology topo(FleetTopologyConfig{}, 4);
  const std::vector<std::uint64_t> bytes = {1 << 20, 0, 0, 0};
  const ReductionPlan plan = PlanReduction(topo, bytes, 1 << 16);
  EXPECT_EQ(plan.active_ranks, 1u);
  EXPECT_EQ(plan.levels, 0u);
}

TEST(ReductionTest, MergeLevelHopEscalatesAtHostBoundary) {
  FleetTopologyConfig config;
  config.ranks_per_host = 4;
  const FleetTopology topo(config, 16);
  EXPECT_EQ(MergeLevelHop(topo, 16, 0), TransferHop::kCrossRank);  // 1
  EXPECT_EQ(MergeLevelHop(topo, 16, 1), TransferHop::kCrossRank);  // 2
  EXPECT_EQ(MergeLevelHop(topo, 16, 2), TransferHop::kCrossHost);  // 4
  EXPECT_EQ(MergeLevelHop(topo, 16, 3), TransferHop::kCrossHost);  // 8

  const FleetTopology flat(FleetTopologyConfig{}, 16);
  for (std::uint32_t l = 0; l < 4; ++l) {
    EXPECT_EQ(MergeLevelHop(flat, 16, l), TransferHop::kCrossRank);
  }
}

TEST(ReductionTest, MergeLevelHopSeesGroupsThatStraddleHosts) {
  // 12 ranks in groups of 3, 4 ranks per host: groups start at 0, 3, 6
  // and 9, so the level-0 pair (3, 4) and the level-1 pair (6, 8) cross
  // a host boundary although both distances are below 4.
  FleetTopologyConfig config;
  config.ranks_per_host = 4;
  const FleetTopology topo(config, 12);
  EXPECT_EQ(MergeLevelHop(topo, 3, 0), TransferHop::kCrossHost);
  EXPECT_EQ(MergeLevelHop(topo, 3, 1), TransferHop::kCrossHost);
  // Host-aligned groups of 4 stay inside their host.
  EXPECT_EQ(MergeLevelHop(topo, 4, 0), TransferHop::kCrossRank);
  EXPECT_EQ(MergeLevelHop(topo, 4, 1), TransferHop::kCrossRank);
}

TEST(ReductionTest, UnalignedGroupTreePaysTheCrossHostHop) {
  // The 12-rank, width-3 fleet above: both tree levels cost a
  // cross-host hop; then group 1 (host 0) gathers cross-rank and groups
  // 2 and 3 (hosts 1 and 2) share the cross-host link.
  FleetTopologyConfig config;
  config.ranks_per_host = 4;
  const FleetTopology topo(config, 12);
  const std::vector<std::uint64_t> bytes(12, 1 << 20);
  const std::uint64_t slice = 1 << 14;
  const ReductionPlan plan = PlanReduction(topo, bytes, slice, /*groups=*/4);
  EXPECT_EQ(plan.group_ranks, 3u);
  EXPECT_EQ(plan.levels, 3u);
  const Nanos tree = topo.HopTime(TransferHop::kCrossHost, slice) +
                     topo.HopTime(TransferHop::kCrossHost, slice);
  const Nanos gather =
      std::max(topo.HopTime(TransferHop::kCrossRank, slice),
               topo.HopTime(TransferHop::kCrossHost, 2 * slice));
  EXPECT_EQ(plan.tree_ns, tree + gather);
}

TEST(ReductionTest, FlatStreamPaysIngressForOtherHostsPartials) {
  // 4 ranks on 2 hosts: the flat stream runs on rank 0's host, so ranks
  // 2 and 3 first send their partials over its cross-host link.
  FleetTopologyConfig config;
  config.ranks_per_host = 2;
  const FleetTopology topo(config, 4);
  const std::vector<std::uint64_t> bytes = {1 << 20, 2 << 20, 3 << 20,
                                            4 << 20};
  const Nanos ingress = topo.HopTime(TransferHop::kCrossHost, 7 << 20);
  EXPECT_EQ(FlatIngressTime(topo, bytes), ingress);

  // Ranks that all live on one host — the front end's or a remote one —
  // reduce where they land: no ingress.
  config.ranks_per_host = 4;
  config.host_offset = 1;
  const FleetTopology remote(config, 4);
  EXPECT_EQ(FlatIngressTime(remote, bytes), 0.0);
  const FleetTopology local(FleetTopologyConfig{}, 4);
  EXPECT_EQ(FlatIngressTime(local, bytes), 0.0);
  // Idle remote ranks send nothing.
  const std::vector<std::uint64_t> home_only = {1 << 20, 2 << 20, 0, 0};
  EXPECT_EQ(FlatIngressTime(topo, home_only), 0.0);
}

TEST(ReductionTest, TableGroupsSumInGroupThenGatherOnce) {
  // 16 shards in 8 groups of 2, 4 shards per host: groups 0 and 1 share
  // the front end's host, groups 2..7 are remote. One in-group level
  // (partners 1 apart, same host), then one gather in which the local
  // and the remote senders each share their own link.
  FleetTopologyConfig config;
  config.ranks_per_host = 4;
  const FleetTopology topo(config, 16);
  const std::vector<std::uint64_t> bytes(16, 1 << 20);
  const std::uint64_t slice = 1 << 14;
  const ReductionPlan plan = PlanReduction(topo, bytes, slice, /*groups=*/8);
  EXPECT_EQ(plan.groups, 8u);
  EXPECT_EQ(plan.active_ranks, 16u);
  EXPECT_EQ(plan.group_ranks, 2u);
  EXPECT_EQ(plan.levels, 2u);
  const Nanos tree = topo.HopTime(TransferHop::kCrossRank, slice);
  const Nanos gather =
      std::max(topo.HopTime(TransferHop::kCrossRank, slice),
               topo.HopTime(TransferHop::kCrossHost, 6 * slice));
  EXPECT_EQ(plan.tree_ns, tree + gather);
}

TEST(ReductionTest, OneGroupPerRankIsOneGather) {
  // Whole tables per shard, one shard per host: no sums, the 3 remote
  // slices share the front end's link in one hop.
  FleetTopologyConfig config;
  config.ranks_per_host = 1;
  const FleetTopology topo(config, 4);
  const std::vector<std::uint64_t> bytes(4, 1 << 20);
  const ReductionPlan plan = PlanReduction(topo, bytes, 32 << 10, /*groups=*/4);
  EXPECT_EQ(plan.group_ranks, 1u);
  EXPECT_EQ(plan.levels, 1u);
  EXPECT_EQ(plan.tree_ns, topo.HopTime(TransferHop::kCrossHost, 96 << 10));
}

TEST(ReductionTest, OneGroupIsTheAllRankTree) {
  FleetTopologyConfig config;
  config.ranks_per_host = 2;
  const FleetTopology topo(config, 8);
  const std::vector<std::uint64_t> bytes(8, 1 << 20);
  const ReductionPlan plan = PlanReduction(topo, bytes, 1 << 16, /*groups=*/1);
  EXPECT_EQ(plan.levels, 3u);
  Nanos tree = 0.0;
  for (std::uint32_t l = 0; l < 3; ++l) {
    tree += topo.HopTime(MergeLevelHop(topo, 8, l), 1 << 16);
  }
  EXPECT_EQ(plan.tree_ns, tree);
}

// Property: the shape invariants hold for random fleets — the same
// invariants check::AuditReductionPlan re-derives.
TEST(ReductionTest, PlanInvariantsProperty) {
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    FleetTopologyConfig config;
    config.ranks_per_host =
        static_cast<std::uint32_t>(rng.NextBounded(5));  // 0 = one host
    const std::uint32_t ranks =
        1 + static_cast<std::uint32_t>(rng.NextBounded(64));
    const FleetTopology topo(config, ranks);
    std::vector<std::uint64_t> bytes(ranks);
    for (auto& b : bytes) {
      b = rng.NextBernoulli(0.2) ? 0 : rng.NextBounded(16ull << 20);
    }
    const std::uint64_t pooled = rng.NextBounded(8ull << 20);
    std::uint32_t groups = 1 + static_cast<std::uint32_t>(
                                   rng.NextBounded(ranks));
    while (ranks % groups != 0) --groups;
    const ReductionPlan plan = PlanReduction(topo, bytes, pooled, groups);

    std::uint32_t active = 0;
    std::uint32_t group_ranks = 0;
    const std::uint32_t width = ranks / groups;
    for (std::uint32_t lo = 0; lo < ranks; lo += width) {
      std::uint32_t in_group = 0;
      for (std::uint32_t r = lo; r < lo + width; ++r) {
        in_group += bytes[r] > 0 ? 1 : 0;
      }
      active += in_group;
      group_ranks = std::max(group_ranks, in_group);
    }
    EXPECT_EQ(plan.active_ranks, active);
    EXPECT_EQ(plan.group_ranks, group_ranks);
    EXPECT_EQ(plan.levels,
              Log2Levels(group_ranks) + (groups > 1 ? 1u : 0u));
  }
}

}  // namespace
}  // namespace updlrm::pim
