// Statistical tiering / sharding planner tests: exact coverage,
// epsilon mass budget, capacity clamps, the 1-shard identity, plan
// determinism, and the table-group rule (whole tables, split tables,
// and the coprime row-wise case).
#include "partition/tiering.h"

#include <gtest/gtest.h>

#include <vector>

#include "trace/profiler.h"

namespace updlrm::partition {
namespace {

trace::TableProfile MakeProfile(std::vector<std::uint64_t> freq) {
  trace::TableProfile p;
  p.by_freq = trace::ItemsByFrequency(freq);
  p.freq = std::move(freq);
  return p;
}

TEST(TieringTest, ValidateRejectsBadOptions) {
  TieringOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = TieringOptions{};
  options.dram_epsilon = 1.5;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(TieringTest, SingleShardNoEpsilonIsIdentity) {
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({5, 0, 9, 1, 0, 3})};
  TieringOptions options;  // 1 shard, epsilon 0
  options.keep_zero_freq_on_pim = true;
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& t = plan->tables[0];
  EXPECT_EQ(t.dram_rows, 0u);
  EXPECT_EQ(t.shard_rows[0], 6u);
  for (std::uint32_t r = 0; r < 6; ++r) {
    EXPECT_EQ(t.owner[r], 0u);
    EXPECT_EQ(t.local[r], r);  // local ids == global ids: the flat case
  }
}

TEST(TieringTest, ZeroFreqRowsSpillForFree) {
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({5, 0, 9, 0})};
  auto plan = BuildTierShardingPlan(profiles, TieringOptions{});
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& t = plan->tables[0];
  EXPECT_EQ(t.owner[1], kHostDramShard);
  EXPECT_EQ(t.owner[3], kHostDramShard);
  EXPECT_EQ(t.dram_rows, 2u);
  EXPECT_EQ(t.dram_accesses, 0u);  // free: no access mass spilled
}

TEST(TieringTest, EpsilonSpillsColdestWithinBudget) {
  // total mass 100; epsilon 0.1 allows 10: rows with freq 1*8 and 2
  // (coldest first) fit exactly; the next-coldest (freq 10) must stay.
  std::vector<std::uint64_t> freq = {50, 10, 30, 2, 1, 1, 1, 1, 1, 1, 1, 1};
  const std::vector<trace::TableProfile> profiles = {MakeProfile(freq)};
  TieringOptions options;
  options.dram_epsilon = 0.1;
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& t = plan->tables[0];
  EXPECT_LE(t.dram_accesses, 10u);
  EXPECT_EQ(t.dram_accesses, 10u);  // 8x freq-1 + freq-2 == exactly 10
  EXPECT_EQ(t.owner[0], 0u);
  EXPECT_EQ(t.owner[1], 0u);
  EXPECT_EQ(t.owner[2], 0u);
}

TEST(TieringTest, GreedyShardingBalancesAccessMass) {
  // 4 equal-mass rows over 2 shards: 2 rows and half the mass each.
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({25, 25, 25, 25})};
  TieringOptions options;
  options.num_shards = 2;
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& t = plan->tables[0];
  EXPECT_EQ(t.shard_rows[0], 2u);
  EXPECT_EQ(t.shard_rows[1], 2u);
  EXPECT_EQ(t.shard_accesses[0], 50u);
  EXPECT_EQ(t.shard_accesses[1], 50u);
  EXPECT_DOUBLE_EQ(plan->MaxShardImbalance(), 1.0);
}

TEST(TieringTest, CapacityOverflowSpillsToDram) {
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({9, 8, 7, 6, 5})};
  TieringOptions options;
  options.num_shards = 2;
  options.pim_capacity_rows_per_shard = 2;  // room for 4 of 5 rows
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& t = plan->tables[0];
  EXPECT_EQ(t.shard_rows[0], 2u);
  EXPECT_EQ(t.shard_rows[1], 2u);
  EXPECT_EQ(t.dram_rows, 1u);
  // The *coldest* row is the one pushed out.
  EXPECT_EQ(t.owner[4], kHostDramShard);
}

TEST(TieringTest, LocalIdsDenseAscendingPerOwner) {
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({9, 1, 8, 2, 7, 3, 6, 4})};
  TieringOptions options;
  options.num_shards = 3;
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& t = plan->tables[0];
  std::vector<std::uint32_t> next(options.num_shards, 0);
  std::uint64_t covered = 0;
  for (std::size_t r = 0; r < t.owner.size(); ++r) {
    if (t.owner[r] == kHostDramShard) continue;
    ASSERT_LT(t.owner[r], options.num_shards);
    EXPECT_EQ(t.local[r], next[t.owner[r]]++);
    ++covered;
  }
  EXPECT_EQ(covered + t.dram_rows, t.num_rows());
}

TEST(TieringTest, PlanIsDeterministic) {
  std::vector<std::uint64_t> freq(257);
  for (std::size_t i = 0; i < freq.size(); ++i) {
    freq[i] = (i * 2654435761u) % 97;  // fixed pseudo-random skew
  }
  const std::vector<trace::TableProfile> profiles = {MakeProfile(freq),
                                                     MakeProfile(freq)};
  TieringOptions options;
  options.num_shards = 4;
  options.dram_epsilon = 0.05;
  auto a = BuildTierShardingPlan(profiles, options);
  auto b = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(a->tables[t].owner, b->tables[t].owner);
    EXPECT_EQ(a->tables[t].local, b->tables[t].local);
    EXPECT_EQ(a->tables[t].shard_rows, b->tables[t].shard_rows);
    EXPECT_EQ(a->tables[t].shard_accesses, b->tables[t].shard_accesses);
  }
  // Identical profiles produce identical per-table plans up to the
  // group: 2 tables over 4 shards put table 1 on shards 2-3, the shards
  // table 0 uses on 0-1 shifted by 2.
  EXPECT_EQ(a->tables[0].local, a->tables[1].local);
  for (std::size_t r = 0; r < freq.size(); ++r) {
    const std::uint32_t o = a->tables[0].owner[r];
    EXPECT_EQ(a->tables[1].owner[r], o == kHostDramShard ? o : o + 2);
  }
}

TEST(TieringTest, ShardGroupsFollowGcd) {
  const ShardGroups whole{8, 4};  // S | T: 2 whole tables per shard
  EXPECT_EQ(whole.num_groups(), 4u);
  EXPECT_EQ(whole.TablesOfShard(1).begin, 2u);
  EXPECT_EQ(whole.TablesOfShard(1).end, 4u);
  EXPECT_EQ(whole.ShardsOfTable(3).begin, 1u);
  EXPECT_EQ(whole.ShardsOfTable(3).end, 2u);
  const ShardGroups split{8, 16};  // T | S: each table over 2 shards
  EXPECT_EQ(split.ShardsOfTable(5).begin, 10u);
  EXPECT_EQ(split.ShardsOfTable(5).end, 12u);
  EXPECT_EQ(split.TablesOfShard(11).begin, 5u);
  EXPECT_EQ(split.TablesOfShard(11).end, 6u);
  const ShardGroups rowwise{2, 3};  // gcd 1: every table on every shard
  EXPECT_EQ(rowwise.num_groups(), 1u);
  EXPECT_EQ(rowwise.TablesOfShard(2).size(), 2u);
  EXPECT_EQ(rowwise.ShardsOfTable(1).size(), 3u);
}

TEST(TieringTest, ShardsDividingTablesServeWholeTables) {
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({5, 3, 1}), MakeProfile({4, 4, 0}),
      MakeProfile({2, 9, 6}), MakeProfile({7, 0, 1})};
  TieringOptions options;
  options.num_shards = 2;
  options.keep_zero_freq_on_pim = true;
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  for (std::uint32_t t = 0; t < 4; ++t) {
    const TableTierPlan& p = plan->tables[t];
    const std::uint32_t shard = t / 2;  // tables 0-1 on 0, 2-3 on 1
    for (std::uint32_t r = 0; r < 3; ++r) {
      EXPECT_EQ(p.owner[r], shard) << "table " << t;
      EXPECT_EQ(p.local[r], r) << "table " << t;  // the whole table
    }
    EXPECT_EQ(p.shard_rows[shard], 3u);
    EXPECT_EQ(p.shard_rows[1 - shard], 0u);
    EXPECT_EQ(p.shard_accesses[1 - shard], 0u);
  }
}

TEST(TieringTest, TablesDividingShardsSpanTheirGroup) {
  // 2 tables over 4 shards: table 0 on shards 0-1, table 1 on 2-3,
  // each dealt evenly by access mass within its group.
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({25, 25, 25, 25}), MakeProfile({40, 10, 30, 20})};
  TieringOptions options;
  options.num_shards = 4;
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& a = plan->tables[0];
  const TableTierPlan& b = plan->tables[1];
  EXPECT_EQ(a.shard_rows, (std::vector<std::uint64_t>{2, 2, 0, 0}));
  EXPECT_EQ(a.shard_accesses, (std::vector<std::uint64_t>{50, 50, 0, 0}));
  EXPECT_EQ(b.shard_rows, (std::vector<std::uint64_t>{0, 0, 2, 2}));
  EXPECT_EQ(b.shard_accesses, (std::vector<std::uint64_t>{0, 0, 50, 50}));
  // 40 -> 2, 30 -> 3, 20 -> 3, 10 -> 2.
  EXPECT_EQ(b.owner, (std::vector<std::uint32_t>{2, 2, 3, 3}));
  EXPECT_EQ(b.local, (std::vector<std::uint32_t>{0, 1, 0, 1}));
  EXPECT_DOUBLE_EQ(plan->MaxShardImbalance(), 1.0);
}

TEST(TieringTest, CoprimeCountsKeepTheRowWisePlan) {
  // gcd(2 tables, 3 shards) == 1: both tables deal over all 3 shards,
  // exactly as each table planned alone (the row-wise layout).
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({9, 1, 8, 2, 7, 3}), MakeProfile({1, 4, 0, 6, 2, 5})};
  TieringOptions options;
  options.num_shards = 3;
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  // Greedy by mass: 9 -> 0, 8 -> 1, 7 -> 2, 3 -> 2, 2 -> 1, 1 -> 0.
  EXPECT_EQ(plan->tables[0].owner,
            (std::vector<std::uint32_t>{0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(plan->tables[0].local,
            (std::vector<std::uint32_t>{0, 1, 0, 1, 0, 1}));
  for (std::uint32_t t = 0; t < 2; ++t) {
    auto alone = BuildTierShardingPlan(
        std::vector<trace::TableProfile>{profiles[t]}, options);
    ASSERT_TRUE(alone.ok());
    EXPECT_EQ(plan->tables[t].owner, alone->tables[0].owner);
    EXPECT_EQ(plan->tables[t].local, alone->tables[0].local);
    EXPECT_EQ(plan->tables[t].shard_rows, alone->tables[0].shard_rows);
  }
}

}  // namespace
}  // namespace updlrm::partition
