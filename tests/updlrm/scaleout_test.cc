// ShardedEngine tests: the degenerate 1-shard fleet is the flat engine
// bit for bit, sharded + tiered serving stays bit-exact vs the flat
// reference for every table-group shape, shard routing audits clean,
// accessed rows leave PIM only when a shard is full, the aggregate
// splits exactly into its parts with the merge priced per table-group
// shape, the dense stages are priced for the whole model, and remote
// shards pay cross-host ingress on pushes only.
#include "updlrm/scaleout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "partition/tiering.h"
#include "pim/reduction.h"
#include "pim/topology.h"
#include "trace/generator.h"
#include "trace/profiler.h"
#include "updlrm/engine.h"

namespace updlrm::core {
namespace {

struct Fixture {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(0, 1, 0);
};

Fixture MakeFixture(bool functional = true, std::uint64_t seed = 47,
                    std::uint32_t num_tables = 2) {
  Fixture f;
  f.config.num_tables = num_tables;
  f.config.rows_per_table = 600;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  f.config.seed = seed;
  if (functional) {
    auto model = dlrm::DlrmModel::Create(f.config);
    UPDLRM_CHECK(model.ok());
    f.model = std::make_unique<dlrm::DlrmModel>(std::move(model).value());
  }

  trace::DatasetSpec spec;
  spec.name = "scaleout";
  spec.num_items = 600;
  spec.avg_reduction = 12.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = seed;
  trace::TraceGeneratorOptions options;
  options.num_samples = 96;
  options.num_tables = num_tables;
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  f.trace = std::move(t).value();
  f.dense = dlrm::DenseInputs::Generate(96, 5, seed + 1);
  return f;
}

pim::DpuSystemConfig ShardSystem(bool functional) {
  pim::DpuSystemConfig sys;
  sys.num_dpus = 8;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = functional;
  return sys;
}

// Per-shard PIM row capacity well below the fixture's accessed rows, so
// the planner must spill accessed rows to host DRAM.
constexpr std::uint64_t kForcedSpillCapacity = 100;

std::vector<trace::TableProfile> Profiles(const trace::Trace& trace) {
  std::vector<trace::TableProfile> profiles;
  for (std::uint32_t t = 0; t < trace.num_tables(); ++t) {
    profiles.push_back(
        trace::ProfileTable(trace.tables[t], trace.ItemsInTable(t)));
  }
  return profiles;
}

EngineOptions SmallOptions() {
  EngineOptions options;
  options.method = partition::Method::kCacheAware;
  options.nc = 4;
  options.batch_size = 16;
  options.reserved_io_bytes = 128 * kKiB;
  options.grace.num_hot_items = 96;
  return options;
}

TEST(ScaleoutTest, DegenerateSingleShardMatchesFlatEngine) {
  Fixture f = MakeFixture();
  auto system = pim::DpuSystem::Create(ShardSystem(true));
  ASSERT_TRUE(system.ok());
  auto flat = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                   system->get(), SmallOptions());
  ASSERT_TRUE(flat.ok());

  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(true);
  // Identity plan: 1 shard, no DRAM spill, zero-frequency rows pinned.
  fleet.tiering.keep_zero_freq_on_pim = true;
  auto sharded = ShardedEngine::Create(f.model.get(), f.config, f.trace,
                                       fleet, SmallOptions());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ((*sharded)->num_shards(), 1u);
  EXPECT_EQ((*sharded)->tier_plan().tables[0].dram_rows, 0u);

  auto want = (*flat)->RunBatch({0, 32}, &f.dense);
  auto got = (*sharded)->RunBatch({0, 32}, &f.dense);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(want->pooled, got->pooled);
  EXPECT_EQ(want->ctr, got->ctr);
  EXPECT_EQ(want->stages.cpu_to_dpu, got->stages.cpu_to_dpu);
  EXPECT_EQ(want->stages.dpu_lookup, got->stages.dpu_lookup);
  EXPECT_EQ(want->stages.dpu_to_cpu, got->stages.dpu_to_cpu);
  EXPECT_EQ(want->stages.cpu_aggregate, got->stages.cpu_aggregate);
  EXPECT_EQ(want->stages.lookup_fixed, got->stages.lookup_fixed);
  EXPECT_EQ(want->stages.pull_fixed, got->stages.pull_fixed);
  EXPECT_GT(got->stages.lookup_fixed, 0.0);
  EXPECT_GT(got->stages.pull_fixed, 0.0);
  EXPECT_EQ(want->bottom_mlp, got->bottom_mlp);
  EXPECT_EQ(want->interaction_top, got->interaction_top);
  EXPECT_EQ(want->total, got->total);
  EXPECT_EQ(want->partial_bytes, got->partial_bytes);
}

TEST(ScaleoutTest, ShardedTieredStaysBitExactVsFlat) {
  Fixture f = MakeFixture();
  auto system = pim::DpuSystem::Create(ShardSystem(true));
  ASSERT_TRUE(system.ok());
  auto flat = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                   system->get(), SmallOptions());
  ASSERT_TRUE(flat.ok());

  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(true);
  fleet.tiering.num_shards = 2;
  // Full shards force accessed rows into host DRAM, so the DRAM fold
  // path below really runs.
  fleet.tiering.pim_capacity_rows_per_shard = kForcedSpillCapacity;
  EngineOptions options = SmallOptions();
  options.check_mode = true;
  auto sharded =
      ShardedEngine::Create(f.model.get(), f.config, f.trace, fleet, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  // The tiering actually split something (otherwise this test is vacuous).
  std::uint64_t dram_rows = 0;
  for (const auto& t : (*sharded)->tier_plan().tables) dram_rows += t.dram_rows;
  EXPECT_GT(dram_rows, 0u);

  auto want = (*flat)->RunBatch({0, 96}, &f.dense);
  auto got = (*sharded)->RunBatch({0, 96}, &f.dense);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Zero-frequency rows alone fill the DRAM tier; the batch must also
  // have gathered accessed rows from it.
  EXPECT_GT(got->aggregate_parts.dram_gather, 0.0);
  // Cross-shard + DRAM-tier merge happens in int64 lanes: pooled and
  // CTR outputs are bit-identical to the flat engine over the whole
  // model, even though rows moved tiers and shards.
  EXPECT_EQ(want->pooled, got->pooled);
  EXPECT_EQ(want->ctr, got->ctr);
  EXPECT_EQ((*sharded)->check_violations(), 0u)
      << (*sharded)->fleet_check_report().ToString();
}

// Table-group shapes: shards dividing tables (whole tables per shard),
// tables dividing shards (each table split over a shard pair), and
// coprime counts (every table over every shard, the row-wise layout).
struct GroupShape {
  std::uint32_t tables;
  std::uint32_t shards;
};

class ScaleoutShapeTest : public ::testing::TestWithParam<GroupShape> {};

TEST_P(ScaleoutShapeTest, PooledAndCtrBitExactVsFlat) {
  const GroupShape shape = GetParam();
  Fixture f = MakeFixture(/*functional=*/true, 47, shape.tables);
  // The flat reference needs a bin per table and column shard: 8 DPUs
  // hold 4 tables at nc = 4.
  pim::DpuSystemConfig flat_system = ShardSystem(true);
  flat_system.num_dpus *= std::max(1u, shape.tables / 4);
  auto system = pim::DpuSystem::Create(flat_system);
  ASSERT_TRUE(system.ok());
  auto flat = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                   system->get(), SmallOptions());
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();

  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(true);
  fleet.tiering.num_shards = shape.shards;
  EngineOptions options = SmallOptions();
  options.check_mode = true;
  auto sharded =
      ShardedEngine::Create(f.model.get(), f.config, f.trace, fleet, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const partition::ShardGroups& groups = (*sharded)->tier_plan().groups;
  for (std::uint32_t s = 0; s < shape.shards; ++s) {
    EXPECT_EQ((*sharded)->shard(s).config().num_tables,
              groups.TablesOfShard(s).size());
  }

  for (const trace::BatchRange& range :
       trace::MakeBatches(f.trace.num_samples(), 32)) {
    auto want = (*flat)->RunBatch(range, &f.dense);
    auto got = (*sharded)->RunBatch(range, &f.dense);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(want->pooled, got->pooled);
    EXPECT_EQ(want->ctr, got->ctr);
  }
  EXPECT_EQ((*sharded)->check_violations(), 0u)
      << (*sharded)->fleet_check_report().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Groups, ScaleoutShapeTest,
    ::testing::Values(GroupShape{4, 2}, GroupShape{2, 4}, GroupShape{2, 3},
                      GroupShape{8, 16}),
    [](const ::testing::TestParamInfo<GroupShape>& info) {
      return std::to_string(info.param.tables) + "Tables" +
             std::to_string(info.param.shards) + "Shards";
    });

// Runs every batch of 16 and checks that the host aggregate splits
// exactly into its parts, that the merge has `levels` levels and costs
// `merge(batch)`, that every batch prices a DRAM-tier gather when
// `expect_dram`, and that RunAll sums the per-batch parts.
template <typename MergeFn>
void ExpectAggregatePartsCompose(ShardedEngine& sharded,
                                 const trace::Trace& trace,
                                 std::uint32_t levels, bool expect_dram,
                                 MergeFn merge) {
  AggregateParts summed;
  for (const trace::BatchRange& range :
       trace::MakeBatches(trace.num_samples(), 16)) {
    auto batch = sharded.RunBatch(range, nullptr);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    const AggregateParts& p = batch->aggregate_parts;
    EXPECT_GT(p.shard_reduce, 0.0);
    EXPECT_GT(p.merge_tree, 0.0);
    if (expect_dram) {
      EXPECT_GT(p.dram_gather, 0.0);
    }
    EXPECT_EQ(std::max(p.shard_reduce, p.dram_gather) + p.merge_tree,
              batch->stages.cpu_aggregate);
    ASSERT_EQ(batch->reduction.levels, levels);
    EXPECT_EQ(p.merge_tree, merge(range.size()));
    summed += p;
  }
  auto report = sharded.RunAll(nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->aggregate_parts.shard_reduce, summed.shard_reduce);
  EXPECT_EQ(report->aggregate_parts.dram_gather, summed.dram_gather);
  EXPECT_EQ(report->aggregate_parts.merge_tree, summed.merge_tree);
}

TEST(ScaleoutTest, AggregatePartsComposeExactly) {
  // 4 tables over 4 shards (G = S): one table per shard, so nothing
  // sums across shards. The merge is one gather level in which shards
  // 1..3 send their one-table slices over the shared cross-rank link.
  Fixture f = MakeFixture(/*functional=*/true, 47, /*num_tables=*/4);
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(true);
  fleet.tiering.num_shards = 4;
  fleet.tiering.pim_capacity_rows_per_shard = kForcedSpillCapacity;
  auto sharded = ShardedEngine::Create(f.model.get(), f.config, f.trace,
                                       fleet, SmallOptions());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  const pim::FleetTopology shard_topo(fleet.fleet_topology, 4);
  const std::uint64_t dim = f.config.embedding_dim;
  ExpectAggregatePartsCompose(**sharded, f.trace, 1, /*expect_dram=*/true,
                              [&](std::size_t b) {
    return shard_topo.HopTime(pim::TransferHop::kCrossRank,
                              3 * b * dim * sizeof(std::int64_t));
  });
}

TEST(ScaleoutTest, TableGroupMergeSumsInGroupThenGathers) {
  // 8 tables over 16 shards (G = 8), 4 shards per host: each table
  // splits over a shard pair, which sums its slice in one cross-rank
  // level; then group 1 (on the front-end host) and groups 2..7
  // (remote) send one-table slices, each class over its own link.
  Fixture f = MakeFixture(/*functional=*/false, 47, /*num_tables=*/8);
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(false);
  fleet.tiering.num_shards = 16;
  fleet.fleet_topology.ranks_per_host = 4;
  EngineOptions options = SmallOptions();
  options.check_mode = true;
  auto sharded =
      ShardedEngine::Create(nullptr, f.config, f.trace, fleet, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ((*sharded)->tier_plan().groups.num_groups(), 8u);

  const pim::FleetTopology shard_topo(fleet.fleet_topology, 16);
  const std::uint64_t dim = f.config.embedding_dim;
  ExpectAggregatePartsCompose(**sharded, f.trace, 2, /*expect_dram=*/false,
                              [&](std::size_t b) {
    const std::uint64_t slice = b * dim * sizeof(std::int64_t);
    return shard_topo.HopTime(pim::TransferHop::kCrossRank, slice) +
           std::max(shard_topo.HopTime(pim::TransferHop::kCrossRank, slice),
                    shard_topo.HopTime(pim::TransferHop::kCrossHost,
                                       6 * slice));
  });
  EXPECT_EQ((*sharded)->check_violations(), 0u)
      << (*sharded)->fleet_check_report().ToString();
}

TEST(ScaleoutTest, RowWisePlanKeepsTheAllShardTree) {
  // 2 tables over 3 shards (G = 1): every shard holds every table, so
  // the merge is the all-shard tree, ceil(log2(3)) = 2 levels, each
  // moving the full pooled buffer over its pairing distance's hop.
  Fixture f = MakeFixture(/*functional=*/false);
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(false);
  fleet.tiering.num_shards = 3;
  fleet.fleet_topology.ranks_per_host = 2;
  EngineOptions options = SmallOptions();
  options.check_mode = true;
  auto sharded =
      ShardedEngine::Create(nullptr, f.config, f.trace, fleet, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  const pim::FleetTopology shard_topo(fleet.fleet_topology, 3);
  const std::uint64_t pooled_per_sample =
      f.config.num_tables * f.config.embedding_dim * sizeof(std::int64_t);
  ExpectAggregatePartsCompose(**sharded, f.trace, 2, /*expect_dram=*/false,
                              [&](std::size_t b) {
    Nanos tree = 0.0;
    for (std::uint32_t l = 0; l < 2; ++l) {
      tree += shard_topo.HopTime(pim::MergeLevelHop(shard_topo, 3, l),
                                 b * pooled_per_sample);
    }
    return tree;
  });
  EXPECT_EQ((*sharded)->check_violations(), 0u)
      << (*sharded)->fleet_check_report().ToString();
}

TEST(ScaleoutTest, DenseStagesPricedForTheWholeModel) {
  // Each shard engine serves 1 of the 4 tables; the fleet's interaction
  // and MLPs still run once over all 4, exactly as the flat engine's.
  Fixture f = MakeFixture(/*functional=*/true, 47, /*num_tables=*/4);
  auto system = pim::DpuSystem::Create(ShardSystem(true));
  ASSERT_TRUE(system.ok());
  auto flat = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                   system->get(), SmallOptions());
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(true);
  fleet.tiering.num_shards = 4;
  auto sharded = ShardedEngine::Create(f.model.get(), f.config, f.trace,
                                       fleet, SmallOptions());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ((*sharded)->shard(0).config().num_tables, 1u);

  auto want = (*flat)->RunBatch({0, 32}, &f.dense);
  auto got = (*sharded)->RunBatch({0, 32}, &f.dense);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->interaction_top, want->interaction_top);
  EXPECT_EQ(got->bottom_mlp, want->bottom_mlp);
  EXPECT_EQ(got->total,
            std::max(got->bottom_mlp, got->stages.EmbeddingTotal()) +
                got->interaction_top);
}

TEST(ScaleoutTest, UnboundedShardsKeepAccessedRowsOnPim) {
  Fixture f = MakeFixture(/*functional=*/false);
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(false);
  fleet.tiering.num_shards = 2;
  fleet.tiering.dram_epsilon = 0.05;  // not applied by the sharded engine
  EngineOptions options = SmallOptions();
  options.check_mode = true;
  auto sharded =
      ShardedEngine::Create(nullptr, f.config, f.trace, fleet, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  const partition::TierShardingPlan& plan = (*sharded)->tier_plan();
  EXPECT_EQ(plan.options.dram_epsilon, 0.0);  // the budget used
  for (const partition::TableTierPlan& t : plan.tables) {
    EXPECT_EQ(t.dram_accesses, 0u);
    EXPECT_GT(t.dram_rows, 0u);  // zero-frequency rows still spill
  }
  auto batch = (*sharded)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->aggregate_parts.dram_gather, 0.0);
  EXPECT_EQ((*sharded)->check_violations(), 0u)
      << (*sharded)->fleet_check_report().ToString();
}

TEST(ScaleoutTest, CapacityForcedSpillExceedsEpsilonAndAuditsClean) {
  Fixture f = MakeFixture(/*functional=*/false);
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(false);
  fleet.tiering.num_shards = 2;
  fleet.tiering.dram_epsilon = 0.02;
  fleet.tiering.pim_capacity_rows_per_shard = kForcedSpillCapacity;
  EngineOptions options = SmallOptions();
  options.check_mode = true;
  auto sharded =
      ShardedEngine::Create(nullptr, f.config, f.trace, fleet, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  for (const partition::TableTierPlan& t : (*sharded)->tier_plan().tables) {
    EXPECT_GT(static_cast<double>(t.dram_accesses),
              fleet.tiering.dram_epsilon *
                  static_cast<double>(t.total_accesses));
    for (const std::uint64_t rows : t.shard_rows) {
      EXPECT_LE(rows, kForcedSpillCapacity);
    }
  }
  auto batch = (*sharded)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_GT(batch->aggregate_parts.dram_gather, 0.0);
  EXPECT_EQ((*sharded)->check_violations(), 0u)
      << (*sharded)->fleet_check_report().ToString();
}

TEST(ScaleoutTest, DramGatherWorkingSetCountsTouchedRowsOnly) {
  Fixture f = MakeFixture(/*functional=*/false);
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(false);
  fleet.tiering.num_shards = 2;
  fleet.tiering.pim_capacity_rows_per_shard = kForcedSpillCapacity;
  auto probe = ShardedEngine::Create(nullptr, f.config, f.trace, fleet,
                                     SmallOptions());
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const partition::TierShardingPlan& plan = (*probe)->tier_plan();
  const std::vector<trace::TableProfile> profiles = Profiles(f.trace);
  const std::uint32_t row_bytes = f.config.embedding_dim * 4;
  std::uint64_t dram_rows = 0;
  std::uint64_t touched_rows = 0;
  for (std::size_t t = 0; t < plan.tables.size(); ++t) {
    dram_rows += plan.tables[t].dram_rows;
    for (std::size_t r = 0; r < profiles[t].freq.size(); ++r) {
      if (plan.tables[t].owner[r] == partition::kHostDramShard &&
          profiles[t].freq[r] > 0) {
        ++touched_rows;
      }
    }
  }
  ASSERT_GT(touched_rows, 0u);
  ASSERT_LT(touched_rows, dram_rows);  // zero-frequency rows spilled too

  // An LLC that holds exactly the touched DRAM rows, not the whole tier:
  // the gather must run at LLC speed.
  EngineOptions options = SmallOptions();
  options.cpu.llc_bytes = touched_rows * row_bytes;
  auto sharded =
      ShardedEngine::Create(nullptr, f.config, f.trace, fleet, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto batch = (*sharded)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  std::uint64_t lookups = 0;
  for (std::size_t t = 0; t < plan.tables.size(); ++t) {
    for (std::size_t i = 0; i < 16; ++i) {
      for (const std::uint32_t r : f.trace.tables[t].Sample(i)) {
        if (plan.tables[t].owner[r] == partition::kHostDramShard) ++lookups;
      }
    }
  }
  ASSERT_GT(lookups, 0u);
  const host::CpuTimingModel cpu(options.cpu);
  EXPECT_EQ(batch->aggregate_parts.dram_gather,
            cpu.GatherTime(lookups, row_bytes, options.cpu.llc_bytes));
}

TEST(ScaleoutTest, RunAllMatchesBatchedFlatFunctional) {
  Fixture f = MakeFixture();
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(true);
  fleet.tiering.num_shards = 3;
  fleet.tiering.dram_epsilon = 0.02;
  auto sharded = ShardedEngine::Create(f.model.get(), f.config, f.trace,
                                       fleet, SmallOptions());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto report = (*sharded)->RunAll(&f.dense);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_samples, f.trace.num_samples());
  EXPECT_EQ(report->num_batches, f.trace.num_samples() / 16);
  EXPECT_GT(report->total, 0.0);
}

TEST(ScaleoutTest, TimingOnlyModeRuns) {
  Fixture f = MakeFixture(/*functional=*/false);
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(false);
  fleet.tiering.num_shards = 2;
  auto sharded = ShardedEngine::Create(nullptr, f.config, f.trace, fleet,
                                       SmallOptions());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_FALSE((*sharded)->functional());
  auto batch = (*sharded)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->pooled.empty());
  EXPECT_GT(batch->stages.EmbeddingTotal(), 0.0);
}

TEST(ScaleoutTest, RemoteShardsPayCrossHostIngress) {
  Fixture f = MakeFixture(/*functional=*/false);
  EngineOptions options = SmallOptions();

  ShardedEngineConfig local;
  local.shard_system = ShardSystem(false);
  local.tiering.num_shards = 2;  // both shards on the front-end host
  auto a = ShardedEngine::Create(nullptr, f.config, f.trace, local, options);
  ASSERT_TRUE(a.ok());

  ShardedEngineConfig spread = local;
  spread.fleet_topology.ranks_per_host = 1;  // shard 1 lands on host 1
  auto b = ShardedEngine::Create(nullptr, f.config, f.trace, spread, options);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  auto batch_a = (*a)->RunBatch({0, 16}, nullptr);
  auto batch_b = (*b)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(batch_a.ok());
  ASSERT_TRUE(batch_b.ok());
  // The remote shard's stage-1 push carries the front end's indices
  // over the network fabric, so the per-stage max goes up; its stage-3
  // pull lands on its own host and costs what a local pull does.
  EXPECT_GT(batch_b->stages.cpu_to_dpu, batch_a->stages.cpu_to_dpu);
  EXPECT_EQ(batch_b->stages.dpu_to_cpu, batch_a->stages.dpu_to_cpu);
  // That hop is the batch's ingress: zero on the single-host fleet; on
  // the spread one, within stage 1, and the bus part it leaves is at
  // least the single-host push (shard 0's push never crosses).
  EXPECT_EQ(batch_a->stages.ingress, 0.0);
  EXPECT_GT(batch_b->stages.ingress, 0.0);
  EXPECT_LE(batch_b->stages.ingress, batch_b->stages.cpu_to_dpu);
  EXPECT_GE(batch_b->stages.cpu_to_dpu - batch_b->stages.ingress,
            batch_a->stages.cpu_to_dpu - 1e-6);
}

TEST(ScaleoutTest, IngressSplitsStageOneAndLeavesOutputsBitExact) {
  // One host per shard, functional: every batch's ingress lies in
  // [0, cpu_to_dpu], the fleet sums it into the report but not into
  // the embedding total, and pooled outputs and CTRs are bit-identical
  // to the single-host fleet's and the flat engine's.
  Fixture f = MakeFixture();
  auto system = pim::DpuSystem::Create(ShardSystem(true));
  ASSERT_TRUE(system.ok());
  auto flat = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                   system->get(), SmallOptions());
  ASSERT_TRUE(flat.ok());
  ShardedEngineConfig local;
  local.shard_system = ShardSystem(true);
  local.tiering.num_shards = 2;
  ShardedEngineConfig spread = local;
  spread.fleet_topology.ranks_per_host = 1;
  auto a = ShardedEngine::Create(f.model.get(), f.config, f.trace, local,
                                 SmallOptions());
  auto b = ShardedEngine::Create(f.model.get(), f.config, f.trace, spread,
                                 SmallOptions());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  for (const std::size_t begin : {0u, 32u, 64u}) {
    const trace::BatchRange range{begin, begin + 32};
    auto want = (*flat)->RunBatch(range, &f.dense);
    auto got_a = (*a)->RunBatch(range, &f.dense);
    auto got_b = (*b)->RunBatch(range, &f.dense);
    ASSERT_TRUE(want.ok() && got_a.ok() && got_b.ok());
    EXPECT_EQ(want->stages.ingress, 0.0);
    EXPECT_EQ(got_a->stages.ingress, 0.0);
    EXPECT_GT(got_b->stages.ingress, 0.0) << begin;
    EXPECT_LE(got_b->stages.ingress, got_b->stages.cpu_to_dpu) << begin;
    EXPECT_EQ(got_b->pooled, want->pooled) << begin;
    EXPECT_EQ(got_b->pooled, got_a->pooled) << begin;
    EXPECT_EQ(got_b->ctr, want->ctr) << begin;
  }
  auto report = (*b)->RunAll(&f.dense);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->stages.ingress, 0.0);
  EXPECT_EQ(report->EmbeddingTotal(),
            report->stages.cpu_to_dpu + report->stages.dpu_lookup +
                report->stages.dpu_to_cpu + report->stages.cpu_aggregate);
}

TEST(ScaleoutTest, TwoHostFlatEngineChargesRemotePartialsIngress) {
  // A flat engine whose 2 ranks sit on 2 hosts reduces on rank 0's
  // host, so rank 1's partials first cross the fabric: one cross-host
  // hop of exactly rank 1's partial bytes in the flat stream's price.
  // An engine whose ranks share one (remote) host reduces where they
  // land.
  Fixture f = MakeFixture(/*functional=*/false);
  // Rank 1's (DPUs 8-15) pulled partial bytes of the last run's batch.
  std::uint64_t rank1_bytes = 0;
  auto run = [&](std::uint32_t ranks_per_host, std::uint32_t host_offset) {
    pim::DpuSystemConfig sys = ShardSystem(false);
    sys.num_dpus = 16;  // 2 ranks of 8
    sys.topology.ranks_per_host = ranks_per_host;
    sys.topology.host_offset = host_offset;
    auto system = pim::DpuSystem::Create(sys);
    UPDLRM_CHECK(system.ok());
    const EngineOptions options = SmallOptions();
    auto engine = UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                       system->get(), options);
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
    auto batch = (*engine)->RunBatch({0, 16}, nullptr);
    UPDLRM_CHECK(batch.ok());
    rank1_bytes = 0;
    for (std::uint32_t d = 8; d < 16; ++d) {
      rank1_bytes += (*system)->dpu(d).stats().samples * options.nc *
                     sizeof(std::int32_t);
    }
    return std::move(batch).value();
  };
  const BatchResult local = run(0, 0);
  const BatchResult remote = run(2, 1);
  const BatchResult split = run(1, 0);
  EXPECT_EQ(split.stages.dpu_to_cpu, local.stages.dpu_to_cpu);
  EXPECT_EQ(remote.stages.cpu_aggregate, local.stages.cpu_aggregate);

  const pim::FleetTopology topo(pim::FleetTopologyConfig{}, 2);
  const Nanos ingress =
      split.stages.cpu_aggregate - local.stages.cpu_aggregate;
  EXPECT_GT(ingress, topo.config().cross_host_latency_ns);
  EXPECT_LT(ingress, topo.HopTime(pim::TransferHop::kCrossHost,
                                  local.partial_bytes));
  EXPECT_NEAR(ingress,
              topo.HopTime(pim::TransferHop::kCrossHost, rank1_bytes),
              1e-6);
}

TEST(ScaleoutTest, MisalignedShardHostBoundaryRejected) {
  Fixture f = MakeFixture(/*functional=*/false);
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(false);
  fleet.shard_system.num_dpus = 16;  // 2 ranks per shard
  fleet.shard_system.dpus_per_rank = 8;
  fleet.tiering.num_shards = 2;
  fleet.fleet_topology.ranks_per_host = 3;  // 2 does not divide 3
  EXPECT_FALSE(fleet.Validate().ok());
}

}  // namespace
}  // namespace updlrm::core
