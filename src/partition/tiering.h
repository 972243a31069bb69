// Statistical memory tiering + table-group sharding (RecShard-style).
//
// Fleet-scale serving cannot hold every table replica in PIM memory,
// and per-row access frequencies are wildly skewed (Fig. 5: up to 340x
// between row blocks). This planner places tables on shards (rank
// groups), splits each table's rows by their access-CDF position into
// placement tiers, and spreads the PIM-resident rows across the
// table's shards:
//
//   * table groups — with G = gcd(num_tables, num_shards), group g owns
//     tables [g*T/G, (g+1)*T/G) and shards [g*S/G, (g+1)*S/G) (see
//     ShardGroups). A table's rows go only to its group's shards, so a
//     shard serves whole tables when S divides T, and each table spans
//     S/T shards when T divides S. G = 1 (one shard, or coprime counts)
//     deals every table over every shard: the row-wise layout;
//   * host-DRAM tier — the coldest tail of the access CDF (at most
//     `dram_epsilon` of the table's total access mass, always including
//     never-accessed rows) stays host-side; the serving layer answers
//     those lookups from the reference table at CPU gather cost. The
//     sharded engine hands this planner a zero epsilon (a DRAM gather
//     costs the host more than a PIM lookup), so there accessed rows
//     stay on PIM unless every shard of the table's group is full;
//   * PIM tier — every remaining row is assigned to exactly one shard
//     of its table's group by greedy least-loaded placement in
//     descending-frequency order, so each of those shards receives an
//     equal slice of the table's access mass (not just an equal row
//     count).
//
// The plan is pure metadata: owners + dense local row ids. The sharded
// engine (updlrm/scaleout.h) extracts each shard's tables and rows into
// a sub-model and remaps trace indices through `local`, and the
// partition-method machinery (U/NU/CA) then runs unchanged *within*
// each shard. Determinism: every step is a fixed-order scan over
// by_freq (descending frequency, ties by ascending row id), so the same
// profile always yields the same plan.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "trace/profiler.h"

namespace updlrm::partition {

/// Owner sentinel for rows tiered to host DRAM.
inline constexpr std::uint32_t kHostDramShard = 0xFFFFFFFFu;

/// Half-open id range [begin, end).
struct IdRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  std::uint32_t size() const { return end - begin; }
  bool contains(std::uint32_t id) const { return id >= begin && id < end; }
};

/// Table-group shard geometry: G = gcd(num_tables, num_shards) groups,
/// group g owning tables [g*T/G, (g+1)*T/G) and shards
/// [g*S/G, (g+1)*S/G). Every table of a group spans every shard of it.
struct ShardGroups {
  std::uint32_t num_tables = 1;
  std::uint32_t num_shards = 1;

  std::uint32_t num_groups() const;
  /// The tables shard `shard` serves (contiguous, ascending in shard).
  IdRange TablesOfShard(std::uint32_t shard) const;
  /// The shards table `table`'s PIM rows are dealt over.
  IdRange ShardsOfTable(std::uint32_t table) const;
};

struct TieringOptions {
  /// PIM shards (rank groups) the hot tier spreads over.
  std::uint32_t num_shards = 1;
  /// Max fraction of each table's total access mass allowed to spill
  /// into the host-DRAM tier (coldest rows first). 0 keeps only
  /// never-accessed rows host-side... and with keep_zero_freq_on_pim
  /// unset even those spill. The paper-faithful flat setup uses
  /// num_shards = 1, dram_epsilon = 0, pim_capacity_rows = 0: every row
  /// stays on the single shard and the plan is the identity.
  double dram_epsilon = 0.0;
  /// When true, rows with zero trace accesses stay PIM-resident (the
  /// trace may not cover future traffic); when false they join the
  /// DRAM tier for free (they carry no access mass).
  bool keep_zero_freq_on_pim = false;
  /// Hard per-shard row capacity per table (0 = unlimited). When the
  /// hot tier would overflow every shard of the table's group, the
  /// coldest overflow rows spill to
  /// host DRAM regardless of dram_epsilon — capacity is a physical
  /// limit, epsilon a quality target. Audited by check::kTierCapacity.
  std::uint64_t pim_capacity_rows_per_shard = 0;

  Status Validate() const;
};

/// One table's tier + shard assignment.
struct TableTierPlan {
  /// Per-row owner: a shard of the table's group, or kHostDramShard.
  std::vector<std::uint32_t> owner;
  /// Per-row dense local id within its owner, assigned in ascending
  /// global row id order (so a shard's sub-table preserves relative row
  /// order; the DRAM tier's locals index nothing and are informational).
  std::vector<std::uint32_t> local;
  /// Rows per shard (size == num_shards; zero outside the table's
  /// group).
  std::vector<std::uint64_t> shard_rows;
  /// Access mass per shard (size == num_shards; zero outside the
  /// table's group).
  std::vector<std::uint64_t> shard_accesses;
  std::uint64_t dram_rows = 0;
  std::uint64_t dram_accesses = 0;
  std::uint64_t total_accesses = 0;

  std::uint64_t num_rows() const { return owner.size(); }
};

/// Whole-model tiering plan: one TableTierPlan per table.
struct TierShardingPlan {
  TieringOptions options;
  ShardGroups groups;
  std::vector<TableTierPlan> tables;

  /// Largest per-shard access-mass imbalance across tables (max shard
  /// mass / mean mass over the table's group; 1.0 = perfectly even).
  double MaxShardImbalance() const;
};

/// Builds the plan from per-table access profiles (freq size gives each
/// table's row count; profiles.size() is the table count the groups
/// divide). Deterministic for a given (profiles, options).
Result<TierShardingPlan> BuildTierShardingPlan(
    std::span<const trace::TableProfile> profiles, TieringOptions options);

}  // namespace updlrm::partition
