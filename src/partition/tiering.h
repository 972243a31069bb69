// Statistical memory tiering + cross-rank sharding (RecShard-style).
//
// Fleet-scale serving cannot hold every table replica in PIM memory,
// and per-row access frequencies are wildly skewed (Fig. 5: up to 340x
// between row blocks). This planner splits each table's rows by their
// access-CDF position into placement tiers and spreads the PIM-resident
// rows across shards (rank groups):
//
//   * host-DRAM tier — the coldest tail of the access CDF (at most
//     `dram_epsilon` of the table's total access mass, always including
//     never-accessed rows) stays host-side; the serving layer answers
//     those lookups from the reference table at CPU gather cost. The
//     sharded engine hands this planner a zero epsilon (a DRAM gather
//     costs the host more than a PIM lookup), so there accessed rows
//     stay on PIM unless a shard is full;
//   * PIM tier — every remaining row is assigned to exactly one shard
//     by greedy least-loaded placement in descending-frequency order,
//     so each shard receives an equal slice of the access mass (not
//     just an equal row count);
//   * WRAM hint — the plan forwards a per-shard pinned-row budget to
//     the engine's existing WRAM tier (EngineOptions::wram_cache_rows),
//     which clamps it against the kernel's real WRAM headroom.
//
// The plan is pure metadata: owners + dense local row ids. The sharded
// engine (updlrm/scaleout.h) extracts each shard's rows into a
// sub-model and remaps trace indices through `local`, and the
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
  /// Hard per-shard row capacity (0 = unlimited). When the hot tier
  /// would overflow every shard, the coldest overflow rows spill to
  /// host DRAM regardless of dram_epsilon — capacity is a physical
  /// limit, epsilon a quality target. Audited by check::kTierCapacity.
  std::uint64_t pim_capacity_rows_per_shard = 0;
  /// Per-shard WRAM pinned-row budget forwarded to the engine (engine
  /// clamps against real WRAM headroom). 0 disables.
  std::uint32_t wram_rows = 0;

  Status Validate() const;
};

/// One table's tier + shard assignment.
struct TableTierPlan {
  /// Per-row owner: a shard id < num_shards, or kHostDramShard.
  std::vector<std::uint32_t> owner;
  /// Per-row dense local id within its owner, assigned in ascending
  /// global row id order (so a shard's sub-table preserves relative row
  /// order; the DRAM tier's locals index nothing and are informational).
  std::vector<std::uint32_t> local;
  /// Rows per shard (size == num_shards).
  std::vector<std::uint64_t> shard_rows;
  /// Access mass per shard (size == num_shards).
  std::vector<std::uint64_t> shard_accesses;
  std::uint64_t dram_rows = 0;
  std::uint64_t dram_accesses = 0;
  std::uint64_t total_accesses = 0;

  std::uint64_t num_rows() const { return owner.size(); }
};

/// Whole-model tiering plan: one TableTierPlan per table.
struct TierShardingPlan {
  TieringOptions options;
  std::vector<TableTierPlan> tables;

  /// Largest per-shard access-mass imbalance across tables
  /// (max shard mass / mean shard mass; 1.0 = perfectly even).
  double MaxShardImbalance() const;
};

/// Builds the plan from per-table access profiles (freq size gives each
/// table's row count). Deterministic for a given (profiles, options).
Result<TierShardingPlan> BuildTierShardingPlan(
    std::span<const trace::TableProfile> profiles, TieringOptions options);

}  // namespace updlrm::partition
