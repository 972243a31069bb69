// Auditors for the fleet scale-out layer (DESIGN.md §10): cross-shard
// row coverage, per-tier capacity clamps, and reduction-plan shape.
//
// Like the other static auditors, these re-derive the invariants
// independently of the planners that promise them and report through
// CheckReport instead of failing, so one audit pass surfaces every
// broken invariant at once.
#pragma once

#include <cstdint>

#include "check/report.h"
#include "partition/tiering.h"
#include "pim/reduction.h"

namespace updlrm::check {

/// Audits one table's tier/shard assignment: every row owned exactly
/// once by a legal owner (a shard of the table's group in `groups` or
/// the DRAM sentinel), local ids dense and ascending per owner, and the
/// per-shard row/access rollups consistent with the owner map. Fires
/// kShardCoverage.
void AuditShardCoverage(std::uint32_t table,
                        const partition::TableTierPlan& plan,
                        const partition::ShardGroups& groups,
                        CheckReport* report);

/// Audits the plan's per-tier capacity clamps: no shard exceeds the
/// PIM row capacity, and the DRAM tier's access mass stays within the
/// epsilon budget unless capacity overflow forced the spill. Fires
/// kTierCapacity.
void AuditTierCapacity(std::uint32_t table,
                       const partition::TableTierPlan& plan,
                       const partition::TieringOptions& options,
                       CheckReport* report);

/// Audits one batch's cross-shard merge plan over `num_ranks` shards
/// in `groups` table groups: the plan spans the fleet's groups, active
/// shards fit the fleet and the in-group tree fits a group, the depth
/// is ceil(log2(group_ranks)) plus one gather level when groups > 1.
/// Fires kReductionShape.
void AuditReductionPlan(const pim::ReductionPlan& plan,
                        std::uint32_t num_ranks, std::uint32_t groups,
                        CheckReport* report);

}  // namespace updlrm::check
