// Static auditor of partition plans and the derived per-batch plans.
//
// AuditPlan re-derives, independently of partition::PartitionPlan::
// Validate, the structural invariants the placement and routing layers
// rely on — exact non-overlapping row coverage, per-bin capacity, cache
// co-location, the §3.1 tile-shape claim — and reports violations
// through CheckReport instead of failing, so a single audit pass can
// surface every broken invariant at once. AuditWramCapacity covers the
// one per-bin plan the engine derives beyond the partition: the WRAM
// hot-row tier's capacity clamp.
#pragma once

#include <cstdint>

#include "check/report.h"
#include "partition/plan.h"

namespace updlrm::check {

/// Byte budgets the plan must fit, plus the tile-shape claim. The
/// engine fills these from the group's MramLayout (what placement
/// actually carved out), so the audit is against the real regions, not
/// the planner's own arithmetic.
struct PlanAuditLimits {
  /// Per-bin EMT-region bytes (uncached rows).
  std::uint64_t emt_bytes = 0;
  /// Per-bin cache-region bytes.
  std::uint64_t cache_bytes = 0;
  /// True when the plan's Nc came from the §3.1 uniform-model tile
  /// optimizer, which is only calibrated for even Nc <= this bound.
  bool claims_uniform_model = false;
  std::uint32_t max_model_nc = 8;
};

/// Audits one table's partition plan. Fires kPlanCoverage,
/// kPlanCapacity, kCacheColocation and kTileShape; a clean plan adds
/// nothing to `report`.
void AuditPlan(const partition::PartitionPlan& plan,
               const PlanAuditLimits& limits, CheckReport* report);

/// Audits one bin's pinned WRAM hot-row tier against the kernel's
/// capacity clamp (EmbeddingKernelCostModel::MaxWramCacheRows). Fires
/// kWramCapacity.
void AuditWramCapacity(std::uint32_t bin, std::uint32_t pinned_rows,
                       std::uint32_t max_rows, CheckReport* report);

}  // namespace updlrm::check
