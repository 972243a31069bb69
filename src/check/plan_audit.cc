#include "check/plan_audit.h"

#include <string>
#include <vector>

namespace updlrm::check {

namespace {

std::string PlanTag(const partition::PartitionPlan& plan) {
  return std::string(partition::MethodShortName(plan.method)) + " plan (" +
         std::to_string(plan.geom.table.rows) + " rows x " +
         std::to_string(plan.geom.row_shards) + " bins, nc " +
         std::to_string(plan.geom.nc) + ")";
}

}  // namespace

void AuditPlan(const partition::PartitionPlan& plan,
               const PlanAuditLimits& limits, CheckReport* report) {
  const partition::GroupGeometry& geom = plan.geom;
  const std::uint64_t rows = geom.table.rows;
  const std::string tag = PlanTag(plan);

  // --- Tile shape: the §3.1 uniform cost model only covers even
  // Nc <= max_model_nc; a plan claiming that model with a wider or odd
  // tile was optimized with invalid physics.
  if (limits.claims_uniform_model &&
      (geom.nc > limits.max_model_nc || geom.nc % 2 != 0)) {
    report->AddViolation(
        Rule::kTileShape,
        tag + ": nc " + std::to_string(geom.nc) +
            " outside the uniform model's claim (even, <= " +
            std::to_string(limits.max_model_nc) + ")");
  }

  // --- Row coverage: every row of the table has exactly one home —
  // its bin's EMT region, or (exclusively) a cache list. row_bin is a
  // function row -> bin, so "non-overlapping" can only break through a
  // wrong size, an out-of-range bin, or a cached row that also claims
  // an EMT slot via an inconsistent item_list.
  if (plan.row_bin.size() != rows) {
    report->AddViolation(Rule::kPlanCoverage,
                         tag + ": row_bin covers " +
                             std::to_string(plan.row_bin.size()) + " of " +
                             std::to_string(rows) + " rows");
    return;  // per-row audits below index row_bin.
  }
  // The capacity audit re-buckets by bin, so it can only run once the
  // bin indices themselves are proven in range.
  bool capacity_auditable = true;
  for (std::uint64_t r = 0; r < rows; ++r) {
    if (plan.row_bin[r] >= geom.row_shards) {
      report->AddViolation(Rule::kPlanCoverage,
                           tag + ": row " + std::to_string(r) +
                               " assigned to bin " +
                               std::to_string(plan.row_bin[r]) +
                               " of " + std::to_string(geom.row_shards));
      capacity_auditable = false;
      break;  // one offender suffices; counts stay bounded.
    }
  }

  // --- Cache co-location and item/list consistency. Each list lives
  // in one bin; the reverse item_list map must agree with the lists so
  // routing reads the subset sum from the bin that stores it.
  const std::size_t num_lists = plan.cache.lists.size();
  if (plan.has_cache()) {
    if (plan.list_bin.size() != num_lists ||
        plan.item_list.size() != rows) {
      report->AddViolation(
          Rule::kCacheColocation,
          tag + ": list_bin/item_list sized " +
              std::to_string(plan.list_bin.size()) + "/" +
              std::to_string(plan.item_list.size()) + ", want " +
              std::to_string(num_lists) + "/" + std::to_string(rows));
      return;
    }
    std::vector<std::int32_t> derived(rows, -1);
    for (std::size_t l = 0; l < num_lists; ++l) {
      if (plan.list_bin[l] < 0 ||
          static_cast<std::uint32_t>(plan.list_bin[l]) >=
              geom.row_shards) {
        report->AddViolation(Rule::kCacheColocation,
                             tag + ": cache list " + std::to_string(l) +
                                 " placed in bin " +
                                 std::to_string(plan.list_bin[l]));
        capacity_auditable = false;
        continue;
      }
      for (const std::uint32_t item : plan.cache.lists[l].items) {
        if (item >= rows) {
          report->AddViolation(Rule::kCacheColocation,
                               tag + ": cache list " + std::to_string(l) +
                                   " references row " +
                                   std::to_string(item) +
                                   " outside the table");
          continue;
        }
        if (derived[item] != -1) {
          report->AddViolation(
              Rule::kPlanCoverage,
              tag + ": row " + std::to_string(item) +
                  " appears in cache lists " +
                  std::to_string(derived[item]) + " and " +
                  std::to_string(l) + " (two homes)");
        }
        derived[item] = static_cast<std::int32_t>(l);
      }
    }
    for (std::uint64_t r = 0; r < rows; ++r) {
      if (plan.item_list[r] != derived[r]) {
        report->AddViolation(
            Rule::kCacheColocation,
            tag + ": item_list[" + std::to_string(r) + "] = " +
                std::to_string(plan.item_list[r]) +
                " disagrees with the lists (want " +
                std::to_string(derived[r]) + ")");
        break;
      }
    }
  }

  // --- Capacity: every bin's EMT tile and cache block fit the regions
  // placement carved out of the 64 MB bank.
  if (!capacity_auditable) return;
  const std::uint64_t row_bytes = geom.row_bytes();
  const std::vector<std::uint64_t> emt_rows = plan.EmtRowsPerBin();
  const std::vector<std::uint64_t> cache_bytes = plan.CacheBytesPerBin();
  for (std::uint32_t b = 0; b < geom.row_shards; ++b) {
    const std::uint64_t emt = emt_rows[b] * row_bytes;
    if (emt > limits.emt_bytes) {
      report->AddViolation(Rule::kPlanCapacity,
                           tag + ": bin " + std::to_string(b) + " needs " +
                               std::to_string(emt) + " EMT bytes of " +
                               std::to_string(limits.emt_bytes));
    }
    if (cache_bytes[b] > limits.cache_bytes) {
      report->AddViolation(Rule::kPlanCapacity,
                           tag + ": bin " + std::to_string(b) + " needs " +
                               std::to_string(cache_bytes[b]) +
                               " cache bytes of " +
                               std::to_string(limits.cache_bytes));
    }
  }
}

void AuditWramCapacity(std::uint32_t bin, std::uint32_t pinned_rows,
                       std::uint32_t max_rows, CheckReport* report) {
  if (pinned_rows <= max_rows) return;
  report->AddViolation(Rule::kWramCapacity,
                       "bin " + std::to_string(bin) + " pins " +
                           std::to_string(pinned_rows) +
                           " WRAM rows; capacity clamp is " +
                           std::to_string(max_rows));
}

}  // namespace updlrm::check
