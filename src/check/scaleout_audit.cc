#include "check/scaleout_audit.h"

#include <string>
#include <vector>

namespace updlrm::check {

namespace {

std::string TablePrefix(std::uint32_t table) {
  return "table " + std::to_string(table) + ": ";
}

}  // namespace

void AuditShardCoverage(std::uint32_t table,
                        const partition::TableTierPlan& plan,
                        const partition::ShardGroups& groups,
                        CheckReport* report) {
  const std::uint32_t num_shards = groups.num_shards;
  const partition::IdRange group = groups.ShardsOfTable(table);
  const std::size_t rows = plan.owner.size();
  if (plan.local.size() != rows) {
    report->AddViolation(Rule::kShardCoverage,
                         TablePrefix(table) + "owner/local size mismatch");
    return;
  }
  if (plan.shard_rows.size() != num_shards ||
      plan.shard_accesses.size() != num_shards) {
    report->AddViolation(
        Rule::kShardCoverage,
        TablePrefix(table) + "per-shard rollup size != num_shards");
    return;
  }
  // Each owner's local ids must be exactly 0..count-1 in ascending
  // global row order — the dense remap the sub-model extraction relies
  // on. A skipped or repeated local id means a row with no backing
  // sub-table row (or two rows sharing one).
  std::vector<std::uint64_t> next(static_cast<std::size_t>(num_shards) + 1,
                                  0);
  std::uint64_t dram_rows = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint32_t o = plan.owner[r];
    const bool dram = o == partition::kHostDramShard;
    if (!dram && o >= num_shards) {
      report->AddViolation(Rule::kShardCoverage,
                           TablePrefix(table) + "row " + std::to_string(r) +
                               " owned by nonexistent shard " +
                               std::to_string(o));
      return;
    }
    if (!dram && !group.contains(o)) {
      report->AddViolation(Rule::kShardCoverage,
                           TablePrefix(table) + "row " + std::to_string(r) +
                               " owned by shard " + std::to_string(o) +
                               " outside the table's group [" +
                               std::to_string(group.begin) + ", " +
                               std::to_string(group.end) + ")");
      return;
    }
    std::uint64_t& counter = next[dram ? num_shards : o];
    if (plan.local[r] != counter) {
      report->AddViolation(Rule::kShardCoverage,
                           TablePrefix(table) + "row " + std::to_string(r) +
                               " local id not dense");
      return;
    }
    ++counter;
    if (dram) ++dram_rows;
  }
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (next[s] != plan.shard_rows[s]) {
      report->AddViolation(
          Rule::kShardCoverage,
          TablePrefix(table) + "shard " + std::to_string(s) +
              " rollup row count disagrees with the owner map");
      return;
    }
  }
  if (dram_rows != plan.dram_rows) {
    report->AddViolation(Rule::kShardCoverage,
                         TablePrefix(table) +
                             "DRAM rollup row count disagrees with the "
                             "owner map");
  }
}

void AuditTierCapacity(std::uint32_t table,
                       const partition::TableTierPlan& plan,
                       const partition::TieringOptions& options,
                       CheckReport* report) {
  if (options.pim_capacity_rows_per_shard > 0) {
    for (std::size_t s = 0; s < plan.shard_rows.size(); ++s) {
      if (plan.shard_rows[s] > options.pim_capacity_rows_per_shard) {
        report->AddViolation(
            Rule::kTierCapacity,
            TablePrefix(table) + "shard " + std::to_string(s) + " holds " +
                std::to_string(plan.shard_rows[s]) +
                " rows, capacity is " +
                std::to_string(options.pim_capacity_rows_per_shard));
        return;
      }
    }
  }
  // Epsilon is a quality target, not a physical limit: DRAM access mass
  // above the budget is only legal when shard capacity forced the spill
  // (every shard full). Without a capacity limit, exceeding epsilon
  // means the CDF split itself is broken.
  if (options.pim_capacity_rows_per_shard == 0 &&
      static_cast<double>(plan.dram_accesses) >
          options.dram_epsilon * static_cast<double>(plan.total_accesses)) {
    report->AddViolation(
        Rule::kTierCapacity,
        TablePrefix(table) + "DRAM tier holds " +
            std::to_string(plan.dram_accesses) + " of " +
            std::to_string(plan.total_accesses) +
            " accesses, above the epsilon budget");
  }
}

void AuditReductionPlan(const pim::ReductionPlan& plan,
                        std::uint32_t num_ranks, std::uint32_t groups,
                        CheckReport* report) {
  if (plan.active_ranks > num_ranks) {
    report->AddViolation(Rule::kReductionShape,
                         "plan claims " + std::to_string(plan.active_ranks) +
                             " active ranks on a " +
                             std::to_string(num_ranks) + "-rank fleet");
    return;
  }
  if (plan.groups != groups || groups == 0 || num_ranks % groups != 0) {
    report->AddViolation(Rule::kReductionShape,
                         "plan spans " + std::to_string(plan.groups) +
                             " table groups; the " +
                             std::to_string(num_ranks) + "-rank fleet has " +
                             std::to_string(groups));
    return;
  }
  // Each group's tree spans at most its own ranks, and the groups
  // together hold every active rank.
  if (plan.group_ranks > num_ranks / groups ||
      static_cast<std::uint64_t>(plan.group_ranks) * groups <
          plan.active_ranks) {
    report->AddViolation(
        Rule::kReductionShape,
        "in-group tree width " + std::to_string(plan.group_ranks) +
            " does not fit " + std::to_string(plan.active_ranks) +
            " active ranks in " + std::to_string(groups) + " groups of " +
            std::to_string(num_ranks / groups));
    return;
  }
  const std::uint32_t gather = groups > 1 ? 1 : 0;
  if (plan.levels != pim::Log2Levels(plan.group_ranks) + gather) {
    report->AddViolation(
        Rule::kReductionShape,
        "merge depth " + std::to_string(plan.levels) + " != ceil(log2(" +
            std::to_string(plan.group_ranks) + ")) + " +
            std::to_string(gather) + " gather level(s)");
  }
}

}  // namespace updlrm::check
