#include "partition/tiering.h"

#include <algorithm>
#include <numeric>

namespace updlrm::partition {

Status TieringOptions::Validate() const {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (num_shards >= kHostDramShard) {
    return Status::InvalidArgument("num_shards collides with the DRAM owner");
  }
  if (dram_epsilon < 0.0 || dram_epsilon > 1.0) {
    return Status::InvalidArgument("dram_epsilon must be in [0, 1]");
  }
  return Status::Ok();
}

std::uint32_t ShardGroups::num_groups() const {
  return std::gcd(num_tables, num_shards);
}

IdRange ShardGroups::TablesOfShard(std::uint32_t shard) const {
  const std::uint32_t tables = num_tables / num_groups();
  const std::uint32_t g = shard / (num_shards / num_groups());
  return {g * tables, (g + 1) * tables};
}

IdRange ShardGroups::ShardsOfTable(std::uint32_t table) const {
  const std::uint32_t shards = num_shards / num_groups();
  const std::uint32_t g = table / (num_tables / num_groups());
  return {g * shards, (g + 1) * shards};
}

double TierShardingPlan::MaxShardImbalance() const {
  double worst = 1.0;
  for (std::uint32_t t = 0; t < tables.size(); ++t) {
    const IdRange shards = groups.ShardsOfTable(t);
    std::uint64_t pim_mass = 0;
    std::uint64_t max_mass = 0;
    for (std::uint32_t s = shards.begin; s < shards.end; ++s) {
      const std::uint64_t m = tables[t].shard_accesses[s];
      pim_mass += m;
      max_mass = std::max(max_mass, m);
    }
    if (pim_mass == 0) continue;
    const double mean =
        static_cast<double>(pim_mass) / static_cast<double>(shards.size());
    worst = std::max(worst, static_cast<double>(max_mass) / mean);
  }
  return worst;
}

namespace {

TableTierPlan PlanTable(const trace::TableProfile& profile,
                        const TieringOptions& options, IdRange group) {
  const std::size_t rows = profile.freq.size();
  const std::uint32_t shards = options.num_shards;
  TableTierPlan plan;
  plan.owner.assign(rows, kHostDramShard);
  plan.local.assign(rows, 0);
  plan.shard_rows.assign(shards, 0);
  plan.shard_accesses.assign(shards, 0);
  for (const std::uint64_t f : profile.freq) plan.total_accesses += f;

  // Tier split: walk the access CDF from the cold end. Zero-frequency
  // rows spill for free unless pinned; accessed rows spill while the
  // cumulative spilled mass stays within epsilon of the total. by_freq
  // is descending with ties by ascending id, so the reverse walk (and
  // therefore the whole plan) is deterministic.
  std::vector<bool> spilled(rows, false);
  const double budget =
      options.dram_epsilon * static_cast<double>(plan.total_accesses);
  std::uint64_t spilled_mass = 0;
  for (std::size_t i = profile.by_freq.size(); i-- > 0;) {
    const std::uint32_t r = profile.by_freq[i];
    const std::uint64_t f = profile.freq[r];
    if (f == 0) {
      if (!options.keep_zero_freq_on_pim) spilled[r] = true;
      continue;
    }
    if (static_cast<double>(spilled_mass + f) > budget) break;
    spilled_mass += f;
    spilled[r] = true;
  }

  // Shard the PIM tier over the table's group: hottest rows first, each
  // onto the least-loaded shard (by access mass, then row count, then
  // shard id), so the group's shards receive near-equal slices of the
  // access mass. A full shard (row capacity) drops out; when every
  // shard of the group is full the row spills to DRAM — capacity is
  // physical, epsilon is a quality target.
  for (const std::uint32_t r : profile.by_freq) {
    if (spilled[r]) continue;
    std::uint32_t best = kHostDramShard;
    for (std::uint32_t s = group.begin; s < group.end; ++s) {
      if (options.pim_capacity_rows_per_shard > 0 &&
          plan.shard_rows[s] >= options.pim_capacity_rows_per_shard) {
        continue;
      }
      if (best == kHostDramShard ||
          plan.shard_accesses[s] < plan.shard_accesses[best] ||
          (plan.shard_accesses[s] == plan.shard_accesses[best] &&
           plan.shard_rows[s] < plan.shard_rows[best])) {
        best = s;
      }
    }
    if (best == kHostDramShard) {
      spilled[r] = true;
      continue;
    }
    plan.owner[r] = best;
    ++plan.shard_rows[best];
    plan.shard_accesses[best] += profile.freq[r];
  }

  // Dense local ids in ascending global row order per owner (the DRAM
  // tier's ids index the reference table's rows only informationally).
  std::vector<std::uint32_t> next(shards + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint32_t o = plan.owner[r];
    if (o == kHostDramShard) {
      plan.local[r] = next[shards]++;
      ++plan.dram_rows;
      plan.dram_accesses += profile.freq[r];
    } else {
      plan.local[r] = next[o]++;
    }
  }
  return plan;
}

}  // namespace

Result<TierShardingPlan> BuildTierShardingPlan(
    std::span<const trace::TableProfile> profiles, TieringOptions options) {
  UPDLRM_RETURN_IF_ERROR(options.Validate());
  if (profiles.empty()) {
    return Status::InvalidArgument("tiering needs at least one profile");
  }
  TierShardingPlan plan;
  plan.options = options;
  plan.groups = {static_cast<std::uint32_t>(profiles.size()),
                 options.num_shards};
  plan.tables.reserve(profiles.size());
  for (std::uint32_t t = 0; t < profiles.size(); ++t) {
    const trace::TableProfile& p = profiles[t];
    if (p.freq.size() != p.by_freq.size()) {
      return Status::InvalidArgument(
          "profile freq / by_freq size mismatch");
    }
    plan.tables.push_back(
        PlanTable(p, options, plan.groups.ShardsOfTable(t)));
  }
  return plan;
}

}  // namespace updlrm::partition
