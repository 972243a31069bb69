#include "partition/uniform.h"

#include <array>
#include <cmath>

#include "pim/wire_format.h"

namespace updlrm::partition {

Result<PartitionPlan> UniformPartition(const GroupGeometry& geom) {
  PartitionPlan plan;
  plan.geom = geom;
  plan.method = Method::kUniform;
  const std::uint64_t nr = geom.UniformRowsPerBin();
  plan.row_bin.resize(geom.table.rows);
  for (std::uint64_t r = 0; r < geom.table.rows; ++r) {
    plan.row_bin[r] = static_cast<std::uint32_t>(r / nr);
  }
  return plan;
}

std::span<const std::uint32_t> DefaultNcCandidates() {
  static constexpr std::array<std::uint32_t, 4> kCandidates = {2, 4, 6, 8};
  return kCandidates;
}

TileCandidate PriceBalancedBatch(const pim::DpuSystem& system,
                                 std::uint64_t lookups_per_dpu,
                                 std::size_t samples, std::uint32_t row_bytes,
                                 bool packed_indices) {
  const pim::IndexWire wire =
      pim::ChooseWire(packed_indices, lookups_per_dpu);
  TileCandidate cand;

  // Stage 2: in-DPU lookup + reduction.
  const pim::EmbeddingKernelWork work{
      .num_lookups = lookups_per_dpu,
      .num_cache_reads = 0,
      .num_samples = samples,
      .row_bytes = row_bytes,
      .index_bytes = wire.id_bytes,
  };
  cand.stage2_ns = system.transfer().KernelLaunchOverhead() +
                   CyclesToNanos(system.kernel_cost().KernelCycles(work),
                                 system.config().dpu.clock_hz);

  // Stage 1: indices + one per-sample offset array to every DPU.
  cand.push_bytes = pim::PushBytes(wire, lookups_per_dpu, samples, 1);
  // Stage 3: one Nc-wide partial sum per sample from every DPU.
  const std::uint64_t pull_bytes =
      static_cast<std::uint64_t>(samples) * row_bytes;
  const std::vector<std::uint64_t> push(system.num_dpus(), cand.push_bytes);
  const std::vector<std::uint64_t> pull(system.num_dpus(), pull_bytes);
  cand.stage1_ns = system.transfer().PushTime(push, /*pad_to_max=*/true);
  cand.stage3_ns = system.transfer().PullTime(pull, /*pad_to_max=*/true);

  cand.total_ns = cand.stage1_ns + cand.stage2_ns + cand.stage3_ns;
  return cand;
}

bool ReplicasFit(std::uint32_t replicas, std::uint32_t dpus_per_table,
                 const pim::DpuSystem& system) {
  if (replicas == 1) return true;
  return replicas > 1 && system.num_ranks() % replicas == 0 &&
         system.num_dpus() % system.config().dpus_per_rank == 0 &&
         dpus_per_table % replicas == 0;
}

Result<TileOptimizerResult> OptimizeTileShape(
    dlrm::TableShape table, std::uint32_t dpus_per_table,
    std::size_t batch_size, double avg_reduction,
    const pim::DpuSystem& system,
    std::span<const std::uint32_t> nc_candidates, std::uint32_t replicas,
    bool packed_indices) {
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (avg_reduction < 1.0) {
    return Status::InvalidArgument("avg_reduction must be >= 1");
  }

  // Eq. (2): N_r * N_c <= 64 MB / 4 B per DPU.
  const std::uint64_t max_tile_values = system.config().dpu.mram_bytes / 4;
  const std::uint32_t min_r = replicas == 0 ? 1 : replicas;
  const std::uint32_t max_r = replicas == 0 ? system.num_ranks() : replicas;

  TileOptimizerResult result;
  bool over_capacity = false;  // some tile failed Eq. (2) alone
  for (std::uint32_t nc : nc_candidates) {
    for (std::uint32_t r = min_r; r <= max_r; ++r) {
      if (!ReplicasFit(r, dpus_per_table, system)) continue;
      auto geom_or = GroupGeometry::Make(table, dpus_per_table / r, nc);
      if (!geom_or.ok()) continue;  // infeasible geometry for this Nc
      const GroupGeometry& geom = geom_or.value();

      const std::uint64_t nr = geom.UniformRowsPerBin();
      if (nr * nc > max_tile_values) {  // violates Eq. (2)
        over_capacity = true;
        continue;
      }
      if (!system.kernel_cost().ValidateWramFit(geom.row_bytes()).ok()) {
        continue;
      }

      // One copy serves the largest chunk of the batch deal.
      const std::size_t samples = CeilDiv(batch_size, r);
      // Balanced-access assumption of §3.1: every DPU of a row shard
      // sees samples * Avg_Red / row_shards lookups per batch.
      const auto lookups_per_dpu = static_cast<std::uint64_t>(std::llround(
          static_cast<double>(samples) * avg_reduction /
          static_cast<double>(geom.row_shards)));

      TileCandidate cand = PriceBalancedBatch(
          system, lookups_per_dpu, samples, geom.row_bytes(), packed_indices);
      cand.nc = nc;
      cand.nr = nr;
      cand.replicas = r;
      result.candidates.push_back(cand);
    }
  }

  if (result.candidates.empty() && over_capacity) {
    return Status::CapacityExceeded(
        "every (N_c, R) tile of this table exceeds MRAM (Eq. 2)");
  }
  if (result.candidates.empty()) {
    return Status::InvalidArgument(
        "no feasible (N_c, R) candidate for this table/DPU configuration");
  }
  result.best = result.candidates.front();
  for (const auto& cand : result.candidates) {
    if (cand.total_ns < result.best.total_ns) result.best = cand;
  }
  return result;
}

}  // namespace updlrm::partition
