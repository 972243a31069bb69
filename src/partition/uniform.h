// Uniform EMT partitioning and the tile-shape optimizer (§3.1).
//
// Uniform partitioning cuts the table into equal contiguous row blocks
// (N_r rows x N_c columns per DPU). The tile optimizer solves the
// paper's Eq. (1)-(3): enumerate the feasible N_c = 2k (k = 1..4),
// estimate T_c-comm + T_lkp + T_d-comm per batch with the same timing
// models the simulator uses, and pick the argmin. It adds a third tile
// axis beside (N_r, N_c): R, the number of whole-rank copies of the
// model. A copy on 1/R of the DPUs serves 1/R of each batch, so every
// DPU pulls batch/R partial rows instead of batch rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "dlrm/embedding.h"
#include "partition/plan.h"
#include "pim/system.h"

namespace updlrm::partition {

/// Equal contiguous row blocks: row r -> bin r / N_r.
Result<PartitionPlan> UniformPartition(const GroupGeometry& geom);

struct TileCandidate {
  std::uint32_t nc = 0;
  std::uint64_t nr = 0;  // rows per bin
  std::uint32_t replicas = 1;  // whole-rank model copies (R)
  std::uint64_t push_bytes = 0;  // per-DPU stage-1 bytes
  Nanos stage1_ns = 0;   // CPU->DPU index transfer
  Nanos stage2_ns = 0;   // DPU lookup + reduce
  Nanos stage3_ns = 0;   // DPU->CPU partial results
  Nanos total_ns = 0;
};

struct TileOptimizerResult {
  TileCandidate best;
  /// All feasible (Nc, R), Nc ascending, then R ascending.
  std::vector<TileCandidate> candidates;
};

/// Paper's default search space: N_c = 2k, 1 <= k <= 4 (Eq. 3).
std::span<const std::uint32_t> DefaultNcCandidates();

/// Prices one batch under §3.1's balanced-access assumption: each of
/// `system`'s DPUs receives `lookups_per_dpu` references for `samples`
/// samples, with one offset array, in the packed or the paper wire
/// format (pim/wire_format.h), and returns `samples` partial rows of
/// `row_bytes`. Fills push_bytes, the three stage times and total_ns.
/// The Eq. (1)-(3) optimizer and the engine's (Nc, R) estimator both
/// price with it.
TileCandidate PriceBalancedBatch(const pim::DpuSystem& system,
                                 std::uint64_t lookups_per_dpu,
                                 std::size_t samples, std::uint32_t row_bytes,
                                 bool packed_indices);

/// True when R whole-rank copies of a model spread over
/// `dpus_per_table` DPUs per table fit `system`: R divides the rank
/// count, every copy owns whole ranks, and R divides dpus_per_table
/// (each copy keeps one DPU group per table).
bool ReplicasFit(std::uint32_t replicas, std::uint32_t dpus_per_table,
                 const pim::DpuSystem& system);

/// Estimates per-batch embedding-layer time for each feasible (N_c, R)
/// under the balanced-access assumption of §3.1 and returns the argmin.
/// A copy is priced with the unchanged Eq. (1)-(3) terms at
/// dpus_per_table / R DPUs and ceil(batch_size / R) samples.
/// `replicas` pins R (1, the default, is the paper's single copy); 0
/// enumerates every R that ReplicasFit. `packed_indices` prices stage 1
/// and the kernel's index stream in the packed wire format
/// (pim/wire_format.h) instead of the paper's 4-byte one. Candidates
/// violating Eq. (2) (tile exceeding MRAM) or geometry divisibility are
/// skipped; fails if none are feasible: CapacityExceeded when some
/// geometry-feasible tile failed Eq. (2), InvalidArgument otherwise.
Result<TileOptimizerResult> OptimizeTileShape(
    dlrm::TableShape table, std::uint32_t dpus_per_table,
    std::size_t batch_size, double avg_reduction,
    const pim::DpuSystem& system,
    std::span<const std::uint32_t> nc_candidates = DefaultNcCandidates(),
    std::uint32_t replicas = 1, bool packed_indices = false);

}  // namespace updlrm::partition
