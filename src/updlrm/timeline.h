// Per-DPU stage-2 timeline capture and emission.
//
// When tracing is enabled, the engine records one DpuTraceSlice per
// (replica, table, bin) stage-2 launch — the work counts and priced
// cycles that already flow through the launch path, captured with zero
// extra model evaluation. EmitBatchDpuTimeline later (post-run, outside
// any hot loop) turns a batch's slices into simulated-clock trace
// events:
//   * one "kernel" slice per launch on the DPU-array track
//     (pid kDpuPid, tid = the bin's first global DPU id; the bin's
//     other column shards run the identical kernel),
//   * a WRAM-hit marker on slices served partly from the pinned tier,
//   * a "straggler" marker on the slowest slice — the DPU whose kernel
//     bounds the batch's stage-2 latency, and
//   * optionally, per-tasklet phase slices for that straggler: the
//     kernel is re-simulated once with KernelTimeline capture (cost:
//     one extra SimulateEmbeddingKernel per *emitted* batch, bounded by
//     the trace sampling rate), showing where inside the kernel the
//     time went (pid kTaskletPid; MRAM-DMA occupancy as a phase arg).
//
// Capture and emission are pure observation: simulated results are
// bit-exact with tracing on or off.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "pim/kernel_cost.h"
#include "pim/system.h"

namespace updlrm::core {

/// One (replica, table, bin) stage-2 launch of a batch. A replica
/// dealt no samples launches nothing: its slices keep zero work.
struct DpuTraceSlice {
  /// Which whole-rank model copy ran the launch (EngineOptions::replicas).
  std::uint32_t replica = 0;
  std::uint32_t table = 0;
  std::uint32_t bin = 0;
  /// The bin's first global DPU id; the bin spans `col_shards`
  /// consecutive ids, all running this identical kernel.
  std::uint32_t first_dpu = 0;
  std::uint32_t col_shards = 1;
  Cycles cycles = 0;
  pim::EmbeddingKernelWork work;
};

/// All stage-2 launches of one batch, in fixed (replica, group, bin)
/// task order.
struct BatchDpuTrace {
  std::vector<DpuTraceSlice> slices;
  /// Index of the slowest slice (first one at max, so deterministic).
  std::size_t straggler = 0;
  Cycles max_cycles = 0;
  /// Per-rank stage-1/3 byte rollups (indexed by rank id) for the
  /// rank-level trace track; empty when capture was off.
  std::vector<std::uint64_t> rank_push_bytes;
  std::vector<std::uint64_t> rank_pull_bytes;
};

/// Emits `trace` as simulated-clock events anchored at `s2_start_ns`
/// (the batch's stage-2 start; kernels begin after the launch
/// overhead). No-op when tracing is disabled or the trace is empty.
void EmitBatchDpuTimeline(const pim::DpuSystem& system,
                          const BatchDpuTrace& trace,
                          std::uint64_t batch_index, Nanos s2_start_ns,
                          bool tasklet_detail);

}  // namespace updlrm::core
