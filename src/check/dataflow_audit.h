// Auditors for the end-to-end serving pipeline's data-flow plans
// (src/pipeline): the tuner's enumerated plan shapes, the in-flight
// MRAM IO footprint a chosen overlap depth implies, and the stage
// ordering of every executed batch.
//
// All inputs are plain parameters — this module must not depend on
// src/pipeline (check is below it in the layer graph), so the pipeline
// layer flattens its plan/batch types into these structs before
// calling. Like every auditor here, violations are reported through
// CheckReport; nothing throws or alters simulated results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "check/report.h"

namespace updlrm::check {

/// Upper bound on the pipeline overlap depth any data-flow plan may
/// request. Each unit of depth keeps one more batch's stage-1/stage-3
/// buffer pair alive in the reserved-IO region; past this bound the
/// region arithmetic (and the serve executor's buffer recycling) no
/// longer holds.
inline constexpr std::uint32_t kMaxPipelineDepth = 8;

/// Shape of one candidate data-flow plan, flattened from
/// pipeline::DataFlowPlan.
struct DataFlowShape {
  /// Pipeline overlap depth (in-flight batches), must be in
  /// [1, kMaxPipelineDepth].
  std::uint32_t depth = 1;
  /// Bottom-MLP layers run before the batch cut (overlapped with the
  /// previous batch's DPU stages); must not exceed bottom_layers.
  std::uint32_t bottom_overlap_layers = 0;
  /// Total layers in the bottom MLP stack.
  std::uint32_t bottom_layers = 0;
  /// Stage placement: true = GPU backend.
  bool bottom_on_gpu = false;
  bool top_on_gpu = false;
  /// Whether the serving config provisions a GPU at all.
  bool gpu_available = true;
};

/// Fires kDataFlowShape when `shape` lies outside the legal plan space:
/// depth 0 or > kMaxPipelineDepth, an overlap split beyond the bottom
/// stack, or a GPU placement without a provisioned GPU.
void AuditDataFlowShape(const DataFlowShape& shape, CheckReport* report);

/// In-flight IO footprint of one executed batch against the per-DPU
/// regions placement actually carved out (MramLayout).
struct DataFlowCapacity {
  std::uint32_t depth = 1;
  /// Worst per-DPU stage-1 / stage-3 buffer bytes of the batch
  /// (BatchResult::max_index_bytes / max_output_bytes).
  std::uint64_t max_index_bytes = 0;
  std::uint64_t max_output_bytes = 0;
  /// Smallest carved index / output region across the engine's groups
  /// (MramLayout::index_bytes / output_bytes).
  std::uint64_t index_region_bytes = 0;
  std::uint64_t output_region_bytes = 0;
};

/// `depth` buffer pairs are alive at once, so depth * worst buffer must
/// fit each carved region. Fires kDataFlowCapacity.
void AuditDataFlowCapacity(const DataFlowCapacity& cap, CheckReport* report);

/// Executed stage instants of one batch, sim nanos
/// (serve::ExecutedFlowBatch).
struct StageInstants {
  double cut_ns = 0;
  double bpre_start_ns = 0, bpre_end_ns = 0;  // overlapped bottom-MLP part
  double fabric_start_ns = 0, fabric_end_ns = 0;  // stage-1 cross-host hop
  double s1_start_ns = 0, s1_end_ns = 0;
  double s2_start_ns = 0, s2_end_ns = 0;
  double s3_start_ns = 0, s3_end_ns = 0;
  double pull_end_ns = 0;  // stage-3 pull done; aggregation follows
  double bottom_done_ns = 0;  // all bottom-MLP layers finished
  double top_start_ns = 0, top_end_ns = 0;  // interaction + top MLP
};

/// Ordering invariants of one executed batch: stages run in dependency
/// order (fabric hop -> S1 -> S2 -> S3, each starting no earlier than
/// its predecessor ends, and S3's pull ending within [s3 start, s3
/// end]), nothing starts before the batch cut, the bottom-MLP prefix finishes
/// before the bottom stack is declared done, and the top task waits
/// for both the aggregated embeddings and the bottom MLP. `slack`
/// absorbs float rounding. Fires kStageOrdering; `batch` tags the
/// offender context.
void AuditStageOrdering(std::size_t batch, const StageInstants& t,
                        CheckReport* report, double slack = 1e-6);

/// AuditStageOrdering over an executed schedule (cut order) run with
/// `depth` buffer slots, where batch k uses index and output slot
/// k mod depth, plus the cross-batch slot edges: batch k's stage 1
/// starts no earlier than batch k-depth's stage 2 ends (the index slot
/// is free) and its stage 2 no earlier than batch k-depth's pull ends
/// (the output slot is free). Fires kStageOrdering.
void AuditStageOrdering(std::span<const StageInstants> schedule,
                        std::uint32_t depth, CheckReport* report,
                        double slack = 1e-6);

}  // namespace updlrm::check
