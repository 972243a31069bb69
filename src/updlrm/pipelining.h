// Inter-batch pipelining estimate.
//
// The paper executes batches serially: stage 1 -> stage 2 -> stage 3
// per batch. The stages' resources are disjoint — stages 1/3 move data
// over the host's DIMM buses, stage 2 runs on the DPUs, and the
// stage-3 aggregation runs on the host's CPU cores — so a production
// serving loop can push batch k+1's indices while the DPUs execute
// batch k (double-buffered index/output regions in MRAM) and while the
// cores reduce batch k-1. This module turns a sequence of per-batch
// stage timings into a lower bound on the pipelined makespan:
//
//   makespan >= max over resources r of (fill_r + Σ work_r + drain_r)
//
// over the four embedding resources of the serving executor
// (serve/executor.h):
//   * transfer lane: work = stage 1's bus part (cpu_to_dpu - ingress)
//     + the stage-3 pull; fill = the first batch's fabric hop; drain =
//     the last batch's aggregation;
//   * DPUs: work = stage 2; fill = the first batch's push (hop
//     included); drain = the last batch's pull and aggregation;
//   * core lane: work = the CPU aggregation; fill = the first batch's
//     push, lookup and pull; no drain;
//   * fabric lane: work = the cross-host stage-1 hops (ingress); no
//     fill; drain = the last batch's bus push, pull and aggregation.
// Each term bounds any schedule, so their max does too. With no hop
// (every single-host engine) the fabric term never exceeds the
// transfer lane's and the other three are the three-resource bound. It is
// optimistic (no MRAM buffer contention, no dependency stalls) and is
// intended for the what-if ablation bench/abl_pipelining.
#pragma once

#include <span>
#include <string_view>

#include "common/units.h"
#include "updlrm/report.h"

namespace updlrm::core {

/// The resources an embedding pipeline overlaps.
enum class PipelineResource { kTransferLane, kDpus, kCoreLane, kFabric };

/// "host transfers" / "DPU lookups" / "host cores" / "cross-host fabric".
std::string_view ResourceName(PipelineResource resource);

struct PipelineEstimate {
  Nanos serial_ns = 0.0;     // the engine's sequential embedding time
  Nanos pipelined_ns = 0.0;  // four-resource lower bound
  Nanos host_work_ns = 0.0;  // transfer lane: stage-1 bus part + pull
  Nanos dpu_work_ns = 0.0;   // total stage-2
  Nanos core_work_ns = 0.0;  // core lane: total aggregation
  Nanos fabric_work_ns = 0.0;  // fabric lane: total stage-1 ingress

  double Speedup() const {
    return pipelined_ns <= 0.0 ? 0.0 : serial_ns / pipelined_ns;
  }
  /// The resource with the most work, which bounds the steady state
  /// (ties go to the transfer lane, then the DPUs, then the cores).
  PipelineResource Binding() const;
};

/// Estimates the pipelined embedding-layer makespan for a batch
/// sequence. An empty span yields a zeroed estimate (a serving loop
/// that has executed no batches has no makespan to bound).
PipelineEstimate EstimatePipelinedEmbedding(
    std::span<const StageBreakdown> batches);

}  // namespace updlrm::core
