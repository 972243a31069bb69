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
// Under backlog the executor lets one kernel launch or pull call serve
// up to `depth` batches, paying the fixed share (StageBreakdown::
// lookup_fixed / pull_fixed) once per call. So the DPU work counts
// each batch's stage 2 less its fixed share plus ceil(n / depth)
// fixed shares (the fewest launches n batches can take), and the
// transfer lane's pulls likewise; a drain term that holds the last
// pull counts the last batch's share of a call that may have opened
// on an earlier batch. Each term bounds any schedule, so their max
// does too. With no hop (every single-host engine) the fabric term
// never exceeds the transfer lane's and the other three are the
// three-resource bound. With zero fixed shares, depth changes nothing.
// It is optimistic (no MRAM buffer contention, no dependency stalls)
// and is intended for the what-if ablation bench/abl_pipelining.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/units.h"
#include "updlrm/report.h"

namespace updlrm::core {

/// Buffer slots (in-flight batches) of a serving pipeline unless a
/// plan says otherwise (serve::DataFlowPlan, serve::ServeOptions): also
/// the most batches one kernel launch or pull call serves.
inline constexpr std::uint32_t kDefaultPipelineDepth = 4;

/// The resources an embedding pipeline overlaps.
enum class PipelineResource { kTransferLane, kDpus, kCoreLane, kFabric };

/// "host transfers" / "DPU lookups" / "host cores" / "cross-host fabric".
std::string_view ResourceName(PipelineResource resource);

struct PipelineEstimate {
  Nanos serial_ns = 0.0;     // the engine's sequential embedding time
  Nanos pipelined_ns = 0.0;  // four-resource lower bound
  // Transfer lane: stage-1 bus part + pulls, and DPUs: stage 2, each
  // with the fixed shares of the fewest calls `depth` allows.
  Nanos host_work_ns = 0.0;
  Nanos dpu_work_ns = 0.0;
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
/// sequence served with `depth` buffer slots (>= 1). An empty span
/// yields a zeroed estimate (a serving loop that has executed no
/// batches has no makespan to bound).
PipelineEstimate EstimatePipelinedEmbedding(
    std::span<const StageBreakdown> batches,
    std::uint32_t depth = kDefaultPipelineDepth);

}  // namespace updlrm::core
