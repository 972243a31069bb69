// The online serving simulator: request queue -> dynamic batcher ->
// pipelined embedding executor -> tail-latency metrics.
//
// Embedding-only serving runs the shared serve loop (serve/loop.h)
// under a DataFlowPlan with no dense stages: the executor overlaps
// batch k+1's stage-1 push with batch k's DPU occupancy, and a
// request's latency is its batch's stage-3 completion minus its
// arrival. Every ServeResult field is bit-exact across --threads (the
// determinism suite pins this).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/batcher.h"
#include "serve/metrics.h"
#include "serve/workload.h"
#include "telemetry/monitor.h"
#include "telemetry/registry.h"
#include "updlrm/engine.h"
#include "updlrm/pipelining.h"

namespace updlrm::core {
class ShardedEngine;  // updlrm/scaleout.h
}  // namespace updlrm::core

namespace updlrm::serve {

struct ServeOptions {
  BatcherOptions batcher;
  /// MRAM buffer slots for the executor (2 = double-buffered), and
  /// the most batches one kernel launch or pull call serves.
  std::uint32_t pipeline_depth = core::kDefaultPipelineDepth;
  /// Optional fleet-health monitor (telemetry/monitor.h). Observation
  /// only: the loop feeds it batch-cut accesses, per-unit work samples
  /// and request completions; results are bit-exact with or without it.
  /// The caller owns it and calls Finalize() after the run.
  telemetry::FleetMonitor* monitor = nullptr;
};

/// The embedding-stage view of one executed batch.
struct ExecutedBatch {
  core::StageBreakdown stages;
  Nanos submit_ns = 0.0;    // cut instant (stage 1 may start here)
  /// Stage 1's cross-host hop on the fabric lane (stages.ingress long;
  /// empty at the cut on a single-host engine).
  Nanos fabric_start_ns = 0.0;
  Nanos fabric_end_ns = 0.0;
  Nanos s1_start_ns = 0.0;  // CPU->DPU bus push
  Nanos s1_end_ns = 0.0;
  Nanos s2_start_ns = 0.0;  // DPU lookup/reduce
  Nanos s2_end_ns = 0.0;
  Nanos s3_start_ns = 0.0;  // DPU->CPU pull + CPU aggregation
  Nanos s3_end_ns = 0.0;    // batch completion
};

struct ServeResult : ServeScorecard {
  /// The executed per-batch schedule, in cut order (feed the stages to
  /// core::EstimatePipelinedEmbedding to compare bound vs executed).
  std::vector<ExecutedBatch> schedule;

  /// Exports the scorecard into `registry` under "<prefix>." keys
  /// (counters for totals, gauges for rates/latencies).
  void ExportTo(telemetry::MetricsRegistry& registry,
                const std::string& prefix) const;
};

/// Simulates serving `requests` (time-ordered, as produced by
/// GenerateRequests) on `engine`. The engine's batch_size option is
/// ignored; the batcher's max_batch_size governs. Fails with
/// InvalidArgument on a zero pipeline_depth or max_batch_size, a
/// negative max_queue_delay_ns, or a request that references a sample
/// outside the engine's trace.
Result<ServeResult> RunServeSimulation(core::UpDlrmEngine& engine,
                                       std::span<const Request> requests,
                                       const ServeOptions& options);

/// Sharded-fleet overload: the same discrete-event loop over a
/// ShardedEngine (per-request shard fan-out + merge happen inside
/// RunSamples; batch timings are the fleet composition).
Result<ServeResult> RunServeSimulation(core::ShardedEngine& engine,
                                       std::span<const Request> requests,
                                       const ServeOptions& options);

}  // namespace updlrm::serve
