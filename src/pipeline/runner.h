// End-to-end DLRM serving simulation under one DataFlowPlan.
//
// Runs the shared serve loop (serve/loop.h) that serve::
// RunServeSimulation uses, over the full request path: dynamic batcher
// -> per-batch engine embedding run (the PIM pipeline) ->
// DataFlowExecutor scheduling the bottom MLP, interaction, and top MLP
// around the embedding stages per the plan. In functional mode (engine
// built with a model) each batch additionally computes real CTR outputs
// through the batched dense path (dlrm::BatchedDlrm), so the result
// carries per-request predictions — bit-exact across host thread counts
// and tracing on/off.
//
// A request's latency is its batch's *top-MLP completion* minus its
// arrival — the full path, not just the embedding pull.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "check/report.h"
#include "common/status.h"
#include "host/gpu_model.h"
#include "pipeline/dataflow.h"
#include "serve/batcher.h"
#include "serve/metrics.h"
#include "serve/workload.h"
#include "telemetry/monitor.h"
#include "updlrm/engine.h"

namespace updlrm::pipeline {

struct DataFlowServeOptions {
  serve::BatcherOptions batcher;
  DataFlowPlan plan;
  /// Host workers for the functional batched CTR computation (outputs
  /// are bit-exact at any width; 0 = default pool, 1 = serial).
  std::uint32_t num_threads = 1;
  /// GPU backend the plan's offloaded stages are priced against.
  host::GpuModelParams gpu;
  /// Whether the serving config provisions a GPU at all (audited
  /// against the plan's placements).
  bool gpu_available = true;
  /// Optional audit sink: when set, the run validates the plan shape,
  /// the depth-implied MRAM IO footprint, and the stage ordering of
  /// every executed batch into this report. Observation only.
  check::CheckReport* audit = nullptr;
  /// Optional fleet-health monitor (telemetry/monitor.h), observation
  /// only — same feeding contract as serve::ServeOptions::monitor.
  telemetry::FleetMonitor* monitor = nullptr;
};

using serve::ExecutedFlowBatch;

struct DataFlowServeResult : serve::ServeScorecard {
  /// CTR per completed request, same order as request_latency_ns.
  /// Empty when the engine is timing-only or no dense inputs were
  /// supplied.
  std::vector<float> ctr;
  /// The executed per-batch schedule under the plan.
  std::vector<ExecutedFlowBatch> schedule;
};

/// Simulates full-path serving of `requests` (time-ordered) on `engine`
/// under `options.plan`. `dense` supplies the continuous features for
/// CTR computation (sample ids index it like the trace); pass nullptr
/// to skip CTR even on a functional engine. Fails with InvalidArgument
/// on invalid options.gpu, a zero plan.depth or max_batch_size, a
/// negative max_queue_delay_ns, a request that references a sample
/// outside the engine's trace or the dense inputs, or (functional
/// engines) dense inputs whose feature count is not
/// config.dense_features.
Result<DataFlowServeResult> RunDataFlowSimulation(
    core::UpDlrmEngine& engine, std::span<const serve::Request> requests,
    const dlrm::DenseInputs* dense, const DataFlowServeOptions& options);

}  // namespace updlrm::pipeline
