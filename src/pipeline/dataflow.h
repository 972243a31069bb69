// Candidate data flows for the end-to-end DLRM serving pipeline.
//
// The full request path has four compute stages — bottom MLP, embedding
// lookup (the PIM pipeline), feature interaction, top MLP — and three
// places to run the dense ones: overlapped on the host while the DPUs
// own the embedding stages, on the host after the pull, or offloaded to
// the GPU backend. Which assignment wins is *asymmetric*: it depends on
// batch size (GPU per-batch fixed overheads amortize only at scale),
// model shape (bottom/top FLOP ratio), and the embedding stage times of
// the particular dataset. This module enumerates the legal assignments
// (DataFlowPlan), prices one batch under each assignment from the same
// calibrated cost models the engine charges (BatchTaskCosts), and
// provides the analytic steady-state prediction the tuner uses to rank
// candidates before calibration (PredictFlow).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dlrm/model.h"
#include "host/cpu_model.h"
#include "host/gpu_model.h"
#include "serve/executor.h"
#include "updlrm/report.h"

namespace updlrm::pipeline {

// The plan and cost types live with the executor (serve/executor.h);
// this module enumerates, prices and ranks them.
using serve::Backend;
using serve::BatchTaskCosts;
using serve::DataFlowPlan;

std::string_view BackendName(Backend b);  // "cpu" / "gpu"

/// Stable display name, e.g. "d2.split1.cpu-cpu".
std::string Name(const DataFlowPlan& plan);

/// The enumeration space.
struct DataFlowSpace {
  /// Largest pipeline depth to enumerate (clamped to
  /// check::kMaxPipelineDepth by EnumerateDataFlows).
  std::uint32_t max_depth = 4;
  /// Total bottom-MLP layers (config.bottom_hidden.size() + 1); bounds
  /// the split enumeration.
  std::uint32_t bottom_layers = 1;
  /// Enumerate GPU placements (a provisioned GPU backend).
  bool allow_gpu = true;
};

/// All legal plans of `space`, deterministic order: depth ascending,
/// then bottom split ascending, then backend mix (cpu-cpu, cpu-gpu,
/// gpu-cpu, gpu-gpu). GPU-bottom plans carry split 0.
std::vector<DataFlowPlan> EnumerateDataFlows(const DataFlowSpace& space);

/// Prices one batch of `batch_size` samples under `plan`. `batch`
/// supplies the executed embedding stage times.
BatchTaskCosts ComputeBatchTaskCosts(const dlrm::DlrmConfig& config,
                                     const host::CpuTimingModel& cpu,
                                     const host::GpuTimingModel& gpu,
                                     const core::BatchResult& batch,
                                     std::size_t batch_size,
                                     const DataFlowPlan& plan);

/// Steady-state cut-to-cut period of `plan`: the largest per-batch busy
/// time over the executor's resources (fabric lane, transfer lane,
/// core lane, DPUs, GPU), with each kernel launch and pull call
/// serving `depth` batches (their fixed shares amortized), and at
/// depth 1 no less than push + lookup. batch / period is the
/// throughput bound at saturation.
Nanos PredictPeriod(const BatchTaskCosts& costs, const DataFlowPlan& plan);

/// Analytic steady-state score of `plan` (lower is better): the larger
/// of PredictPeriod (the throughput bound at saturation) and the
/// single-batch critical path (latency floor at low load). A rank
/// heuristic, not a latency promise — the tuner calibrates the
/// finalists with real simulated runs.
Nanos PredictFlow(const BatchTaskCosts& costs, const DataFlowPlan& plan);

}  // namespace updlrm::pipeline
