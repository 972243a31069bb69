// The asymmetric data-flow auto-tuner.
//
// Which placement of the dense DLRM stages wins is not fixed: GPU
// offload amortizes its per-batch sync tax only at large batch sizes,
// deep overlap helps only when the host has slack between the stage-1
// push and the stage-3 pull, and the bottom-MLP split trades scheduling
// granularity against nothing at all when the stack is cheap. The tuner
// makes the choice empirical: enumerate the legal plans, price one
// probe batch under each with the calibrated cost models, rank by the
// analytic steady-state prediction, then *calibrate* the finalists with
// real simulated serving runs and pick the measured-p99 winner.
// Decisions are memoized per (model shape, batch size, GPU
// availability) so repeated serving runs pay the search once.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "host/gpu_model.h"
#include "pipeline/dataflow.h"
#include "serve/batcher.h"
#include "serve/workload.h"
#include "updlrm/engine.h"

namespace updlrm::pipeline {

struct TunerOptions {
  /// Largest pipeline depth to enumerate (DataFlowSpace::max_depth);
  /// the split bound comes from the engine's model config and GPU
  /// placements from gpu_available.
  std::uint32_t max_depth = 4;
  /// Candidates to calibrate with real simulated runs: the best-ranked
  /// bottom split of each of the top distinct (depth, backends) plans
  /// by predicted rank; 0 calibrates *every* candidate (the ablation
  /// mode — makes the tuner's pick dominate all static plans by
  /// construction).
  std::size_t calibrate_top_n = 3;
  /// Leading requests of the stream used for calibration runs; 0 uses
  /// the whole stream.
  std::size_t calibration_requests = 0;
  /// GPU backend offloaded placements are priced against.
  host::GpuModelParams gpu;
  /// Whether the serving config provisions a GPU at all.
  bool gpu_available = true;
};

/// One enumerated candidate's scorecard.
struct CandidateOutcome {
  DataFlowPlan plan;
  /// Analytic steady-state score (PredictFlow on the probe batch).
  Nanos predicted_ns = 0.0;
  /// PredictPeriod on the probe batch: breaks score ties in the
  /// calibration order, so where the critical path sets every score the
  /// plans with throughput headroom are calibrated first.
  Nanos predicted_period_ns = 0.0;
  /// Calibrated p99 latency; negative when not calibrated.
  Nanos measured_p99_ns = -1.0;
  bool calibrated = false;
};

struct TunedDataFlow {
  DataFlowPlan best;
  /// Measured p99 of the winning plan's calibration run.
  Nanos best_p99_ns = 0.0;
  /// Every enumerated candidate, in enumeration order.
  std::vector<CandidateOutcome> candidates;
  /// True when this decision came from the memo (no new search ran).
  bool from_cache = false;
};

class DataFlowTuner {
 public:
  explicit DataFlowTuner(TunerOptions options) : options_(options) {}

  /// Picks the data flow for serving `requests` on `engine` under
  /// `batcher`. Winner: lowest calibrated p99, ties broken by lower
  /// predicted score, then shorter predicted period, then enumeration
  /// order — deterministic. Fails
  /// with InvalidArgument on invalid options().gpu.
  Result<TunedDataFlow> Tune(core::UpDlrmEngine& engine,
                             std::span<const serve::Request> requests,
                             const serve::BatcherOptions& batcher);

  const TunerOptions& options() const { return options_; }

 private:
  TunerOptions options_;
  /// Memo keyed on (model-shape signature, batch size, GPU
  /// availability).
  std::map<std::string, TunedDataFlow> memo_;
};

}  // namespace updlrm::pipeline
