#include "pipeline/tuner.h"

#include <algorithm>
#include <numeric>

#include "common/stats.h"
#include "pipeline/runner.h"

namespace updlrm::pipeline {

namespace {

// Decisions transfer across runs that share the model shape, the batch
// size, and the backend inventory — the inputs ComputeBatchTaskCosts
// and the executor actually read.
std::string CacheKey(const dlrm::DlrmConfig& config,
                     const serve::BatcherOptions& batcher,
                     bool gpu_available) {
  std::string key;
  key += "t" + std::to_string(config.num_tables);
  key += ".d" + std::to_string(config.embedding_dim);
  key += ".f" + std::to_string(config.dense_features);
  key += ".i" + std::to_string(static_cast<int>(config.interaction));
  key += ".b";
  for (const std::uint32_t w : config.bottom_hidden) {
    key += std::to_string(w) + "-";
  }
  key += ".h";
  for (const std::uint32_t w : config.top_hidden) {
    key += std::to_string(w) + "-";
  }
  key += ".n" + std::to_string(batcher.max_batch_size);
  key += gpu_available ? ".gpu" : ".nogpu";
  return key;
}

}  // namespace

Result<TunedDataFlow> DataFlowTuner::Tune(
    core::UpDlrmEngine& engine, std::span<const serve::Request> requests,
    const serve::BatcherOptions& batcher) {
  UPDLRM_RETURN_IF_ERROR(options_.gpu.Validate());
  const dlrm::DlrmConfig& config = engine.config();
  const std::string key = CacheKey(config, batcher, options_.gpu_available);
  if (const auto it = memo_.find(key); it != memo_.end()) {
    TunedDataFlow cached = it->second;
    cached.from_cache = true;
    return cached;
  }
  if (requests.empty()) {
    return Status::InvalidArgument("tuner needs a non-empty request stream");
  }

  // One probe batch at the serving batch size supplies the embedding
  // stage times every candidate is priced against.
  std::vector<std::size_t> probe;
  const std::size_t probe_size =
      std::min<std::size_t>(std::max<std::size_t>(batcher.max_batch_size, 1),
                            requests.size());
  probe.reserve(probe_size);
  for (std::size_t i = 0; i < probe_size; ++i) {
    probe.push_back(requests[i].sample);
  }
  auto probe_batch = engine.RunSamples(probe, nullptr);
  if (!probe_batch.ok()) return probe_batch.status();

  DataFlowSpace space;
  space.max_depth = options_.max_depth;
  space.bottom_layers =
      static_cast<std::uint32_t>(config.bottom_hidden.size()) + 1;
  space.allow_gpu = options_.gpu_available;

  const host::GpuTimingModel gpu(options_.gpu);
  TunedDataFlow tuned;
  for (const DataFlowPlan& plan : EnumerateDataFlows(space)) {
    CandidateOutcome outcome;
    outcome.plan = plan;
    outcome.predicted_ns = PredictFlow(
        ComputeBatchTaskCosts(config, engine.cpu_model(), gpu, *probe_batch,
                              probe.size(), plan),
        plan);
    tuned.candidates.push_back(outcome);
  }

  // Calibration order: predicted rank (stable, so prediction ties keep
  // enumeration order).
  std::vector<std::size_t> rank(tuned.candidates.size());
  std::iota(rank.begin(), rank.end(), 0);
  std::stable_sort(rank.begin(), rank.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tuned.candidates[a].predicted_ns <
                            tuned.candidates[b].predicted_ns;
                   });
  const std::size_t to_calibrate =
      options_.calibrate_top_n == 0
          ? rank.size()
          : std::min(options_.calibrate_top_n, rank.size());

  const std::span<const serve::Request> calibration =
      options_.calibration_requests == 0
          ? requests
          : requests.subspan(0, std::min(options_.calibration_requests,
                                         requests.size()));
  for (std::size_t i = 0; i < to_calibrate; ++i) {
    CandidateOutcome& outcome = tuned.candidates[rank[i]];
    DataFlowServeOptions serve_options;
    serve_options.batcher = batcher;
    serve_options.plan = outcome.plan;
    serve_options.gpu = options_.gpu;
    serve_options.gpu_available = options_.gpu_available;
    // Timing-only calibration: skip CTR computation.
    auto run = RunDataFlowSimulation(engine, calibration, nullptr,
                                     serve_options);
    if (!run.ok()) return run.status();
    outcome.measured_p99_ns = NearestRank(run->request_latency_ns, 99.0);
    outcome.calibrated = true;
  }

  // Winner: lowest measured p99 among the calibrated candidates; ties
  // fall to the lower prediction, then to enumeration order (the scan
  // below only replaces on strict improvement).
  std::size_t best = tuned.candidates.size();
  for (std::size_t i = 0; i < tuned.candidates.size(); ++i) {
    const CandidateOutcome& c = tuned.candidates[i];
    if (!c.calibrated) continue;
    if (best == tuned.candidates.size()) {
      best = i;
      continue;
    }
    const CandidateOutcome& b = tuned.candidates[best];
    if (c.measured_p99_ns < b.measured_p99_ns ||
        (c.measured_p99_ns == b.measured_p99_ns &&
         c.predicted_ns < b.predicted_ns)) {
      best = i;
    }
  }
  UPDLRM_CHECK_MSG(best < tuned.candidates.size(),
                   "tuner calibrated no candidate");
  tuned.best = tuned.candidates[best].plan;
  tuned.best_p99_ns = tuned.candidates[best].measured_p99_ns;
  memo_.emplace(key, tuned);
  return tuned;
}

}  // namespace updlrm::pipeline
