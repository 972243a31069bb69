#include "pipeline/runner.h"

#include <algorithm>
#include <memory>

#include "check/dataflow_audit.h"
#include "dlrm/batched.h"
#include "serve/loop.h"
#include "telemetry/tracer.h"

namespace updlrm::pipeline {

namespace {

// The full DLRM request path for serve::RunServeLoop: prices every
// batch's dense tasks under the plan, runs the batched CTR forward in
// functional mode, and completes a batch at its top-MLP end.
class DenseFlowPath {
 public:
  DenseFlowPath(const core::UpDlrmEngine& engine,
                const dlrm::DenseInputs* dense,
                const DataFlowServeOptions& options, std::size_t requests,
                std::vector<float>& ctr)
      : engine_(engine), dense_(dense), options_(options), ctr_(ctr) {
    if (dense != nullptr && engine.functional()) {
      batched_ = std::make_unique<dlrm::BatchedDlrm>(*engine.model());
      dense_rows_.reserve(options.batcher.max_batch_size *
                          engine.config().dense_features);
      ctr_.reserve(requests);
    }
  }

  Result<BatchTaskCosts> OnBatch(std::span<const std::size_t> samples,
                                 const core::BatchResult& batch) {
    max_index_bytes_ = std::max(max_index_bytes_, batch.max_index_bytes);
    max_output_bytes_ = std::max(max_output_bytes_, batch.max_output_bytes);
    const dlrm::DlrmConfig& config = engine_.config();
    if (batched_ != nullptr) {
      if (samples.size() * config.dense_features > dense_rows_.capacity()) {
        dense_rows_.reserve(samples.size() * config.dense_features);
      }
      dense_rows_.clear();
      for (const std::size_t s : samples) {
        const std::span<const float> row = dense_->Sample(s);
        dense_rows_.insert(dense_rows_.end(), row.begin(), row.end());
      }
      const std::size_t base = ctr_.size();
      ctr_.resize(base + samples.size());
      batched_->Forward(dense_rows_, batch.pooled, samples.size(),
                        std::span<float>(ctr_.data() + base, samples.size()),
                        options_.num_threads);
    }
    return ComputeBatchTaskCosts(config, engine_.cpu_model(), gpu_, batch,
                                 samples.size(), options_.plan);
  }

  static Nanos Done(const ExecutedFlowBatch& b) { return b.done_ns; }

  void NameTracks() const {
    const DataFlowPlan& plan = options_.plan;
    if (plan.bottom == Backend::kGpu || plan.top == Backend::kGpu) {
      telemetry::Tracer::Get().SetThreadName(
          telemetry::kPipelinePid, telemetry::kGpuTrack, "GPU backend");
    }
  }

  void TraceBatch(const ExecutedFlowBatch& sched, std::size_t b) const {
    using telemetry::Clock;
    using telemetry::kGpuTrack;
    using telemetry::kHostCoreTrack;
    using telemetry::kPipelinePid;
    telemetry::Tracer& tracer = telemetry::Tracer::Get();
    const double batch_id = static_cast<double>(b);
    if (options_.plan.bottom == Backend::kGpu) {
      tracer.Complete(kPipelinePid, kGpuTrack, Clock::kSim, "mlp_bottom",
                      sched.bpre_start_ns,
                      sched.bpre_end_ns - sched.bpre_start_ns, "batch",
                      batch_id);
    } else {
      // The bottom stack runs as up to two core slices (the overlapped
      // prefix and the remainder); emit each non-empty one under the
      // same span name.
      if (sched.bpre_end_ns > sched.bpre_start_ns) {
        tracer.Complete(kPipelinePid, kHostCoreTrack, Clock::kSim,
                        "mlp_bottom", sched.bpre_start_ns,
                        sched.bpre_end_ns - sched.bpre_start_ns, "batch",
                        batch_id);
      }
      if (sched.bpost_end_ns > sched.bpost_start_ns) {
        tracer.Complete(kPipelinePid, kHostCoreTrack, Clock::kSim,
                        "mlp_bottom", sched.bpost_start_ns,
                        sched.bpost_end_ns - sched.bpost_start_ns, "batch",
                        batch_id);
      }
    }
    if (options_.plan.top == Backend::kGpu) {
      // One offload covers interaction + top stack; the host-time
      // interact/top split does not apply on the device.
      tracer.Complete(kPipelinePid, kGpuTrack, Clock::kSim, "mlp_top",
                      sched.top_start_ns,
                      sched.top_end_ns - sched.top_start_ns, "batch",
                      batch_id);
    } else {
      tracer.Complete(kPipelinePid, kHostCoreTrack, Clock::kSim,
                      "interact", sched.top_start_ns, sched.costs.interact,
                      "batch", batch_id);
      tracer.Complete(kPipelinePid, kHostCoreTrack, Clock::kSim,
                      "mlp_top", sched.top_start_ns + sched.costs.interact,
                      sched.top_end_ns -
                          (sched.top_start_ns + sched.costs.interact));
    }
  }

  // Worst in-flight buffer pair across the run (capacity audit input).
  std::uint64_t max_index_bytes() const { return max_index_bytes_; }
  std::uint64_t max_output_bytes() const { return max_output_bytes_; }

 private:
  const core::UpDlrmEngine& engine_;
  const dlrm::DenseInputs* dense_;
  const DataFlowServeOptions& options_;
  const host::GpuTimingModel gpu_{options_.gpu};
  std::vector<float>& ctr_;
  std::unique_ptr<dlrm::BatchedDlrm> batched_;  // null: no CTR
  std::vector<float> dense_rows_;  // gathered batch dense inputs
  std::uint64_t max_index_bytes_ = 0;
  std::uint64_t max_output_bytes_ = 0;
};

}  // namespace

Result<DataFlowServeResult> RunDataFlowSimulation(
    core::UpDlrmEngine& engine, std::span<const serve::Request> requests,
    const dlrm::DenseInputs* dense, const DataFlowServeOptions& options) {
  UPDLRM_RETURN_IF_ERROR(options.gpu.Validate());
  // Dense inputs are only read by the functional CTR forward; check
  // them once here rather than abort inside it.
  if (dense != nullptr && engine.functional()) {
    if (dense->dim() != engine.config().dense_features) {
      return Status::InvalidArgument(
          "dense inputs have " + std::to_string(dense->dim()) +
          " features, the model expects " +
          std::to_string(engine.config().dense_features));
    }
    for (const serve::Request& r : requests) {
      if (r.sample >= dense->num_samples()) {
        return Status::InvalidArgument(
            "request sample outside the dense inputs");
      }
    }
  }
  const DataFlowPlan& plan = options.plan;
  if (options.audit != nullptr) {
    check::DataFlowShape shape;
    shape.depth = plan.depth;
    shape.bottom_overlap_layers =
        plan.bottom == Backend::kGpu ? 0 : plan.bottom_split;
    shape.bottom_layers =
        static_cast<std::uint32_t>(engine.config().bottom_hidden.size()) + 1;
    shape.bottom_on_gpu = plan.bottom == Backend::kGpu;
    shape.top_on_gpu = plan.top == Backend::kGpu;
    shape.gpu_available = options.gpu_available;
    check::AuditDataFlowShape(shape, options.audit);
  }

  DataFlowServeResult result;
  DenseFlowPath path(engine, dense, options, requests.size(), result.ctr);
  auto executor = serve::RunServeLoop(engine, requests, options.batcher, plan,
                                      options.monitor, path, result);
  if (!executor.ok()) return executor.status();
  result.schedule = executor->batches();

  if (options.audit != nullptr) {
    check::DataFlowCapacity cap;
    cap.depth = plan.depth;
    cap.max_index_bytes = path.max_index_bytes();
    cap.max_output_bytes = path.max_output_bytes();
    cap.index_region_bytes = ~0ULL;
    cap.output_region_bytes = ~0ULL;
    for (const core::TableGroup& g : engine.groups()) {
      cap.index_region_bytes =
          std::min(cap.index_region_bytes, g.layout.index_bytes);
      cap.output_region_bytes =
          std::min(cap.output_region_bytes, g.layout.output_bytes);
    }
    check::AuditDataFlowCapacity(cap, options.audit);
    serve::AuditSchedule(result.schedule, plan.depth, options.audit);
  }
  return result;
}

}  // namespace updlrm::pipeline
