#include "serve/server.h"

#include <span>

#include "serve/loop.h"
#include "updlrm/scaleout.h"

namespace updlrm::serve {

void ServeResult::ExportTo(telemetry::MetricsRegistry& registry,
                           const std::string& prefix) const {
  registry.Increment(prefix + ".offered", static_cast<double>(offered));
  registry.Increment(prefix + ".completed",
                     static_cast<double>(completed));
  registry.Increment(prefix + ".shed", static_cast<double>(shed));
  registry.Increment(prefix + ".batches",
                     static_cast<double>(num_batches));
  registry.Increment(prefix + ".requests_traced",
                     static_cast<double>(requests_traced));
  registry.Increment(prefix + ".requests_sampled_out",
                     static_cast<double>(requests_sampled_out));
  registry.SetGauge(prefix + ".makespan_ns", makespan_ns);
  registry.SetGauge(prefix + ".avg_batch_size", avg_batch_size);
  registry.SetGauge(prefix + ".max_queue_depth",
                    static_cast<double>(max_queue_depth));
  registry.SetGauge(prefix + ".host_utilization",
                    utilization.HostUtilization());
  registry.SetGauge(prefix + ".host_core_utilization",
                    utilization.HostCoreUtilization());
  registry.SetGauge(prefix + ".dpu_utilization",
                    utilization.DpuUtilization());
  registry.SetGauge(prefix + ".fabric_util", utilization.FabricUtilization());
  // Mean batches one kernel launch / pull call served; 0 when none ran.
  auto per_call = [&](std::size_t calls) {
    return calls == 0 ? 0.0
                      : static_cast<double>(num_batches) /
                            static_cast<double>(calls);
  };
  registry.SetGauge(prefix + ".batches_per_launch",
                    per_call(utilization.kernel_launches));
  registry.SetGauge(prefix + ".batches_per_pull",
                    per_call(utilization.pull_calls));
  for (const Nanos l : request_latency_ns) {
    registry.Observe(prefix + ".latency_ns", l);
  }
}

namespace {

// Embedding-only serving is the plan with no dense stages: every dense
// cost stays zero and a batch completes at its stage-3 end (the
// zero-cost dense tasks may queue behind later aggregations, so
// done_ns is not the completion instant here).
struct EmbeddingPath {
  static Result<BatchTaskCosts> OnBatch(std::span<const std::size_t>,
                                        const core::BatchResult& batch) {
    BatchTaskCosts costs;
    costs.emb = batch.stages;
    return costs;
  }
  static Nanos Done(const ExecutedFlowBatch& b) { return b.s3_end_ns; }
  static void NameTracks() {}
  static void TraceBatch(const ExecutedFlowBatch&, std::size_t) {}
};

// The report check mode audits the schedule into; null when off.
check::CheckReport* ScheduleReport(core::UpDlrmEngine& engine) {
  return engine.mutable_check_report();
}
check::CheckReport* ScheduleReport(core::ShardedEngine& engine) {
  return engine.mutable_fleet_check_report();
}

template <typename EngineT>
Result<ServeResult> Serve(EngineT& engine, std::span<const Request> requests,
                          const ServeOptions& options) {
  DataFlowPlan plan;
  plan.depth = options.pipeline_depth;
  EmbeddingPath path;
  ServeResult result;
  auto executor = RunServeLoop(engine, requests, options.batcher, plan,
                               options.monitor, path, result);
  if (!executor.ok()) return executor.status();
  if (check::CheckReport* report = ScheduleReport(engine);
      report != nullptr) {
    AuditSchedule(executor->batches(), plan.depth, report);
  }
  result.schedule.reserve(executor->batches().size());
  for (const ExecutedFlowBatch& b : executor->batches()) {
    result.schedule.push_back(ExecutedBatch{b.costs.emb, b.cut_ns,
                                            b.fabric_start_ns,
                                            b.fabric_end_ns,
                                            b.s1_start_ns, b.s1_end_ns,
                                            b.s2_start_ns, b.s2_end_ns,
                                            b.s3_start_ns, b.s3_end_ns});
  }
  return result;
}

}  // namespace

Result<ServeResult> RunServeSimulation(core::UpDlrmEngine& engine,
                                       std::span<const Request> requests,
                                       const ServeOptions& options) {
  return Serve(engine, requests, options);
}

Result<ServeResult> RunServeSimulation(core::ShardedEngine& engine,
                                       std::span<const Request> requests,
                                       const ServeOptions& options) {
  return Serve(engine, requests, options);
}

}  // namespace updlrm::serve
