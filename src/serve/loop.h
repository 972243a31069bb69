// The discrete-event serve loop shared by every serving simulation:
// open-loop arrivals -> bounded request queue -> dynamic batcher -> the
// engine's batch run -> DataFlowExecutor under one plan, then per-
// request latencies, tail metrics, trace spans and monitor feeds from
// the executed schedule. Simulated time only, so every scorecard field
// is bit-exact across host thread counts, tracing and monitoring.
//
// EngineT is the flat UpDlrmEngine or the sharded scale-out engine.
// PathT says what a batch means beyond its embedding stages:
//   Result<BatchTaskCosts> OnBatch(samples, const BatchResult&);
//   Nanos Done(const ExecutedFlowBatch&) const;  // completion instant
//   void NameTracks() const;                       // extra trace tracks
//   void TraceBatch(const ExecutedFlowBatch&, std::size_t b) const;
// serve/server.cc prices zero dense costs and completes at stage 3;
// pipeline/runner.cc prices (and computes) the dense stages and
// completes at the top MLP.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "check/report.h"
#include "common/status.h"
#include "serve/batcher.h"
#include "serve/executor.h"
#include "serve/metrics.h"
#include "serve/workload.h"
#include "telemetry/monitor.h"
#include "telemetry/tracer.h"
#include "updlrm/engine.h"
#include "updlrm/timeline.h"

namespace updlrm::core {
class ShardedEngine;  // updlrm/scaleout.h
}  // namespace updlrm::core

namespace updlrm::serve {

/// InvalidArgument unless the batcher and the buffer window can run:
/// max_batch_size >= 1, max_queue_delay_ns >= 0 and depth >= 1.
Status ValidateServeLoop(const BatcherOptions& batcher, std::uint32_t depth);

/// Check mode: audits an executed schedule (cut order, `depth` buffer
/// slots) into `report` — each batch's stage order plus the slot edges
/// (check::AuditStageOrdering). Observation only.
void AuditSchedule(std::span<const ExecutedFlowBatch> schedule,
                   std::uint32_t depth, check::CheckReport* report);

/// Per-unit cumulative work (kernel cycles + index wire bytes) for the
/// monitor's straggler scorer. Flat engine: units are its DPUs. Sharded
/// fleet: every shard's DPUs in shard order.
void SampleUnitWork(const core::UpDlrmEngine& engine,
                    std::vector<std::uint64_t>& out);
void SampleUnitWork(const core::ShardedEngine& engine,
                    std::vector<std::uint64_t>& out);

/// Serves `requests` (time-ordered) on `engine` under `plan`, filling
/// `result`. Returns the drained executor, whose batches() is the
/// executed schedule in cut order. Fails on invalid options (see
/// ValidateServeLoop), a request outside the engine's trace, or an
/// OnBatch error.
template <typename EngineT, typename PathT>
Result<DataFlowExecutor> RunServeLoop(EngineT& engine,
                                      std::span<const Request> requests,
                                      const BatcherOptions& batcher_options,
                                      const DataFlowPlan& plan,
                                      telemetry::FleetMonitor* monitor_option,
                                      PathT& path, ServeScorecard& result) {
  if (Status valid = ValidateServeLoop(batcher_options, plan.depth);
      !valid.ok()) {
    return valid;
  }
  DynamicBatcher batcher(batcher_options);
  DataFlowExecutor executor(plan);
  result.offered = requests.size();

  // Tracing: the serve loop runs on one thread, so all emission below
  // is single-threaded. Request spans and per-batch timelines are
  // emitted post-drain (only then are completions known); everything
  // is simulated-clock and pure observation.
  const bool tracing = telemetry::TraceEnabled();
  telemetry::Tracer& tracer = telemetry::Tracer::Get();
  const std::uint64_t sample_every =
      tracing ? tracer.options().sample_every : 1;
  using telemetry::Clock;
  using telemetry::kDpuTrack;
  using telemetry::kFabricTrack;
  using telemetry::kHostBusTrack;
  using telemetry::kHostCoreTrack;
  using telemetry::kPipelinePid;
  using telemetry::kRequestPid;

  // Fleet-health monitor: observation only, fed at the single-threaded
  // loop boundaries. The pre-loop sample anchors the cumulative unit
  // counters so window 0's deltas cover the first batch even when the
  // engine served earlier runs.
  telemetry::FleetMonitor* const monitor =
      telemetry::MonitorEnabled(monitor_option) ? monitor_option : nullptr;
  std::vector<std::uint64_t> unit_work;
  if (monitor != nullptr) {
    SampleUnitWork(engine, unit_work);
    monitor->OnUnitSample(0.0, unit_work);
  }

  // Flat request log: every cut appends its requests here (for latency
  // attribution) and records its start offset in batch_start — one
  // up-front reservation instead of a vector<vector> that allocates per
  // batch. batch_start gets a closing sentinel after the serve loop.
  const std::size_t expected_batches =
      requests.size() / batcher_options.max_batch_size + 2;
  std::vector<QueuedRequest> request_log;
  request_log.reserve(requests.size());
  std::vector<std::size_t> batch_start;
  batch_start.reserve(expected_batches + 1);
  std::vector<std::size_t> samples;  // sample-id scratch per cut
  samples.reserve(batcher_options.max_batch_size);
  // Per cut batch (tracing only): the engine's stage-2 launch records,
  // and the stage-1 push's widths and largest per-DPU buffer.
  struct TracedBatch {
    std::shared_ptr<const core::BatchDpuTrace> dpu;
    pim::IndexWire wire;
    std::uint64_t max_index_bytes = 0;
  };
  std::vector<TracedBatch> batch_traces;
  executor.Reserve(expected_batches);
  result.queue_depth.reserve(expected_batches);
  result.request_latency_ns.reserve(requests.size());

  auto offer = [&](const Request& r, Nanos now) {
    if (batcher.Offer(r, now) == Admission::kShed && tracing) {
      tracer.InstantAt(kRequestPid, 0, Clock::kSim, "shed", now, "request",
                       static_cast<double>(r.id));
    }
  };

  // The discrete-event scan. State changes happen at three kinds of
  // instants — arrivals, batcher deadlines, and executor buffer frees —
  // and all three sequences are non-decreasing, so one forward pass
  // over time suffices. Tie order at equal timestamps: arrivals are
  // offered before a deadline cut is taken (a request arriving exactly
  // at max_queue_delay joins the closing batch), and a cut happens as
  // soon as both the batcher is due and the executor admits.
  std::size_t next = 0;  // next unprocessed arrival
  while (next < requests.size() || !batcher.Idle()) {
    // Earliest instant the executor could accept a cut.
    Nanos t = executor.NextAdmitTime();
    // Offer everything that has already arrived by then.
    while (next < requests.size() && requests[next].arrival_ns <= t) {
      offer(requests[next], requests[next].arrival_ns);
      ++next;
    }
    // Walk forward until the batcher is due.
    while (!batcher.ReadyToCut(t)) {
      const Nanos next_arrival = next < requests.size()
                                     ? requests[next].arrival_ns
                                     : DynamicBatcher::kNever;
      const Nanos deadline = batcher.NextDeadline();
      const Nanos event = std::min(next_arrival, deadline);
      if (event == DynamicBatcher::kNever) break;  // drained
      t = std::max(t, event);
      while (next < requests.size() && requests[next].arrival_ns <= t) {
        offer(requests[next], requests[next].arrival_ns);
        ++next;
      }
    }
    if (!batcher.ReadyToCut(t)) break;  // nothing left to serve

    batch_start.push_back(request_log.size());
    batcher.CutInto(t, request_log);
    samples.clear();
    for (std::size_t i = batch_start.back(); i < request_log.size(); ++i) {
      samples.push_back(request_log[i].request.sample);
    }
    auto batch = engine.RunSamples(samples, nullptr);
    if (!batch.ok()) return batch.status();
    auto costs = path.OnBatch(std::span<const std::size_t>(samples), *batch);
    if (!costs.ok()) return costs.status();

    executor.Submit(*costs, t);
    if (tracing) {
      batch_traces.push_back(TracedBatch{batch->dpu_trace, batch->index_wire,
                                         batch->max_index_bytes});
    }
    result.queue_depth.push_back(QueueDepthSample{t, batcher.queue_depth()});
    if (monitor != nullptr) {
      // Cumulative unit counters only exist mid-run, so the straggler
      // stream samples at cut times; cut times are non-decreasing.
      SampleUnitWork(engine, unit_work);
      monitor->OnUnitSample(t, unit_work);
    }
  }
  batch_start.push_back(request_log.size());  // closing sentinel

  executor.Drain();
  const std::vector<ExecutedFlowBatch>& schedule = executor.batches();
  // Completions are FIFO per resource with batch-monotone ready times,
  // so the last batch completes last.
  result.makespan_ns = schedule.empty() ? 0.0 : path.Done(schedule.back());
  result.num_batches = batch_start.size() - 1;
  result.shed = batcher.shed_count();
  result.max_queue_depth = batcher.max_queue_depth();
  result.utilization.host_busy_ns = executor.host_busy_ns();
  result.utilization.host_core_busy_ns = executor.host_core_busy_ns();
  result.utilization.dpu_busy_ns = executor.dpu_busy_ns();
  result.utilization.host_mlp_busy_ns = executor.host_mlp_busy_ns();
  result.utilization.gpu_busy_ns = executor.gpu_busy_ns();
  result.utilization.fabric_busy_ns = executor.fabric_busy_ns();
  result.utilization.kernel_launches = executor.kernel_launches();
  result.utilization.pull_calls = executor.pull_calls();
  result.utilization.makespan_ns = result.makespan_ns;

  if (tracing) {
    tracer.SetThreadName(kPipelinePid, kHostBusTrack,
                         "host transfer lane (stage 1/3 buses)");
    tracer.SetThreadName(kPipelinePid, kHostCoreTrack,
                         "host core lane (aggregate / dense)");
    tracer.SetThreadName(kPipelinePid, kDpuTrack, "DPU array (stage 2)");
    if (executor.fabric_busy_ns() > 0.0) {
      tracer.SetThreadName(kPipelinePid, kFabricTrack,
                           "fabric lane (stage 1 cross-host hop)");
    }
    path.NameTracks();
    for (const QueueDepthSample& s : result.queue_depth) {
      tracer.Counter(kPipelinePid, Clock::kSim, "queue_depth", s.t_ns,
                     static_cast<double>(s.depth));
    }
  }

  std::uint64_t served = 0;
  for (std::size_t b = 0; b + 1 < batch_start.size(); ++b) {
    const ExecutedFlowBatch& sched = schedule[b];
    const Nanos done = path.Done(sched);
    if (tracing) {
      if (b % sample_every == 0) {
        const TracedBatch& traced = batch_traces[b];
        if (sched.costs.emb.ingress > 0.0) {
          tracer.Complete(kPipelinePid, kFabricTrack, Clock::kSim,
                          "stage1.fabric", sched.fabric_start_ns,
                          sched.fabric_end_ns - sched.fabric_start_ns,
                          "batch", static_cast<double>(b));
        }
        tracer.Complete(kPipelinePid, kHostBusTrack, Clock::kSim, "stage1.push",
                        sched.s1_start_ns,
                        sched.s1_end_ns - sched.s1_start_ns, "batch",
                        static_cast<double>(b), "id_bytes",
                        traced.wire.id_bytes, "offset_bytes",
                        traced.wire.offset_bytes, "max_dpu_bytes",
                        static_cast<double>(traced.max_index_bytes));
        // One span per kernel launch and per pull call, on the batch
        // that opened it.
        if (sched.kernel_batches > 0) {
          tracer.Complete(kPipelinePid, kDpuTrack, Clock::kSim,
                          "stage2.kernel", sched.s2_start_ns,
                          sched.s2_end_ns - sched.s2_start_ns, "batches",
                          sched.kernel_batches);
        }
        if (sched.pull_batches > 0) {
          tracer.Complete(kPipelinePid, kHostBusTrack, Clock::kSim,
                          "stage3.pull", sched.s3_start_ns,
                          sched.pull_end_ns - sched.s3_start_ns, "batches",
                          sched.pull_batches);
        }
        tracer.Complete(kPipelinePid, kHostCoreTrack, Clock::kSim,
                        "stage3.aggregate",
                        sched.s3_end_ns - sched.costs.emb.cpu_aggregate,
                        sched.costs.emb.cpu_aggregate);
        path.TraceBatch(sched, b);
        // Per-DPU slices for the batch that opened the launch; the
        // batches that joined it share its kernel span.
        if (traced.dpu != nullptr && sched.kernel_batches > 0) {
          core::EmitBatchDpuTimeline(engine.dpu_system(), *traced.dpu,
                                     b, sched.s2_start_ns,
                                     /*tasklet_detail=*/true);
        }
      } else {
        tracer.CountSampledOut();
      }
    }
    const std::span<const QueuedRequest> batch_requests(
        request_log.data() + batch_start[b],
        batch_start[b + 1] - batch_start[b]);
    if (monitor != nullptr) {
      // SLO stream: completions at the batch's done instant
      // (non-decreasing over b).
      for (const QueuedRequest& q : batch_requests) {
        monitor->OnRequest(done, done - q.request.arrival_ns);
      }
    }
    for (const QueuedRequest& q : batch_requests) {
      result.request_latency_ns.push_back(done - q.request.arrival_ns);
      ++served;
      if (!tracing) continue;
      // 1-in-N request spans, keyed on the stable request id so the
      // same requests are traced at any thread count.
      if (q.request.id % sample_every != 0) {
        ++result.requests_sampled_out;
        tracer.CountSampledOut();
        continue;
      }
      ++result.requests_traced;
      // Nested async spans sharing the request's id:
      //   lifetime [arrival, done)
      //     queued  [admission, batch cut)
      //     execute [batch cut, done)
      tracer.AsyncBegin(kRequestPid, q.request.id, Clock::kSim,
                        "request", "request", q.request.arrival_ns);
      tracer.AsyncBegin(kRequestPid, q.request.id, Clock::kSim, "queued",
                        "request", q.admit_ns);
      tracer.AsyncEnd(kRequestPid, q.request.id, Clock::kSim, "queued",
                      "request", sched.cut_ns);
      tracer.AsyncBegin(kRequestPid, q.request.id, Clock::kSim, "execute",
                        "request", sched.cut_ns);
      tracer.AsyncEnd(kRequestPid, q.request.id, Clock::kSim, "execute",
                      "request", done);
      tracer.AsyncEnd(kRequestPid, q.request.id, Clock::kSim, "request",
                      "request", done);
    }
  }
  result.completed = served;
  if (result.num_batches > 0) {
    result.avg_batch_size = static_cast<double>(served) /
                            static_cast<double>(result.num_batches);
  }
  UPDLRM_CHECK_MSG(result.completed + result.shed == result.offered,
                   "serving accounting mismatch");
  return executor;
}

}  // namespace updlrm::serve
