// Discrete-event executor of batches under one DataFlowPlan, in
// simulated time.
//
// The embedding pipeline (Fig. 4) moves data over the host's DIMM buses
// in stages 1 (index push) and 3 (partial-sum pull), computes on the
// DPUs in stage 2 (lookup/reduce), and reduces the pulled partial sums
// on the host CPU cores (aggregation). With `depth` index/output
// buffer slots in MRAM, batch k+1's stage-1 push can proceed while
// batch k occupies the DPUs. The full DLRM request path adds the
// dense stages around it, so the executor models five simulated
// resources:
//   * fabric lane — the cross-host hop a remote rank's stage-1 indices
//     take before their bus push (StageBreakdown::ingress), FIFO from
//     each batch's cut; zero-length on a single-host engine;
//   * transfer lane — the host's bus transfers: stage-1 pushes (the
//     cpu_to_dpu - ingress bus part) and stage-3 pulls;
//   * core lane — the host's CPU work: stage-3 aggregation and every
//     CPU-placed dense task;
//   * DPU array — stage-2 kernel launches, FIFO;
//   * GPU — offloaded dense stages, FIFO (absent cost when unused).
// Stage 1 spans the fabric and transfer lanes: [fabric_start,
// fabric_end) on the fabric, then [s1_start, s1_end) on the bus, so
// batch k+1's hop overlaps batch k's push and pull. Stage 3 spans both
// host lanes: [s3_start, pull_end) on the transfer lane, then the
// aggregation, which ends at s3_end, on the core lane.
//
// Embedding-only serving is the plan with no dense stages: every dense
// cost is zero. Zero-cost dense tasks move no stage-1/2/3 instant, busy
// total, admission instant or makespan (tests/serve/executor_test.cc
// pins this against reference schedules), but they may queue behind
// later aggregation work, so an embedding-only batch completes at its
// s3_end_ns, not its done_ns.
//
// Lane scheduling contract (deterministic, work-conserving,
// non-preemptive per lane): stage 1 is scheduled directly at Submit.
// Its fabric hop starts at max(cut, fabric lane free); its bus push
// starts on the transfer lane at max(fabric end, lane free), ahead of
// any pull that would begin at or after the fabric end (keeping the
// DPUs fed); pulls then run FIFO as the lane frees. Kernel launches
// run FIFO on the DPUs, each at max(DPUs free, push end, output slot
// free). With no hop (ingress == 0) the fabric end is the cut and the
// schedule is the four-resource one, instant for instant.
// Whenever the core lane frees, it runs the ready task with the
// earliest possible start; ties break by priority class
//   aggregate > top > bottom-post > bottom-pre
// then FIFO by batch. Aggregation completes the embedding path and
// unblocks tops; the bottom-MLP tasks are overlap filler that soaks
// core idle while the DPUs own the batch. Tasks of both lanes start in
// global time order (a pull before a core task on equal instants), so
// an aggregation is always known to the core lane by the time its pull
// ends. Within a class, ready times are monotone in batch order, so
// each class is a FIFO queue and the schedule is independent of host
// thread count (simulated time only).
//
// Buffer slots: batch k uses index and output slot k mod depth.
// Admission: batch k may only be cut once batch k-depth's stage 2
// finished and freed its index slot. NextAdmitTime() exposes this to
// the batcher, which is how DPU backpressure propagates all the way to
// the request queue. Batch k's kernel may not start before batch
// k-depth's pull has ended, because its output slot is still being
// read.
//
// Coalescing under backlog. Stage 2 and the pull run as queued tasks
// on the DPUs and the transfer lane, started in the same global time
// order as the core lane's (a launch first on equal instants, then a
// pull, then the core classes). Each pays its fixed SDK cost
// (StageBreakdown::lookup_fixed / pull_fixed) once per call, however
// many batches it serves:
//   * a kernel launch starting at L also serves every following batch
//     (at most depth in all) whose push ended by L and whose output
//     slot is free by L; it runs for the first batch's dpu_lookup plus
//     each joiner's dpu_lookup - lookup_fixed;
//   * a pull call starting at P also takes every following batch
//     whose stage 2 ended by P, up to the end of the output-slot ring
//     (the SDK reads one MRAM range per call, so a run that wraps
//     splits into two calls); it runs for the first batch's dpu_to_cpu
//     plus each joiner's dpu_to_cpu - pull_fixed.
// A batch with a zero fixed share never joins (it would save nothing).
// Every batch a launch or call serves records its start and end;
// kernel_batches / pull_batches mark the batch that opened it. With no
// backlog nothing joins and the schedule is the one-batch-per-call
// schedule, instant for instant; depth 1 never coalesces.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "updlrm/pipelining.h"
#include "updlrm/report.h"

namespace updlrm::serve {

/// Where a dense stage executes.
enum class Backend : std::uint8_t { kCpu, kGpu };

/// One candidate data flow: stage placement + overlap structure.
struct DataFlowPlan {
  /// In-flight batches (MRAM index/output buffer pairs); 1 = serial
  /// admission, 2 = classic double buffering. Also the most batches one
  /// kernel launch or pull call serves.
  std::uint32_t depth = core::kDefaultPipelineDepth;
  /// Bottom-MLP layers run as the low-priority overlap filler task
  /// (BPRE) while the batch's embedding stages own the DPUs; the
  /// remaining layers run as the higher-priority BPOST task. The split
  /// tunes non-preemptive core-lane scheduling granularity: a long
  /// monolithic bottom task can delay an earlier batch's aggregation,
  /// a fully split one yields between the halves. CPU backend only
  /// (the GPU runs the whole stack as one offload).
  std::uint32_t bottom_split = 0;
  Backend bottom = Backend::kCpu;
  /// Backend of interaction + top MLP.
  Backend top = Backend::kCpu;

  bool operator==(const DataFlowPlan&) const = default;
};

/// Simulated durations of one batch's tasks under a plan. Embedding
/// stage times come from the engine (BatchResult); dense-stage times
/// are re-derived from the same CpuTimingModel the engine charges plus
/// the GPU model for offloaded placements. The interact / top_mlp
/// split exists so trace spans can partition the TOP task honestly.
struct BatchTaskCosts {
  core::StageBreakdown emb;
  Nanos bottom_pre = 0.0;   // core: overlapped bottom-MLP prefix
  Nanos bottom_post = 0.0;  // core: remaining bottom-MLP layers
  Nanos bottom_gpu = 0.0;   // gpu: whole bottom stack + PCIe + sync
  Nanos interact = 0.0;     // core: feature interaction stream pass
  Nanos top_mlp = 0.0;      // core: top-MLP GEMVs
  Nanos top_gpu = 0.0;      // gpu: interaction + top stack + PCIe + sync

  Nanos top_host() const { return interact + top_mlp; }
  Nanos bottom_host() const { return bottom_pre + bottom_post; }
};

/// The executed schedule of one batch under a data-flow plan. The
/// bottom stack runs as [bpre, bpost] on the core lane, or as one GPU
/// task recorded in the bpre fields (bpost collapses to zero length at
/// its end).
struct ExecutedFlowBatch {
  BatchTaskCosts costs;
  Nanos cut_ns = 0.0;                        // stage 1 may start here
  /// Stage 1's cross-host hop on the fabric lane (costs.emb.ingress
  /// long; empty at the cut on a single-host engine).
  Nanos fabric_start_ns = 0.0, fabric_end_ns = 0.0;
  Nanos s1_start_ns = 0.0, s1_end_ns = 0.0;  // CPU->DPU bus push
  Nanos s2_start_ns = 0.0, s2_end_ns = 0.0;  // DPU lookup/reduce
  /// Stage 3: the pull occupies the transfer lane over
  /// [s3_start, pull_end), the aggregation the core lane over
  /// [agg start, s3_end), starting at or after pull_end.
  Nanos s3_start_ns = 0.0, pull_end_ns = 0.0, s3_end_ns = 0.0;
  Nanos bpre_start_ns = 0.0, bpre_end_ns = 0.0;
  Nanos bpost_start_ns = 0.0, bpost_end_ns = 0.0;
  Nanos bottom_done_ns = 0.0;
  /// Interaction + top MLP (core lane or GPU per the plan). The interact
  /// part occupies [top_start, top_start + costs.interact).
  Nanos top_start_ns = 0.0, top_end_ns = 0.0;
  /// Batch completion == top_end_ns.
  Nanos done_ns = 0.0;
  /// On the batch that opened a kernel launch (pull call): how many
  /// batches it served, this one included. 0 on the batches that joined
  /// an earlier batch's launch (call).
  std::uint32_t kernel_batches = 0;
  std::uint32_t pull_batches = 0;
};

class DataFlowExecutor {
 public:
  explicit DataFlowExecutor(const DataFlowPlan& plan);

  /// Earliest simulated instant the next batch may be cut (the
  /// depth-bounded buffer window has a free slot). Monotone. Starts
  /// the launch that serves batch n - depth if it has not started yet
  /// (with every task that starts before it): no later cut can join or
  /// move it.
  Nanos NextAdmitTime();

  /// Pre-sizes the executed-schedule vector for `expected_batches`
  /// Submits, so steady-state Submit never reallocates.
  void Reserve(std::size_t expected_batches);

  /// Submits the next batch at its cut instant (>= previous cut, >=
  /// NextAdmitTime()). Stage 1 (fabric hop, then bus push) and a GPU
  /// bottom are scheduled eagerly; kernel launches, pulls, aggregation
  /// and core-lane dense tasks run as the lanes' time advances.
  /// Returns the batch index.
  std::size_t Submit(const BatchTaskCosts& costs, Nanos cut_ns);

  /// Runs every resource to completion. Call once after the last
  /// Submit; batches() then has every stage finalized.
  void Drain();

  const std::vector<ExecutedFlowBatch>& batches() const { return batches_; }
  /// Transfer-lane busy time: stage-1 bus pushes + stage-3 pulls (the
  /// fabric hops are not bus time).
  Nanos host_busy_ns() const { return xfer_busy_; }
  /// Fabric-lane busy time: every batch's stage-1 ingress.
  Nanos fabric_busy_ns() const { return fabric_busy_; }
  /// Core-lane busy time: aggregation + CPU dense tasks.
  Nanos host_core_busy_ns() const { return core_busy_; }
  Nanos dpu_busy_ns() const { return dpu_busy_; }
  Nanos gpu_busy_ns() const { return gpu_busy_; }
  /// Stage-2 kernel launches and stage-3 pull calls run so far.
  std::size_t kernel_launches() const { return kernel_launches_; }
  std::size_t pull_calls() const { return pull_calls_; }
  /// Core time spent in dense (MLP/interaction) tasks — a subset of
  /// host_core_busy_ns.
  Nanos host_mlp_busy_ns() const { return host_mlp_busy_; }

 private:
  // Queued task classes: the kernel launch runs on the DPUs, the pull
  // on the transfer lane (stage 1 is scheduled at Submit and never
  // queues), the rest on the core lane in priority order (lower =
  // higher priority).
  enum TaskClass : std::size_t {
    kLaunch = 0,
    kPull,
    kAgg,
    kTop,
    kBpost,
    kBpre,
    kNumClasses
  };

  // Starts the pending task with the earliest start instant if that
  // instant falls strictly before `until` (the task may overrun it).
  // Returns whether a task started.
  bool StartNext(Nanos until);
  // Starts pending tasks until none begins strictly before `until`.
  void Advance(Nanos until);
  // Ready time of the head task of `cls` for batch index `b`; negative
  // when its dependencies are not yet resolved.
  Nanos ReadyTime(std::size_t cls, std::size_t b) const;
  // When batch b's output slot is free: batch b - depth's pull end.
  // Negative while that pull has not started.
  Nanos SlotFree(std::size_t b) const;
  // Starts the kernel launch (pull call) opened by batch `b` at
  // `start`, taking every batch that may join it.
  void Launch(std::size_t b, Nanos start);
  void Pull(std::size_t b, Nanos start);
  // Applies completion of core-lane task (cls, b): writes the schedule,
  // resolves successors, schedules newly-unblocked GPU tops.
  void Complete(std::size_t cls, std::size_t b, Nanos start, Nanos dur);
  // Schedules GPU top tasks whose dependencies resolved, in batch
  // order.
  void ScheduleGpuTops();

  DataFlowPlan plan_;
  std::vector<ExecutedFlowBatch> batches_;
  // Head index per task class (tasks are FIFO within a class).
  std::size_t head_[kNumClasses] = {0, 0, 0, 0, 0, 0};
  // Batches whose stage-1 push is placed.
  std::size_t pushed_ = 0;
  std::size_t next_gpu_top_ = 0;
  Nanos fabric_free_ = 0.0;
  Nanos xfer_free_ = 0.0;
  Nanos core_free_ = 0.0;
  Nanos dpu_free_ = 0.0;
  Nanos gpu_free_ = 0.0;
  Nanos last_cut_ = 0.0;
  Nanos fabric_busy_ = 0.0;
  Nanos xfer_busy_ = 0.0;
  Nanos core_busy_ = 0.0;
  Nanos dpu_busy_ = 0.0;
  Nanos gpu_busy_ = 0.0;
  Nanos host_mlp_busy_ = 0.0;
  std::size_t kernel_launches_ = 0;
  std::size_t pull_calls_ = 0;
  bool drained_ = false;
};

}  // namespace updlrm::serve
