#include "serve/executor.h"

#include <algorithm>
#include <limits>

#include "common/status.h"

namespace updlrm::serve {

DataFlowExecutor::DataFlowExecutor(const DataFlowPlan& plan) : plan_(plan) {
  UPDLRM_CHECK_MSG(plan.depth >= 1,
                   "executor needs at least one buffer pair");
}

void DataFlowExecutor::Reserve(std::size_t expected_batches) {
  batches_.reserve(expected_batches);
}

Nanos DataFlowExecutor::NextAdmitTime() {
  if (batches_.size() < plan_.depth) return last_cut_;
  // The next batch reuses the index slot of batch (n - depth), free
  // once the launch that serves it has run. That launch starts before
  // any later cut, so starting it (and what precedes it) now is final.
  const std::size_t reuse = batches_.size() - plan_.depth;
  while (head_[kLaunch] <= reuse) {
    UPDLRM_CHECK_MSG(StartNext(std::numeric_limits<double>::infinity()),
                     "executor stalled before a pending launch");
  }
  return std::max(last_cut_, batches_[reuse].s2_end_ns);
}

Nanos DataFlowExecutor::SlotFree(std::size_t b) const {
  if (b < plan_.depth) return 0.0;
  const std::size_t prev = b - plan_.depth;
  return prev < head_[kPull] ? batches_[prev].pull_end_ns : -1.0;
}

Nanos DataFlowExecutor::ReadyTime(std::size_t cls, std::size_t b) const {
  const ExecutedFlowBatch& eb = batches_[b];
  switch (cls) {
    case kLaunch: {
      if (b >= pushed_) return -1.0;
      const Nanos slot = SlotFree(b);
      if (slot < 0.0) return -1.0;
      return std::max(eb.s1_end_ns, slot);
    }
    case kPull:
      if (b >= head_[kLaunch]) return -1.0;
      return eb.s2_end_ns;
    case kAgg:
      if (b >= head_[kPull]) return -1.0;
      return eb.pull_end_ns;
    case kTop: {
      // Needs the aggregated embeddings AND the bottom stack.
      if (b >= head_[kAgg]) return -1.0;
      const bool bottom_resolved =
          plan_.bottom == Backend::kGpu || b < head_[kBpost];
      if (!bottom_resolved) return -1.0;
      return std::max(eb.s3_end_ns, eb.bottom_done_ns);
    }
    case kBpost:
      if (b >= head_[kBpre]) return -1.0;
      return eb.bpre_end_ns;
    case kBpre:
      return eb.cut_ns;
  }
  return -1.0;
}

void DataFlowExecutor::Launch(std::size_t b, Nanos start) {
  Nanos dur = batches_[b].costs.emb.dpu_lookup;
  std::size_t end = b + 1;
  // Joiners: pushed by the launch, output slot free by then, and a
  // fixed share to save.
  while (end < pushed_ && end - b < plan_.depth) {
    const ExecutedFlowBatch& next = batches_[end];
    const Nanos slot = SlotFree(end);
    if (next.costs.emb.lookup_fixed <= 0.0 || next.s1_end_ns > start ||
        slot < 0.0 || slot > start) {
      break;
    }
    dur += next.costs.emb.dpu_lookup - next.costs.emb.lookup_fixed;
    ++end;
  }
  for (std::size_t k = b; k < end; ++k) {
    batches_[k].s2_start_ns = start;
    batches_[k].s2_end_ns = start + dur;
  }
  batches_[b].kernel_batches = static_cast<std::uint32_t>(end - b);
  head_[kLaunch] = end;
  dpu_free_ = start + dur;
  dpu_busy_ += dur;
  ++kernel_launches_;
}

void DataFlowExecutor::Pull(std::size_t b, Nanos start) {
  Nanos dur = batches_[b].costs.emb.dpu_to_cpu;
  std::size_t end = b + 1;
  // Joiners: stage 2 done by the call, a fixed share to save, and the
  // next output slot in the same pass over the ring.
  while (end < head_[kLaunch] && end % plan_.depth != 0) {
    const ExecutedFlowBatch& next = batches_[end];
    if (next.costs.emb.pull_fixed <= 0.0 || next.s2_end_ns > start) break;
    dur += next.costs.emb.dpu_to_cpu - next.costs.emb.pull_fixed;
    ++end;
  }
  for (std::size_t k = b; k < end; ++k) {
    batches_[k].s3_start_ns = start;
    batches_[k].pull_end_ns = start + dur;
  }
  batches_[b].pull_batches = static_cast<std::uint32_t>(end - b);
  head_[kPull] = end;
  xfer_free_ = start + dur;
  xfer_busy_ += dur;
  ++pull_calls_;
}

void DataFlowExecutor::ScheduleGpuTops() {
  while (next_gpu_top_ < batches_.size()) {
    const Nanos ready = ReadyTime(kTop, next_gpu_top_);
    if (ready < 0.0) break;  // aggregate or bottom not yet resolved
    ExecutedFlowBatch& eb = batches_[next_gpu_top_];
    eb.top_start_ns = std::max(gpu_free_, ready);
    eb.top_end_ns = eb.top_start_ns + eb.costs.top_gpu;
    eb.done_ns = eb.top_end_ns;
    gpu_free_ = eb.top_end_ns;
    gpu_busy_ += eb.costs.top_gpu;
    ++next_gpu_top_;
  }
}

void DataFlowExecutor::Complete(std::size_t cls, std::size_t b, Nanos start,
                                Nanos dur) {
  ExecutedFlowBatch& eb = batches_[b];
  switch (cls) {
    case kAgg:
      eb.s3_end_ns = start + dur;
      break;
    case kTop:
      eb.top_start_ns = start;
      eb.top_end_ns = start + dur;
      eb.done_ns = eb.top_end_ns;
      break;
    case kBpost:
      eb.bpost_start_ns = start;
      eb.bpost_end_ns = start + dur;
      eb.bottom_done_ns = eb.bpost_end_ns;
      break;
    case kBpre:
      eb.bpre_start_ns = start;
      eb.bpre_end_ns = start + dur;
      break;
  }
  if (plan_.top == Backend::kGpu && (cls == kAgg || cls == kBpost)) {
    ScheduleGpuTops();
  }
}

bool DataFlowExecutor::StartNext(Nanos until) {
  const bool bottom_host = plan_.bottom == Backend::kCpu;
  const bool top_host = plan_.top == Backend::kCpu;
  std::size_t best_cls = kNumClasses;
  Nanos best_start = std::numeric_limits<double>::infinity();
  // One scan over every queue's head, in class order, with a strict <:
  // the earliest start runs first, and ties break toward the launch
  // (so its pull is resolved), then the pull (so its aggregation is),
  // and then toward the higher-priority core class.
  for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
    if (!top_host && cls == kTop) continue;
    if (!bottom_host && (cls == kBpre || cls == kBpost)) continue;
    const std::size_t b = head_[cls];
    if (b >= batches_.size()) continue;
    const Nanos ready = ReadyTime(cls, b);
    if (ready < 0.0) continue;  // dependencies unresolved
    const Nanos lane_free = cls == kLaunch ? dpu_free_
                            : cls == kPull ? xfer_free_
                                           : core_free_;
    const Nanos start = std::max(lane_free, ready);
    if (start < best_start) {
      best_start = start;
      best_cls = cls;
    }
  }
  if (best_cls == kNumClasses || best_start >= until) return false;
  const std::size_t b = head_[best_cls];
  if (best_cls == kLaunch) {
    Launch(b, best_start);
    return true;
  }
  if (best_cls == kPull) {
    Pull(b, best_start);
    return true;
  }
  ++head_[best_cls];
  const BatchTaskCosts& c = batches_[b].costs;
  Nanos dur = 0.0;
  switch (best_cls) {
    case kAgg:
      dur = c.emb.cpu_aggregate;
      break;
    case kTop:
      dur = c.top_host();
      break;
    case kBpost:
      dur = c.bottom_post;
      break;
    case kBpre:
      dur = c.bottom_pre;
      break;
  }
  Complete(best_cls, b, best_start, dur);
  core_free_ = best_start + dur;
  core_busy_ += dur;
  if (best_cls != kAgg) host_mlp_busy_ += dur;
  return true;
}

void DataFlowExecutor::Advance(Nanos until) {
  while (StartNext(until)) {
  }
}

std::size_t DataFlowExecutor::Submit(const BatchTaskCosts& costs,
                                     Nanos cut_ns) {
  UPDLRM_CHECK_MSG(!drained_, "Submit after Drain");
  UPDLRM_CHECK_MSG(cut_ns >= NextAdmitTime() - 1e-9,
                   "batch cut before its buffer pair was free");
  // Let every lane work up to the cut, before this batch's eager GPU
  // offload takes its place in the GPU's FIFO.
  Advance(cut_ns);

  ExecutedFlowBatch b;
  b.costs = costs;
  b.cut_ns = cut_ns;
  // The cross-host hop runs FIFO on the fabric lane from the cut.
  b.fabric_start_ns = std::max(cut_ns, fabric_free_);
  b.fabric_end_ns = b.fabric_start_ns + costs.emb.ingress;
  fabric_free_ = b.fabric_end_ns;
  fabric_busy_ += costs.emb.ingress;
  if (plan_.bottom == Backend::kGpu) {
    // One eager offload per batch; the GPU is FIFO in schedule order.
    b.bpre_start_ns = std::max(gpu_free_, cut_ns);
    b.bpre_end_ns = b.bpre_start_ns + costs.bottom_gpu;
    b.bpost_start_ns = b.bpre_end_ns;
    b.bpost_end_ns = b.bpre_end_ns;
    b.bottom_done_ns = b.bpre_end_ns;
    gpu_free_ = b.bpre_end_ns;
    gpu_busy_ += costs.bottom_gpu;
  }
  // Until its push is placed, the batch's launch is not ready; its
  // core tasks (the bottom prefix, ready at the cut) already compete.
  last_cut_ = cut_ns;
  batches_.push_back(b);

  // Then up to the fabric hop's end (monotone: the fabric lane is
  // FIFO; with no hop this adds no work): pulls that would begin at or
  // after it yield to the new stage-1 push (stage-1 priority on ties
  // keeps the DPUs fed).
  Advance(b.fabric_end_ns);

  ExecutedFlowBatch& pushed = batches_.back();
  const Nanos bus = costs.emb.cpu_to_dpu - costs.emb.ingress;
  pushed.s1_start_ns = std::max(pushed.fabric_end_ns, xfer_free_);
  // A push the lane does not hold up ends one whole stage 1 after its
  // hop began, to the bit (hop + bus need not round to cpu_to_dpu).
  pushed.s1_end_ns = pushed.s1_start_ns == pushed.fabric_end_ns
                         ? pushed.fabric_start_ns + costs.emb.cpu_to_dpu
                         : pushed.s1_start_ns + bus;
  xfer_free_ = pushed.s1_end_ns;
  xfer_busy_ += bus;
  ++pushed_;
  return batches_.size() - 1;
}

void DataFlowExecutor::Drain() {
  Advance(std::numeric_limits<double>::infinity());
  if (plan_.top == Backend::kGpu) ScheduleGpuTops();
  drained_ = true;
}

}  // namespace updlrm::serve
