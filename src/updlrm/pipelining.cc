#include "updlrm/pipelining.h"

#include <algorithm>

namespace updlrm::core {

std::string_view ResourceName(PipelineResource resource) {
  switch (resource) {
    case PipelineResource::kTransferLane:
      return "host transfers";
    case PipelineResource::kDpus:
      return "DPU lookups";
    case PipelineResource::kCoreLane:
      return "host cores";
    case PipelineResource::kFabric:
      return "cross-host fabric";
  }
  return "?";
}

PipelineResource PipelineEstimate::Binding() const {
  if (host_work_ns >= dpu_work_ns && host_work_ns >= core_work_ns &&
      host_work_ns >= fabric_work_ns) {
    return PipelineResource::kTransferLane;
  }
  if (dpu_work_ns >= core_work_ns && dpu_work_ns >= fabric_work_ns) {
    return PipelineResource::kDpus;
  }
  return core_work_ns >= fabric_work_ns ? PipelineResource::kCoreLane
                                        : PipelineResource::kFabric;
}

PipelineEstimate EstimatePipelinedEmbedding(
    std::span<const StageBreakdown> batches) {
  PipelineEstimate estimate;
  if (batches.empty()) return estimate;  // nothing executed, zero bound
  for (const StageBreakdown& b : batches) {
    estimate.serial_ns += b.EmbeddingTotal();
    estimate.host_work_ns += (b.cpu_to_dpu - b.ingress) + b.dpu_to_cpu;
    estimate.dpu_work_ns += b.dpu_lookup;
    estimate.core_work_ns += b.cpu_aggregate;
    estimate.fabric_work_ns += b.ingress;
  }
  // Each resource waits for the work that must precede its first task
  // (fill) and is followed by the work that must succeed its last one
  // (drain).
  const StageBreakdown& first = batches.front();
  const StageBreakdown& last = batches.back();
  const Nanos transfer =
      first.ingress + estimate.host_work_ns + last.cpu_aggregate;
  const Nanos dpu = first.cpu_to_dpu + estimate.dpu_work_ns +
                    last.dpu_to_cpu + last.cpu_aggregate;
  const Nanos core = first.cpu_to_dpu + first.dpu_lookup +
                     first.dpu_to_cpu + estimate.core_work_ns;
  const Nanos fabric = estimate.fabric_work_ns +
                       (last.cpu_to_dpu - last.ingress) + last.dpu_to_cpu +
                       last.cpu_aggregate;
  estimate.pipelined_ns = std::max({transfer, dpu, core, fabric});
  return estimate;
}

}  // namespace updlrm::core
