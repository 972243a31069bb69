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
    std::span<const StageBreakdown> batches, std::uint32_t depth) {
  PipelineEstimate estimate;
  if (batches.empty()) return estimate;  // nothing executed, zero bound
  Nanos lookup_fixed = batches.front().lookup_fixed;
  Nanos pull_fixed = batches.front().pull_fixed;
  for (const StageBreakdown& b : batches) {
    estimate.serial_ns += b.EmbeddingTotal();
    estimate.host_work_ns +=
        (b.cpu_to_dpu - b.ingress) + (b.dpu_to_cpu - b.pull_fixed);
    estimate.dpu_work_ns += b.dpu_lookup - b.lookup_fixed;
    estimate.core_work_ns += b.cpu_aggregate;
    estimate.fabric_work_ns += b.ingress;
    lookup_fixed = std::min(lookup_fixed, b.lookup_fixed);
    pull_fixed = std::min(pull_fixed, b.pull_fixed);
  }
  // At most `depth` batches share a launch or a call.
  const std::size_t d = std::max<std::uint32_t>(depth, 1);
  const auto calls = static_cast<double>((batches.size() + d - 1) / d);
  estimate.dpu_work_ns += calls * lookup_fixed;
  estimate.host_work_ns += calls * pull_fixed;
  // Each resource waits for the work that must precede its first task
  // (fill) and is followed by the work that must succeed its last one
  // (drain). The first batch opens its launch and its call, so it pays
  // whole stages; the last batch's pull may ride an earlier batch's
  // call.
  const StageBreakdown& first = batches.front();
  const StageBreakdown& last = batches.back();
  const Nanos last_pull = last.dpu_to_cpu - last.pull_fixed + pull_fixed;
  const Nanos transfer =
      first.ingress + estimate.host_work_ns + last.cpu_aggregate;
  const Nanos dpu = first.cpu_to_dpu + estimate.dpu_work_ns + last_pull +
                    last.cpu_aggregate;
  const Nanos core = first.cpu_to_dpu + first.dpu_lookup +
                     first.dpu_to_cpu + estimate.core_work_ns;
  const Nanos fabric = estimate.fabric_work_ns +
                       (last.cpu_to_dpu - last.ingress) + last_pull +
                       last.cpu_aggregate;
  estimate.pipelined_ns = std::max({transfer, dpu, core, fabric});
  return estimate;
}

}  // namespace updlrm::core
