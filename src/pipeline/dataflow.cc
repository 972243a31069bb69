#include "pipeline/dataflow.h"

#include <algorithm>

#include "check/dataflow_audit.h"
#include "dlrm/interaction.h"

namespace updlrm::pipeline {

std::string_view BackendName(Backend b) {
  return b == Backend::kCpu ? "cpu" : "gpu";
}

std::string Name(const DataFlowPlan& plan) {
  std::string name = "d";
  name += std::to_string(plan.depth);
  name += ".split";
  name += std::to_string(plan.bottom_split);
  name += ".";
  name += BackendName(plan.bottom);
  name += "-";
  name += BackendName(plan.top);
  return name;
}

std::vector<DataFlowPlan> EnumerateDataFlows(const DataFlowSpace& space) {
  const std::uint32_t max_depth =
      std::min(std::max<std::uint32_t>(space.max_depth, 1),
               check::kMaxPipelineDepth);
  const std::uint32_t layers = std::max<std::uint32_t>(space.bottom_layers, 1);
  std::vector<DataFlowPlan> plans;
  for (std::uint32_t depth = 1; depth <= max_depth; ++depth) {
    for (std::uint32_t split = 0; split <= layers; ++split) {
      for (const Backend bottom : {Backend::kCpu, Backend::kGpu}) {
        if (bottom == Backend::kGpu && (!space.allow_gpu || split != 0)) {
          continue;  // the GPU runs the whole stack as one offload
        }
        for (const Backend top : {Backend::kCpu, Backend::kGpu}) {
          if (top == Backend::kGpu && !space.allow_gpu) continue;
          DataFlowPlan plan;
          plan.depth = depth;
          plan.bottom_split = split;
          plan.bottom = bottom;
          plan.top = top;
          plans.push_back(plan);
        }
      }
    }
  }
  return plans;
}

namespace {

// MAC FLOPs of bottom-MLP layers [first, last) — dims are
// {dense, hidden..., embedding_dim}, layer l maps dims[l] -> dims[l+1].
std::uint64_t BottomLayerFlops(const dlrm::DlrmConfig& config,
                               std::uint32_t first, std::uint32_t last) {
  std::vector<std::uint32_t> dims;
  dims.push_back(config.dense_features);
  dims.insert(dims.end(), config.bottom_hidden.begin(),
              config.bottom_hidden.end());
  dims.push_back(config.embedding_dim);
  std::uint64_t flops = 0;
  for (std::uint32_t l = first; l < last && l + 1 < dims.size(); ++l) {
    flops += 2ULL * dims[l] * dims[l + 1];
  }
  return flops;
}

}  // namespace

BatchTaskCosts ComputeBatchTaskCosts(const dlrm::DlrmConfig& config,
                                     const host::CpuTimingModel& cpu,
                                     const host::GpuTimingModel& gpu,
                                     const core::BatchResult& batch,
                                     std::size_t batch_size,
                                     const DataFlowPlan& plan) {
  const std::uint64_t n = batch_size;
  const std::uint32_t bottom_layers =
      static_cast<std::uint32_t>(config.bottom_hidden.size()) + 1;
  const std::uint32_t top_layers =
      static_cast<std::uint32_t>(config.top_hidden.size()) + 1;
  const std::uint32_t inter_dim = dlrm::InteractionOutputDim(
      config.interaction, config.num_tables, config.embedding_dim);
  // The interaction reads tables+1 feature vectors per sample (pooled
  // embeddings + the bottom output) — the same stream-pass accounting
  // as the engine's interaction_top term.
  const std::uint64_t interact_bytes =
      n * static_cast<std::uint64_t>(config.num_tables + 1) *
      config.embedding_dim * 4;

  BatchTaskCosts costs;
  costs.emb = batch.stages;

  const std::uint32_t split = std::min(plan.bottom_split, bottom_layers);
  if (plan.bottom == Backend::kCpu) {
    costs.bottom_pre =
        cpu.MlpTime(n * BottomLayerFlops(config, 0, split));
    costs.bottom_post =
        cpu.MlpTime(n * BottomLayerFlops(config, split, bottom_layers));
  } else {
    // One offload: dense rows up, bottom features down, whole stack as
    // per-layer kernels, plus the per-batch sync tax that makes GPU
    // placement batch-size dependent.
    costs.bottom_gpu =
        gpu.MlpTime(n * config.BottomFlopsPerSample(), bottom_layers) +
        gpu.PcieTransfer(n * static_cast<std::uint64_t>(
                                 config.dense_features) * 4) +
        gpu.PcieTransfer(n * static_cast<std::uint64_t>(
                                 config.embedding_dim) * 4) +
        gpu.BatchSyncOverhead();
  }

  costs.interact = cpu.StreamTime(interact_bytes);
  costs.top_mlp = cpu.MlpTime(n * config.TopFlopsPerSample());
  if (plan.top == Backend::kGpu) {
    // Pooled embeddings (+ bottom features when they are host-side) go
    // up, one CTR per sample comes down; the interaction runs as a
    // device-memory stream pass.
    costs.top_gpu =
        gpu.MlpTime(n * config.TopFlopsPerSample(), top_layers) +
        gpu.PcieTransfer(interact_bytes) + gpu.PcieTransfer(n * 4) +
        static_cast<Nanos>(static_cast<double>(n) * inter_dim * 4 /
                           gpu.params().mem_bytes_per_sec *
                           kNanosPerSecond) +
        gpu.BatchSyncOverhead();
  }
  return costs;
}

Nanos PredictPeriod(const BatchTaskCosts& c, const DataFlowPlan& plan) {
  const bool bottom_gpu = plan.bottom == Backend::kGpu;
  const bool top_gpu = plan.top == Backend::kGpu;
  // Per-batch busy time on each executor resource (serve/executor.h);
  // the fabric lane carries stage 1's cross-host hop, the transfer
  // lane only its bus part. At saturation every launch and pull call
  // serves `depth` batches, so each pays 1/depth of the fixed shares.
  const double shared = 1.0 - 1.0 / static_cast<double>(plan.depth);
  const Nanos transfer = (c.emb.cpu_to_dpu - c.emb.ingress) +
                         (c.emb.dpu_to_cpu - c.emb.pull_fixed * shared);
  const Nanos core = c.emb.cpu_aggregate +
                     (bottom_gpu ? 0.0 : c.bottom_host()) +
                     (top_gpu ? 0.0 : c.top_host());
  const Nanos dpu = c.emb.dpu_lookup - c.emb.lookup_fixed * shared;
  const Nanos gpu = (bottom_gpu ? c.bottom_gpu : 0.0) +
                    (top_gpu ? c.top_gpu : 0.0);
  Nanos period = std::max({transfer, core, dpu, gpu, c.emb.ingress});
  // Depth 1 serializes admission on the previous batch's stage-2
  // completion, so the cut-to-cut period cannot beat push + lookup.
  if (plan.depth <= 1) {
    period = std::max(period, c.emb.cpu_to_dpu + c.emb.dpu_lookup);
  }
  return period;
}

Nanos PredictFlow(const BatchTaskCosts& c, const DataFlowPlan& plan) {
  const bool bottom_gpu = plan.bottom == Backend::kGpu;
  const bool top_gpu = plan.top == Backend::kGpu;
  // Single-batch critical path: embedding chain and bottom stack race,
  // then interaction + top.
  const Nanos emb_chain =
      c.emb.cpu_to_dpu + c.emb.dpu_lookup + c.emb.dpu_to_cpu +
      c.emb.cpu_aggregate;
  const Nanos bottom = bottom_gpu ? c.bottom_gpu : c.bottom_host();
  const Nanos top = top_gpu ? c.top_gpu : c.top_host();
  const Nanos critical = std::max(emb_chain, bottom) + top;
  return std::max(PredictPeriod(c, plan), critical);
}

}  // namespace updlrm::pipeline
