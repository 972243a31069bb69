// Latency reports for UpDLRM inference.
//
// The paper decomposes embedding-layer time into three stages (Fig. 4):
// stage 1 CPU->DPU index transfer, stage 2 in-DPU lookup + reduction,
// stage 3 DPU->CPU partial-result transfer; we additionally account the
// host-side partial-sum aggregation and the MLP stacks to report
// end-to-end inference time (Fig. 8).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "pim/reduction.h"
#include "pim/wire_format.h"

namespace updlrm::core {

struct BatchDpuTrace;  // updlrm/timeline.h

struct StageBreakdown {
  Nanos cpu_to_dpu = 0.0;    // stage 1
  Nanos dpu_lookup = 0.0;    // stage 2
  Nanos dpu_to_cpu = 0.0;    // stage 3
  Nanos cpu_aggregate = 0.0; // host partial-sum reduction
  /// The part of cpu_to_dpu spent on the cross-host fabric before the
  /// bus push (pim::HostTransferModel::PushIngress): included in
  /// cpu_to_dpu, never added to EmbeddingTotal. The serving executor
  /// runs it on its own fabric lane, so only cpu_to_dpu - ingress
  /// occupies the host transfer lane. Zero on a single-host engine.
  Nanos ingress = 0.0;
  /// The fixed shares of stage 2 and of the stage-3 pull: what one
  /// dpu_launch() plus the tasklet boot (HostTransferParams::
  /// kernel_launch_ns + EmbeddingKernelCostParams::boot_cycles), and
  /// one batched transfer call (transfer_launch_ns), cost however many
  /// batches they serve. Included in dpu_lookup and dpu_to_cpu, never
  /// added to EmbeddingTotal. The serving executor charges them once
  /// per coalesced launch or call (serve/executor.h). Zero when the
  /// engine launched or pulled nothing.
  Nanos lookup_fixed = 0.0;
  Nanos pull_fixed = 0.0;

  Nanos EmbeddingTotal() const {
    return cpu_to_dpu + dpu_lookup + dpu_to_cpu + cpu_aggregate;
  }

  StageBreakdown& operator+=(const StageBreakdown& other) {
    cpu_to_dpu += other.cpu_to_dpu;
    dpu_lookup += other.dpu_lookup;
    dpu_to_cpu += other.dpu_to_cpu;
    cpu_aggregate += other.cpu_aggregate;
    ingress += other.ingress;
    lookup_fixed += other.lookup_fixed;
    pull_fixed += other.pull_fixed;
    return *this;
  }
};

/// The sharded fleet's host aggregate split into its three parts. Per
/// batch, stages.cpu_aggregate == max(shard_reduce, dram_gather) +
/// merge_tree exactly: the DRAM-tier gather overlaps the shards'
/// concurrent reduces, and the cross-shard merge follows both.
/// All zero on the flat engine.
struct AggregateParts {
  Nanos shard_reduce = 0.0;  // slowest shard's own partial-sum reduce
  Nanos dram_gather = 0.0;   // host-DRAM tier's cold-row gather
  // Cross-shard merge: in-group tree levels plus the gather of table
  // group slices (ReductionPlan::tree_ns).
  Nanos merge_tree = 0.0;

  AggregateParts& operator+=(const AggregateParts& other) {
    shard_reduce += other.shard_reduce;
    dram_gather += other.dram_gather;
    merge_tree += other.merge_tree;
    return *this;
  }
};

struct BatchResult {
  StageBreakdown stages;
  AggregateParts aggregate_parts;
  Nanos bottom_mlp = 0.0;
  Nanos interaction_top = 0.0;  // interaction + top MLP
  /// End-to-end batch latency; the bottom MLP overlaps the embedding
  /// pipeline (they have no data dependency).
  Nanos total = 0.0;

  /// Worst per-DPU stage-1 (index) and stage-3 (partial-sum) buffer
  /// bytes of this batch — the in-flight MRAM footprint one pipeline
  /// buffer pair must hold (consumed by the data-flow capacity audit).
  std::uint64_t max_index_bytes = 0;
  std::uint64_t max_output_bytes = 0;
  /// Widths this batch's stage-1 push used (EngineOptions::
  /// packed_indices); the sharded engine reports the widest shard's.
  pim::IndexWire index_wire;
  /// Total stage-3 partial-sum bytes pulled this batch (all DPUs) —
  /// the cross-shard merge planner's per-shard input.
  std::uint64_t partial_bytes = 0;

  // Functional outputs (empty in timing-only mode).
  std::vector<float> pooled;  // batch x (tables * dim), fixed-point path
  std::vector<float> ctr;     // batch
  /// Raw Q15.16 int64 pooled accumulators (same layout as `pooled`),
  /// emitted only under EngineOptions::emit_fixed_pooled. The sharded
  /// scale-out engine merges shard results in integer space — exactly
  /// associative — and converts to float once, keeping the merged
  /// output bit-identical to a flat engine's.
  std::vector<std::int64_t> pooled_fixed;

  /// The sharded engine's cross-shard merge plan (updlrm/scaleout.h);
  /// default-initialized on a flat engine.
  pim::ReductionPlan reduction;

  /// Per-(table, bin) stage-2 launch records for the telemetry
  /// timeline; null unless tracing was enabled during the batch.
  /// Observation only — never feeds back into any simulated value.
  std::shared_ptr<const BatchDpuTrace> dpu_trace;
};

struct InferenceReport {
  StageBreakdown stages;  // summed over batches
  AggregateParts aggregate_parts;  // summed over batches
  Nanos bottom_mlp = 0.0;
  Nanos interaction_top = 0.0;
  Nanos total = 0.0;
  std::size_t num_batches = 0;
  std::size_t num_samples = 0;

  Nanos EmbeddingTotal() const { return stages.EmbeddingTotal(); }
  Nanos AvgBatchTotal() const {
    return num_batches == 0 ? 0.0 : total / static_cast<double>(num_batches);
  }
  Nanos AvgBatchEmbedding() const {
    return num_batches == 0
               ? 0.0
               : EmbeddingTotal() / static_cast<double>(num_batches);
  }

  void Accumulate(const BatchResult& batch) {
    stages += batch.stages;
    aggregate_parts += batch.aggregate_parts;
    bottom_mlp += batch.bottom_mlp;
    interaction_top += batch.interaction_top;
    total += batch.total;
    ++num_batches;
  }
};

}  // namespace updlrm::core
