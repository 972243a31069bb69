#include "pim/kernel_cost.h"

#include <algorithm>
#include <array>

namespace updlrm::pim {

Status EmbeddingKernelCostParams::Validate() const {
  if (index_chunk == 0) {
    return Status::InvalidArgument("index_chunk must be >= 1");
  }
  if (index_chunk % 8 != 0) {
    return Status::InvalidArgument(
        "index_chunk must be a multiple of 8: a packed chunk (3 bytes "
        "per index) must stay an 8-byte-aligned MRAM DMA");
  }
  return Status::Ok();
}

EmbeddingKernelCostModel::EmbeddingKernelCostModel(
    EmbeddingKernelCostParams params, const DpuConfig& dpu,
    MramTimingModel mram_timing)
    : params_(params),
      dpu_(dpu),
      mram_timing_(std::move(mram_timing)),
      pipeline_(dpu) {
  UPDLRM_CHECK_MSG(params_.Validate().ok(),
                   "invalid EmbeddingKernelCostParams");
}

std::array<KernelWorkload, kEmbeddingKernelNumPhases> EmbeddingKernelPhases(
    const EmbeddingKernelCostParams& params, const MramTimingModel& mram,
    const EmbeddingKernelWork& work) {
  UPDLRM_CHECK(work.row_bytes > 0 && work.row_bytes % 8 == 0);
  UPDLRM_CHECK(work.index_bytes == 4 || work.index_bytes == 3);
  const Cycles instr_per_read = params.ReadIssueCycles(work.row_bytes);

  // Phase 1: stream index lists MRAM->WRAM in chunks. Every MRAM/WRAM
  // row reference is one index; with the WRAM tier off this is exactly
  // the historical lookups+cache count. A packed chunk is 3 bytes per
  // index, expanded in place to words before use: every index of the
  // chunk pays the decode.
  const std::uint64_t mram_reads = work.num_lookups + work.num_cache_reads;
  const std::uint64_t index_words = mram_reads + work.num_wram_hits;
  const std::uint32_t chunk_bytes = params.index_chunk * work.index_bytes;
  const Cycles decode =
      work.index_bytes == 4 ? 0 : kInstrPerPackedIndex * params.index_chunk;
  KernelWorkload index_stream{
      .num_items = CeilDiv(index_words, params.index_chunk),
      .instr_cycles_per_item = 16 + decode,
      .dma_latency_per_item = mram.AccessLatency(chunk_bytes),
      .dma_occupancy_per_item = mram.EngineOccupancy(chunk_bytes),
  };

  // Phase 2: row-slice / cached-partial-sum reads + accumulation. EMT and
  // cache reads have identical cost structure (same size, same region
  // type), so they share one workload entry.
  KernelWorkload reads{
      .num_items = mram_reads,
      .instr_cycles_per_item = instr_per_read,
      .dma_latency_per_item = mram.AccessLatency(work.row_bytes),
      .dma_occupancy_per_item = mram.EngineOccupancy(work.row_bytes),
  };

  // Phase 2b: WRAM hot-row hits. Same accumulation arithmetic as phase
  // 2 but the row is already pinned in WRAM — no DMA is issued, so the
  // item never touches the MRAM latency curve or the DMA engine.
  KernelWorkload wram_hits{
      .num_items = work.num_wram_hits,
      .instr_cycles_per_item = params.WramHitIssueCycles(work.row_bytes),
      .dma_latency_per_item = 0,
      .dma_occupancy_per_item = 0,
  };

  // Phase 3: per-sample bookkeeping and output write-back.
  KernelWorkload outputs{
      .num_items = work.num_samples,
      .instr_cycles_per_item = params.instr_per_sample,
      .dma_latency_per_item = mram.AccessLatency(work.row_bytes),
      .dma_occupancy_per_item = mram.EngineOccupancy(work.row_bytes),
  };

  return {index_stream, reads, wram_hits, outputs};
}

Cycles EmbeddingKernelCostModel::KernelCycles(
    const EmbeddingKernelWork& work) const {
  if (work.num_lookups + work.num_cache_reads + work.num_samples +
          work.num_wram_hits == 0) {
    return 0;
  }
  // Zero-item phases contribute zero cycles, so with the WRAM tier off
  // the makespan is bit-identical to the historical three-phase kernel.
  const auto phases = EmbeddingKernelPhases(params_, mram_timing_, work);
  return params_.boot_cycles + pipeline_.Makespan(phases);
}

Status EmbeddingKernelCostModel::ValidateWramFit(
    std::uint32_t row_bytes, std::uint64_t pinned_bytes) const {
  // Per tasklet: double-buffered row slice, one index chunk, one staged
  // output row, and ~256 B of stack/locals. The pinned hot-row cache is
  // a DPU-wide region carved out once, shared read-only by all
  // tasklets.
  const std::uint64_t per_tasklet = 2ULL * row_bytes +
                                    params_.index_chunk * 4ULL + row_bytes +
                                    256;
  const std::uint64_t total = per_tasklet * dpu_.num_tasklets + pinned_bytes;
  if (total > dpu_.wram_bytes) {
    return Status::CapacityExceeded(
        "WRAM overflow: " + std::to_string(total) + " bytes needed, " +
        std::to_string(dpu_.wram_bytes) + " available");
  }
  return Status::Ok();
}

std::uint32_t EmbeddingKernelCostModel::MaxWramCacheRows(
    std::uint32_t row_bytes) const {
  const std::uint64_t per_tasklet = 2ULL * row_bytes +
                                    params_.index_chunk * 4ULL + row_bytes +
                                    256;
  const std::uint64_t working = per_tasklet * dpu_.num_tasklets;
  if (working >= dpu_.wram_bytes || row_bytes == 0) return 0;
  const std::uint64_t free_bytes = dpu_.wram_bytes - working;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(free_bytes / row_bytes, 0xffffffffULL));
}

}  // namespace updlrm::pim
