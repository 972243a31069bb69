// Cycle-cost model of the DPU embedding-lookup kernel.
//
// The kernel each DPU runs in stage 2 (Fig. 4) does, per assigned batch:
//   1. stream its routed index/offset lists from MRAM into WRAM chunks;
//   2. for every index, DMA the Nc*4-byte row slice (EMT region) or
//      cached partial-sum slice (cache region) into WRAM and accumulate
//      it into the sample's int32 partial sum;
//   3. write each sample's partial sum back to the MRAM output buffer.
// This model prices those phases for the PipelineModel. Instruction
// budgets are calibrated against the paper's Fig. 11 magnitudes (see
// EXPERIMENTS.md); the UPMEM ISA has no FPU, hence integer accumulation
// (see common/fixed_point.h).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "common/units.h"
#include "pim/dpu_config.h"
#include "pim/mram_timing.h"
#include "pim/pipeline.h"

namespace updlrm::pim {

/// Issue slots per packed (3-byte) slot reference on top of the index
/// chunk's fixed budget: a halfword load, a byte load and one shift-add
/// in place of one word load, expanding the chunk in place into the
/// 4-byte WRAM index buffer (pim/wire_format.h).
inline constexpr Cycles kInstrPerPackedIndex = 2;

struct EmbeddingKernelCostParams {
  // Per-lookup fixed instruction budget: index load, bounds check,
  // address computation, DMA setup, loop control.
  Cycles instr_per_lookup_base = 56;
  // Per 4-byte lane: int32 load + add + store in WRAM.
  Cycles instr_per_element = 2;
  // Per-sample bookkeeping: offset-list scan, partial-sum init, output
  // staging.
  Cycles instr_per_sample = 32;
  // Per WRAM-cache hit fixed budget: index load, tag compare, WRAM
  // address computation. No DMA setup — the row is already resident, so
  // a hit bypasses the MRAM latency curve entirely (see DESIGN.md
  // §"Embedding hot path").
  Cycles instr_per_wram_hit_base = 12;
  // Tasklet boot, barrier and drain per kernel launch on one DPU.
  Cycles boot_cycles = 8'000;
  // Index-streaming chunk: indices copied MRAM->WRAM per DMA. A
  // multiple of 8, so a packed chunk (3 bytes per index) keeps the
  // MRAM DMA's 8-byte size alignment.
  std::uint32_t index_chunk = 64;

  /// Issue slots of one MRAM row or cached partial-sum read, and of one
  /// WRAM hot-row hit, at `row_bytes` per row slice.
  Cycles ReadIssueCycles(std::uint32_t row_bytes) const {
    return instr_per_lookup_base + instr_per_element * (row_bytes / 4);
  }
  Cycles WramHitIssueCycles(std::uint32_t row_bytes) const {
    return instr_per_wram_hit_base + instr_per_element * (row_bytes / 4);
  }

  Status Validate() const;
};

/// Work one DPU performs for one batch. With the WRAM tier off and
/// 4-byte indices, only the first four fields differ from their
/// defaults and the cost reduces exactly to the historical three-phase
/// kernel.
struct EmbeddingKernelWork {
  std::uint64_t num_lookups = 0;      // EMT row-slice reads (MRAM)
  std::uint64_t num_cache_reads = 0;  // cached partial-sum reads (MRAM)
  std::uint64_t num_samples = 0;      // partial sums produced
  std::uint32_t row_bytes = 0;        // Nc * 4
  // Rows served from the pinned WRAM hot-row tier: accumulation only,
  // no MRAM DMA (EngineOptions::wram_cache_rows).
  std::uint64_t num_wram_hits = 0;
  // Bytes per streamed slot reference: 4 (the paper's word indices) or
  // 3 (the packed stage-1 format, decoded in WRAM).
  std::uint32_t index_bytes = 4;
};

/// Phases of the embedding kernel, in execution order: index streaming,
/// MRAM row/cache reads, WRAM hot-row hits, per-sample output
/// write-back.
inline constexpr std::size_t kEmbeddingKernelNumPhases = 4;

/// Display names for the phases, in EmbeddingKernelPhases order (used
/// by the telemetry timeline and the straggler report).
inline constexpr std::array<const char*, kEmbeddingKernelNumPhases>
    kEmbeddingKernelPhaseNames = {"index_stream", "mram_reads", "wram_hits",
                                  "sample_output"};

/// Builds the per-phase work items / instruction budgets / DMA costs of
/// one kernel launch. Single source of truth shared by the analytic
/// cost model (EmbeddingKernelCostModel), the cycle simulator
/// (SimulateEmbeddingKernel) and the check-mode model/sim cross-audit,
/// so the three cannot drift structurally: the *physics* (closed-form
/// bounds vs executed cycles) stay independent, the phase list does
/// not. `work` must have row_bytes > 0 and a multiple of 8 whenever any
/// item count is nonzero.
std::array<KernelWorkload, kEmbeddingKernelNumPhases> EmbeddingKernelPhases(
    const EmbeddingKernelCostParams& params, const MramTimingModel& mram,
    const EmbeddingKernelWork& work);

class EmbeddingKernelCostModel {
 public:
  EmbeddingKernelCostModel(EmbeddingKernelCostParams params,
                           const DpuConfig& dpu,
                           MramTimingModel mram_timing);

  /// Total cycles for one kernel launch on one DPU, including boot.
  Cycles KernelCycles(const EmbeddingKernelWork& work) const;

  /// Checks that per-tasklet WRAM buffers (double-buffered row slice,
  /// index chunk, sample staging) fit the 64 KB WRAM. `pinned_bytes` is
  /// the DPU-wide hot-row cache footprint (shared across tasklets)
  /// carved out before the per-tasklet buffers.
  Status ValidateWramFit(std::uint32_t row_bytes,
                         std::uint64_t pinned_bytes = 0) const;

  /// Largest hot-row cache (in rows) that still leaves the per-tasklet
  /// working buffers intact. 0 when even one row would overflow WRAM.
  std::uint32_t MaxWramCacheRows(std::uint32_t row_bytes) const;

  const EmbeddingKernelCostParams& params() const { return params_; }
  const MramTimingModel& mram_timing() const { return mram_timing_; }

 private:
  EmbeddingKernelCostParams params_;
  DpuConfig dpu_;
  MramTimingModel mram_timing_;
  PipelineModel pipeline_;
};

}  // namespace updlrm::pim
