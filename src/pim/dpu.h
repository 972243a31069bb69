// One simulated DPU: MRAM bank plus execution statistics.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "pim/dpu_config.h"
#include "pim/mram.h"

namespace updlrm::pim {

/// Every cumulative uint64 counter of DpuStats, in declaration order.
/// Single source of truth for aggregation: SummarizeStats sums each
/// entry into a `total_<name>` field and stats_summary_test walks the
/// same list, so a counter added here is aggregated (and tested)
/// automatically — and a counter added to the struct but not here trips
/// the layout static_assert in stats_summary.cc.
#define UPDLRM_DPU_COUNTER_FIELDS(X) \
  X(lookups)                         \
  X(cache_reads)                     \
  X(samples)                         \
  X(mram_bytes_read)                 \
  X(wram_hits)                       \
  X(index_bytes_pushed)

/// Cumulative per-DPU counters, reported by the benches for utilization
/// and balance analysis.
struct DpuStats {
  Cycles kernel_cycles = 0;
  std::uint64_t lookups = 0;       // EMT row-slice reads (MRAM)
  std::uint64_t cache_reads = 0;   // cached partial-sum reads (MRAM)
  std::uint64_t samples = 0;       // partial sums produced
  std::uint64_t mram_bytes_read = 0;
  // Rows served from the pinned WRAM tier (EngineOptions::wram_cache_rows).
  std::uint64_t wram_hits = 0;
  std::uint64_t index_bytes_pushed = 0;  // wire bytes of index payload

  void Reset() { *this = DpuStats{}; }
};

class DpuCore {
 public:
  DpuCore(std::uint32_t id, const DpuConfig& config)
      : id_(id), mram_(config.mram_bytes) {}

  std::uint32_t id() const { return id_; }
  Mram& mram() { return mram_; }
  const Mram& mram() const { return mram_; }

  DpuStats& stats() { return stats_; }
  const DpuStats& stats() const { return stats_; }

 private:
  std::uint32_t id_;
  Mram mram_;
  DpuStats stats_;
};

}  // namespace updlrm::pim
