// Aggregate statistics over a DpuSystem's per-DPU counters.
//
// The engine accumulates per-DPU work (kernel cycles, EMT/cache reads,
// bytes moved); this summarizes them into the utilization and balance
// numbers the benches and examples report. The `total_<name>` fields
// are generated from UPDLRM_DPU_COUNTER_FIELDS (pim/dpu.h), so every
// DpuStats counter is aggregated by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "pim/system.h"
#include "telemetry/registry.h"

namespace updlrm::pim {

struct DpuStatsSummary {
#define UPDLRM_DECLARE_TOTAL(name) std::uint64_t total_##name = 0;
  UPDLRM_DPU_COUNTER_FIELDS(UPDLRM_DECLARE_TOTAL)
#undef UPDLRM_DECLARE_TOTAL
  Cycles max_kernel_cycles = 0;
  Cycles mean_kernel_cycles = 0;

  /// max / mean of per-DPU kernel cycles; 1.0 == perfectly balanced
  /// stage-2 work. 0 when no work was recorded.
  double cycle_imbalance = 0.0;
  /// Coefficient of variation of per-DPU kernel cycles.
  double cycle_cv = 0.0;
  /// Share of lookups served from cached partial sums.
  double cache_read_share = 0.0;
  /// Share of row references served from the pinned WRAM tier (of all
  /// row references: MRAM reads + WRAM hits).
  double wram_hit_share = 0.0;
  /// Hardware-contract violations reported by the check layer
  /// (src/check/). DpuStats does not track violations, so
  /// SummarizeStats leaves this 0; callers running under
  /// EngineOptions::check_mode fill it from
  /// UpDlrmEngine::check_violations().
  std::uint64_t check_violations = 0;
};

DpuStatsSummary SummarizeStats(const DpuSystem& system);

/// One row of the straggler report: a slow DPU and the per-DPU
/// counters explaining why it is slow.
struct DpuHotspot {
  std::uint32_t dpu = 0;
  Cycles kernel_cycles = 0;
  std::uint64_t lookups = 0;
  std::uint64_t cache_reads = 0;
  std::uint64_t wram_hits = 0;
};

/// The k slowest DPUs by accumulated kernel cycles, slowest first.
/// Ties break toward the lower DPU id so the report is deterministic.
std::vector<DpuHotspot> TopKSlowestDpus(const DpuSystem& system,
                                        std::size_t k);

/// Mirrors a summary into `registry` under "<prefix>." keys: every
/// UPDLRM_DPU_COUNTER_FIELDS total (and check_violations) as a
/// counter, the derived balance/share numbers as gauges.
void ExportStats(const DpuStatsSummary& summary,
                 telemetry::MetricsRegistry& registry,
                 const std::string& prefix);

}  // namespace updlrm::pim
