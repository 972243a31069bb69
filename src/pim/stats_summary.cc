#include "pim/stats_summary.h"

#include <algorithm>
#include <vector>

#include "common/stats.h"

namespace updlrm::pim {

// Layout guard for UPDLRM_DPU_COUNTER_FIELDS: DpuStats must consist of
// kernel_cycles plus exactly the listed uint64 counters. A counter
// added to the struct without extending the macro changes sizeof and
// fails here, so it cannot silently skip aggregation.
namespace {
constexpr std::size_t kListedCounters =
#define UPDLRM_COUNT_FIELD(name) +1
    UPDLRM_DPU_COUNTER_FIELDS(UPDLRM_COUNT_FIELD);
#undef UPDLRM_COUNT_FIELD
static_assert(sizeof(DpuStats) ==
                  sizeof(Cycles) + kListedCounters * sizeof(std::uint64_t),
              "DpuStats has a field missing from UPDLRM_DPU_COUNTER_FIELDS "
              "(pim/dpu.h); extend the macro so it aggregates");
}  // namespace

DpuStatsSummary SummarizeStats(const DpuSystem& system) {
  DpuStatsSummary summary;
  std::vector<double> cycles;
  cycles.reserve(system.num_dpus());
  for (std::uint32_t d = 0; d < system.num_dpus(); ++d) {
    const DpuStats& stats = system.dpu(d).stats();
#define UPDLRM_ADD_TOTAL(name) summary.total_##name += stats.name;
    UPDLRM_DPU_COUNTER_FIELDS(UPDLRM_ADD_TOTAL)
#undef UPDLRM_ADD_TOTAL
    summary.max_kernel_cycles =
        std::max(summary.max_kernel_cycles, stats.kernel_cycles);
    cycles.push_back(static_cast<double>(stats.kernel_cycles));
  }
  OnlineStats online;
  for (double c : cycles) online.Add(c);
  summary.mean_kernel_cycles = static_cast<Cycles>(online.mean());
  summary.cycle_imbalance = ImbalanceRatio(cycles);
  summary.cycle_cv = CoefficientOfVariation(cycles);
  const std::uint64_t reads =
      summary.total_lookups + summary.total_cache_reads;
  summary.cache_read_share =
      reads == 0 ? 0.0
                 : static_cast<double>(summary.total_cache_reads) /
                       static_cast<double>(reads);
  const std::uint64_t row_refs = reads + summary.total_wram_hits;
  summary.wram_hit_share =
      row_refs == 0 ? 0.0
                    : static_cast<double>(summary.total_wram_hits) /
                          static_cast<double>(row_refs);
  return summary;
}

std::vector<DpuHotspot> TopKSlowestDpus(const DpuSystem& system,
                                        std::size_t k) {
  std::vector<DpuHotspot> all;
  all.reserve(system.num_dpus());
  for (std::uint32_t d = 0; d < system.num_dpus(); ++d) {
    const DpuStats& stats = system.dpu(d).stats();
    all.push_back(DpuHotspot{d, stats.kernel_cycles, stats.lookups,
                             stats.cache_reads, stats.wram_hits});
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(k), all.end(),
                    [](const DpuHotspot& a, const DpuHotspot& b) {
                      if (a.kernel_cycles != b.kernel_cycles) {
                        return a.kernel_cycles > b.kernel_cycles;
                      }
                      return a.dpu < b.dpu;
                    });
  all.resize(k);
  return all;
}

void ExportStats(const DpuStatsSummary& summary,
                 telemetry::MetricsRegistry& registry,
                 const std::string& prefix) {
#define UPDLRM_EXPORT_TOTAL(name) \
  registry.Increment(prefix + "." #name,     \
                     static_cast<double>(summary.total_##name));
  UPDLRM_DPU_COUNTER_FIELDS(UPDLRM_EXPORT_TOTAL)
#undef UPDLRM_EXPORT_TOTAL
  registry.Increment(prefix + ".check_violations",
                     static_cast<double>(summary.check_violations));
  registry.SetGauge(prefix + ".max_kernel_cycles",
                    static_cast<double>(summary.max_kernel_cycles));
  registry.SetGauge(prefix + ".mean_kernel_cycles",
                    static_cast<double>(summary.mean_kernel_cycles));
  registry.SetGauge(prefix + ".cycle_imbalance", summary.cycle_imbalance);
  registry.SetGauge(prefix + ".cycle_cv", summary.cycle_cv);
  registry.SetGauge(prefix + ".cache_read_share",
                    summary.cache_read_share);
  registry.SetGauge(prefix + ".wram_hit_share", summary.wram_hit_share);
}

}  // namespace updlrm::pim
