// Fleet-health detector primitives: SLO burn and stragglers.
//
// The monitor (monitor.h) slices a serving run into fixed simulated-ns
// windows; this header holds the per-window judgement math and the
// snapshot schema those judgements stream into. Two detector families:
//
//   - BurnRateMonitor: SRE-style multi-window SLO burn. Each window
//     contributes (completed, over-SLO) counts; the fast horizon (few
//     windows) catches cliffs, the slow horizon (many windows) filters
//     blips, and the alert requires both to exceed their thresholds.
//   - StragglerScorer: per-unit z-scores over per-window work deltas
//     (kernel cycles + transfer bytes), EWMA-smoothed across windows so
//     a persistent slow DPU stands out while a one-window wobble
//     decays. Optional rank/shard group rollups reuse the same math
//     over group sums.
//
// Everything here is pure arithmetic over fed values: no clocks, no
// randomness, no allocation surprises — deterministic by construction
// so monitor-on runs stay bit-exact with monitor-off runs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "telemetry/json.h"
#include "telemetry/registry.h"

namespace updlrm::telemetry {

// --- detector configuration ------------------------------------------

struct SloBurnOptions {
  /// The latency objective: a request is "good" when latency <= slo_ns.
  Nanos slo_ns = 2.0e6;
  /// Target good fraction (0.999 = three nines); the error budget is
  /// 1 - target and burn rate is error_rate / budget.
  double target = 0.999;
  /// Horizon lengths in windows. Alerting requires BOTH the fast and
  /// the slow burn to exceed their thresholds (the SRE fast+slow pair).
  int fast_windows = 2;
  int slow_windows = 12;
  double fast_burn_threshold = 14.4;
  double slow_burn_threshold = 6.0;
};

struct HealthOptions {
  /// A unit whose smoothed z-score reaches this is a straggler.
  double z_threshold = 3.0;
  /// EWMA weight of the newest window's z-score.
  double ewma_alpha = 0.3;
  /// Group rollups: units_per_rank consecutive units form one rank,
  /// units_per_shard form one shard (0 disables that rollup).
  std::uint32_t units_per_rank = 0;
  std::uint32_t units_per_shard = 0;
  /// Windows where fewer units than this did any work are not judged.
  std::uint32_t min_active_units = 2;
};

// --- SLO burn ---------------------------------------------------------

/// Multi-window burn-rate monitor over per-window (completed, over-SLO)
/// counts.
class BurnRateMonitor {
 public:
  explicit BurnRateMonitor(SloBurnOptions options);

  struct WindowVerdict {
    std::uint64_t completed = 0;
    std::uint64_t over_slo = 0;
    double fast_burn = 0.0;
    double slow_burn = 0.0;
    bool alerting = false;
  };

  WindowVerdict PushWindow(std::uint64_t completed, std::uint64_t over_slo);

  bool alerting() const { return alerting_; }

 private:
  /// Aggregate burn over the trailing `horizon` windows.
  double HorizonBurn(int horizon) const;

  SloBurnOptions options_;
  bool alerting_ = false;
  /// Trailing (completed, over_slo) per window, newest last; bounded by
  /// slow_windows.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> recent_;
};

// --- stragglers -------------------------------------------------------

/// Per-unit z-score straggler scorer with EWMA smoothing and optional
/// rank/shard rollups. Unit count is fixed at construction.
class StragglerScorer {
 public:
  StragglerScorer(std::size_t num_units, HealthOptions options);

  struct GroupScore {
    std::uint32_t worst = 0;  // group id of the worst smoothed z
    double max_z = 0.0;
  };

  struct WindowVerdict {
    bool judged = false;  // false when active units < min_active_units
    std::uint32_t active_units = 0;
    double mean_delta = 0.0;
    double stddev_delta = 0.0;
    /// Worst smoothed z-score and its unit (ties -> lowest unit id).
    std::uint32_t worst_unit = 0;
    double max_z = 0.0;
    /// Units whose smoothed z-score >= z_threshold this window.
    std::uint32_t stragglers = 0;
    bool alerting = false;  // stragglers > 0
    GroupScore rank;   // valid when units_per_rank > 0
    GroupScore shard;  // valid when units_per_shard > 0
  };

  /// `deltas[i]` = unit i's work done in the closed window.
  WindowVerdict ScoreWindow(std::span<const std::uint64_t> deltas);

  std::size_t num_units() const { return smoothed_z_.size(); }
  std::span<const double> smoothed_z() const { return smoothed_z_; }

 private:
  HealthOptions options_;
  std::vector<double> smoothed_z_;
  // Group scratch (sums + smoothed z per group).
  std::vector<std::uint64_t> group_sum_;
  std::vector<double> rank_z_;
  std::vector<double> shard_z_;
};

// --- snapshot schema --------------------------------------------------

/// One closed window's full fleet-health snapshot.
struct FleetHealthWindow {
  std::uint64_t index = 0;
  Nanos start_ns = 0.0;
  Nanos end_ns = 0.0;
  bool has_slo = false;
  BurnRateMonitor::WindowVerdict slo;
  /// Exact p99 (NearestRank) of the window's completion latencies.
  Nanos p99_ns = 0.0;
  bool has_health = false;
  StragglerScorer::WindowVerdict health;

  /// One JSON object, single line (one JSONL record).
  void WriteJson(JsonWriter& w) const;
};

/// Final detector states, folded into BENCH_metrics.json at run end.
struct HealthSummary {
  std::uint64_t windows = 0;
  // SLO.
  std::uint64_t slo_alert_windows = 0;
  bool slo_alerting = false;
  double max_fast_burn = 0.0;
  double max_slow_burn = 0.0;
  // Stragglers.
  std::uint64_t straggler_windows = 0;
  double max_unit_z = 0.0;
  /// Completions over every window, and their exact p99 (NearestRank).
  std::uint64_t completed = 0;
  Nanos p99_ns = 0.0;

  /// {"summary":{...}}: the JSONL stream's trailing record.
  void WriteJson(JsonWriter& w) const;
  void ExportTo(MetricsRegistry& registry, const std::string& prefix) const;
};

/// The schema tag on a health JSONL stream's header line.
inline constexpr std::string_view kHealthSchema = "updlrm.health.v2";

/// Validates a health JSONL stream the way ValidateChromeTraceJson
/// validates traces: line 1 must be the schema header
/// ({"schema":"updlrm.health.v2",...}), followed by window records with
/// strictly increasing indices, the required fields and an "slo" or
/// "health" object, and a final summary record. Requires at least
/// `min_windows` window records.
Status ValidateHealthJsonl(std::string_view jsonl,
                           std::size_t min_windows);

}  // namespace updlrm::telemetry
