// Fleet-health detector primitives: drift, SLO burn, stragglers.
//
// The monitor (monitor.h) slices a serving run into fixed simulated-ns
// windows; this header holds the per-window judgement math and the
// snapshot schema those judgements stream into. Three detector
// families, one per failure mode the ROADMAP's adaptation loop will
// eventually react to:
//
//   - DriftDetector: is the live access distribution still the one the
//     partitioner mined? Judged per table per window against a
//     DriftBaseline (built from trace::TableProfile's freq/by_freq
//     arrays) with two complementary statistics: total-variation
//     distance over log-spaced frequency-rank buckets (catches mass
//     moving between hot and cold regions) and top-k set Jaccard
//     (catches hot-item identity churn that rank-bucket mass hides).
//     Hysteresis (consecutive bad windows to trip, consecutive good to
//     clear) keeps single noisy windows from flapping the alert.
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
#include <map>
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

struct DriftOptions {
  /// Top-k set size for the Jaccard statistic.
  std::size_t top_k = 32;
  /// Trip when TV distance exceeds this...
  double tv_threshold = 0.35;
  /// ... or the top-k Jaccard similarity falls below this.
  double jaccard_min = 0.40;
  /// The Jaccard criterion only votes when the baseline's top-k items
  /// carry at least this mass fraction. Under a near-flat distribution
  /// "the top k" is a random draw from a huge near-tied set — every
  /// window's empirical top-k would look disjoint from the baseline's
  /// and the statistic is pure noise. TV still judges flat tables.
  /// (Measured: GoodReads' top-32 carry ~9% of accesses — a real hot
  /// head; the synthetic near-uniform fleet tables carry ~0.6%.)
  double min_topk_mass = 0.05;
  /// Hysteresis: consecutive bad windows to raise the alert,
  /// consecutive good windows to clear it.
  int trip_windows = 2;
  int clear_windows = 2;
  /// Windows with fewer accesses than this are not judged (too little
  /// signal); they leave the hysteresis counters untouched.
  std::uint64_t min_accesses = 32;
  /// Log-spaced frequency-rank buckets per decade for the TV statistic.
  int rank_buckets_per_decade = 4;
  /// Head size for the TV statistic, in rank decades: ranks at or
  /// beyond 10^max_rank_decades share one coalesced tail bucket with
  /// baseline-unseen items. A finite history cannot estimate per-item
  /// tail mass — deep-tail identity churn is expected under a
  /// stationary distribution (new cold items appear constantly), and
  /// without the coalescing that churn puts a large TV floor under
  /// every window. The head is where the cache-placement decisions
  /// live, so it is also exactly where drift matters.
  int max_rank_decades = 3;
};

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

// --- drift ------------------------------------------------------------

/// A mined access distribution, reduced to what the per-window
/// judgement needs. Built from trace::TableProfile's arrays (passed as
/// raw spans so telemetry keeps its {common}-only dependency
/// footprint): per-item rank buckets + per-bucket baseline mass + the
/// baseline top-k set.
struct DriftBaseline {
  /// Baseline top-k item ids, sorted ascending (set semantics).
  std::vector<std::uint32_t> top_items;
  /// Mass fraction the top-k items carry in the baseline; the Jaccard
  /// criterion abstains below DriftOptions::min_topk_mass.
  double top_mass = 0.0;
  /// Baseline probability mass per rank bucket. The last entry is the
  /// coalesced tail bucket: ranks at or beyond 10^max_rank_decades
  /// plus items with zero baseline frequency (it carries the
  /// baseline's deep-tail mass, so stationary tail churn cancels).
  std::vector<double> bucket_mass;
  /// item id -> rank bucket (size = num items; unseen items map to the
  /// last bucket).
  std::vector<std::int32_t> item_bucket;
  std::uint64_t total_accesses = 0;
};

/// `freq` / `by_freq` are TableProfile::freq / ::by_freq (per-item
/// counts and the descending-frequency order).
DriftBaseline BuildDriftBaseline(std::span<const std::uint64_t> freq,
                                 std::span<const std::uint32_t> by_freq,
                                 const DriftOptions& options);

/// Per-table hysteresis drift detector. Feed one closed window's item
/// counts at a time; read back the judged statistics and alert state.
class DriftDetector {
 public:
  DriftDetector(DriftBaseline baseline, DriftOptions options);

  struct WindowVerdict {
    std::uint64_t accesses = 0;
    bool judged = false;  // false when accesses < min_accesses
    double tv_distance = 0.0;
    double topk_jaccard = 1.0;
    /// This window's pre-hysteresis vote (TV over threshold, or the
    /// Jaccard criterion failing where it is allowed to vote). The
    /// single source of truth for "bad window" — summaries must read
    /// this rather than re-deriving it from the statistics.
    bool bad = false;
    bool alerting = false;  // hysteresis state after this window
  };

  /// `counts` maps item id -> accesses in the window (std::map keeps
  /// the top-k tie-break deterministic).
  WindowVerdict JudgeWindow(
      const std::map<std::uint32_t, std::uint64_t>& counts);

  bool alerting() const { return alerting_; }
  /// Windows judged bad/good so far (for summaries).
  std::uint64_t bad_windows() const { return bad_windows_; }

 private:
  DriftBaseline baseline_;
  DriftOptions options_;
  bool alerting_ = false;
  int consecutive_bad_ = 0;
  int consecutive_good_ = 0;
  std::uint64_t bad_windows_ = 0;
  // Scratch reused across windows (sized to bucket count).
  std::vector<double> live_mass_;
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

/// One table's drift row in a window snapshot.
struct DriftWindow {
  std::uint32_t table = 0;
  DriftDetector::WindowVerdict verdict;
};

/// One closed window's full fleet-health snapshot.
struct FleetHealthWindow {
  std::uint64_t index = 0;
  Nanos start_ns = 0.0;
  Nanos end_ns = 0.0;
  std::vector<DriftWindow> drift;  // ascending table id
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
  // Drift.
  std::uint64_t drift_bad_table_windows = 0;
  std::uint64_t drift_tables_alerting = 0;  // at run end
  std::int64_t first_drift_alert_window = -1;
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

/// Validates a health JSONL stream the way ValidateChromeTraceJson
/// validates traces: line 1 must be the schema header
/// ({"schema":"updlrm.health.v1",...}), followed by window records with
/// strictly increasing indices and the required fields, and a final
/// summary record. Requires at least `min_windows` window records.
Status ValidateHealthJsonl(std::string_view jsonl,
                           std::size_t min_windows);

}  // namespace updlrm::telemetry
