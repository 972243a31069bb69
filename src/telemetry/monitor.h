// FleetMonitor: windowed streaming statistics over a serving run.
//
// Slices simulated time into fixed windows (index = floor(t_ns /
// window_ns)) and routes two observation streams into the detector
// families of health.h:
//
//   OnRequest     -> BurnRateMonitor           (request completions)
//   OnUnitSample  -> StragglerScorer           (per-DPU cumulative work)
//
// Window close is keyed purely to simulated nanoseconds: a stream's
// current window closes the moment a sample with a later window index
// arrives (plus a final flush in Finalize), so the verdict sequence is
// a function of the simulated event stream alone — bit-exact at any
// host thread count, and identical with the monitor attached or not
// (the monitor only reads; the determinism suite pins both).
//
// Threading contract: not thread-safe by design. The serve loops are
// single-threaded at every feed point (the discrete-event scan and the
// post-drain walk), which is exactly where monitors attach. Each
// stream must be fed with non-decreasing timestamps (checked).
//
// Compile-out: a -DUPDLRM_TELEMETRY=OFF build makes MonitorEnabled()
// constant false, dead-coding every feed site the way TraceEnabled()
// does for spans.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "telemetry/health.h"
#include "telemetry/registry.h"

namespace updlrm::telemetry {

struct MonitorOptions {
  /// Simulated window width. 100 us spans a few batches at bench scale.
  Nanos window_ns = 1.0e5;
  SloBurnOptions slo;
  HealthOptions health;
};

class FleetMonitor {
 public:
  explicit FleetMonitor(MonitorOptions options);

  FleetMonitor(const FleetMonitor&) = delete;
  FleetMonitor& operator=(const FleetMonitor&) = delete;

  // --- feeding (each stream non-decreasing in time) --------------
  /// One request completion at `done_ns` with its end-to-end latency.
  void OnRequest(Nanos done_ns, Nanos latency_ns);
  /// Per-unit *cumulative* work counters sampled at `t_ns`; the
  /// monitor differences consecutive samples into per-window deltas.
  /// The first call fixes the unit count and the baseline (feed it
  /// before the run's first batch so window 0 is attributed fully).
  void OnUnitSample(Nanos t_ns, std::span<const std::uint64_t> cumulative);

  /// Closes every open window (the run ended), merges the per-stream
  /// records into the window snapshots, and computes the summary.
  /// Feeding after Finalize is a programming error (checked).
  void Finalize();
  bool finalized() const { return finalized_; }

  // --- results (valid after Finalize) ----------------------------
  const std::vector<FleetHealthWindow>& windows() const {
    UPDLRM_CHECK(finalized_);
    return windows_;
  }
  const HealthSummary& summary() const {
    UPDLRM_CHECK(finalized_);
    return summary_;
  }
  /// The --health-out stream: schema header line, one line per window,
  /// trailing summary line (ValidateHealthJsonl checks the shape).
  std::string ToJsonl() const;
  /// Folds the summary into `registry` under "<prefix>." keys.
  void ExportTo(MetricsRegistry& registry, const std::string& prefix) const;
  /// Emits per-window counter ("C") events on the simulated clock when
  /// tracing is enabled (no-op otherwise) — the health signals land in
  /// the same Chrome trace as the spans they explain.
  void EmitTraceCounters() const;

  const MonitorOptions& options() const { return options_; }

 private:
  /// Window index of a simulated instant.
  std::uint64_t WindowOf(Nanos t_ns) const;

  struct SloRecord {
    std::uint64_t window = 0;
    BurnRateMonitor::WindowVerdict verdict;
    Nanos p99_ns = 0.0;
  };
  void CloseSloWindow();

  struct HealthRecord {
    std::uint64_t window = 0;
    StragglerScorer::WindowVerdict verdict;
  };
  void CloseHealthWindow();

  MonitorOptions options_;
  bool finalized_ = false;

  BurnRateMonitor burn_;
  std::int64_t slo_window_ = -1;
  std::uint64_t slo_over_ = 0;  // open window
  /// Every completion latency of the run, in feed order; the open
  /// window's are the ones from slo_window_begin_ on.
  std::vector<Nanos> slo_latency_ns_;
  std::size_t slo_window_begin_ = 0;
  std::vector<SloRecord> slo_records_;

  std::unique_ptr<StragglerScorer> scorer_;
  std::int64_t unit_window_ = -1;
  std::vector<std::uint64_t> unit_prev_;  // cumulative at window open
  std::vector<std::uint64_t> unit_last_;  // latest sample
  std::vector<std::uint64_t> unit_delta_;
  std::vector<HealthRecord> health_records_;

  std::vector<FleetHealthWindow> windows_;
  HealthSummary summary_;
};

/// The one-branch gate every monitor feed site checks first; constant
/// false (feed sites dead-code out) when telemetry is compiled out.
inline bool MonitorEnabled(const FleetMonitor* monitor) {
#ifdef UPDLRM_TELEMETRY_DISABLED
  (void)monitor;
  return false;
#else
  return monitor != nullptr;
#endif
}

}  // namespace updlrm::telemetry
