#include "telemetry/monitor.h"

#include <algorithm>

#include "common/stats.h"
#include "telemetry/json.h"
#include "telemetry/tracer.h"

namespace updlrm::telemetry {

FleetMonitor::FleetMonitor(MonitorOptions options)
    : options_(options), burn_(options.slo) {
  UPDLRM_CHECK_MSG(options_.window_ns > 0.0,
                   "monitor window must be positive");
}

std::uint64_t FleetMonitor::WindowOf(Nanos t_ns) const {
  if (t_ns <= 0.0) return 0;
  return static_cast<std::uint64_t>(t_ns / options_.window_ns);
}

// --- SLO stream -------------------------------------------------------

void FleetMonitor::CloseSloWindow() {
  const std::span<const Nanos> window =
      std::span<const Nanos>(slo_latency_ns_).subspan(slo_window_begin_);
  if (window.empty()) return;
  SloRecord record;
  record.window = static_cast<std::uint64_t>(slo_window_);
  record.verdict = burn_.PushWindow(window.size(), slo_over_);
  record.p99_ns = NearestRank(window, 99.0);
  slo_records_.push_back(record);
  slo_over_ = 0;
  slo_window_begin_ = slo_latency_ns_.size();
}

void FleetMonitor::OnRequest(Nanos done_ns, Nanos latency_ns) {
  UPDLRM_CHECK(!finalized_);
  const auto w = static_cast<std::int64_t>(WindowOf(done_ns));
  UPDLRM_CHECK_MSG(w >= slo_window_, "SLO stream fed out of order");
  if (w > slo_window_) {
    CloseSloWindow();
    // Idle windows still age the burn horizons: push empty windows so
    // an old error burst rolls out of the fast/slow aggregates on
    // schedule instead of lingering until the next completion.
    for (std::int64_t idle = slo_window_ + 1;
         slo_window_ >= 0 && idle < w; ++idle) {
      burn_.PushWindow(0, 0);
    }
    slo_window_ = w;
  }
  slo_over_ += latency_ns > options_.slo.slo_ns ? 1 : 0;
  slo_latency_ns_.push_back(latency_ns);
}

// --- unit stream ------------------------------------------------------

void FleetMonitor::CloseHealthWindow() {
  UPDLRM_CHECK(scorer_ != nullptr);
  unit_delta_.resize(unit_last_.size());
  bool any = false;
  for (std::size_t i = 0; i < unit_last_.size(); ++i) {
    UPDLRM_CHECK_MSG(unit_last_[i] >= unit_prev_[i],
                     "unit counters must be cumulative");
    unit_delta_[i] = unit_last_[i] - unit_prev_[i];
    any = any || unit_delta_[i] > 0;
  }
  if (any) {
    HealthRecord record;
    record.window = static_cast<std::uint64_t>(unit_window_);
    record.verdict = scorer_->ScoreWindow(unit_delta_);
    health_records_.push_back(record);
  }
  unit_prev_ = unit_last_;
}

void FleetMonitor::OnUnitSample(Nanos t_ns,
                                std::span<const std::uint64_t> cumulative) {
  UPDLRM_CHECK(!finalized_);
  if (scorer_ == nullptr) {
    scorer_ = std::make_unique<StragglerScorer>(cumulative.size(),
                                                options_.health);
    unit_prev_.assign(cumulative.begin(), cumulative.end());
    unit_last_ = unit_prev_;
    unit_window_ = static_cast<std::int64_t>(WindowOf(t_ns));
    return;
  }
  UPDLRM_CHECK_MSG(cumulative.size() == unit_last_.size(),
                   "unit count changed mid-run");
  const auto w = static_cast<std::int64_t>(WindowOf(t_ns));
  UPDLRM_CHECK_MSG(w >= unit_window_, "unit stream fed out of order");
  if (w > unit_window_) {
    CloseHealthWindow();
    unit_window_ = w;
  }
  unit_last_.assign(cumulative.begin(), cumulative.end());
}

// --- finalize / merge -------------------------------------------------

void FleetMonitor::Finalize() {
  UPDLRM_CHECK(!finalized_);
  CloseSloWindow();
  if (scorer_ != nullptr) CloseHealthWindow();

  // Merge the two per-stream record sequences (each sorted by window
  // index) into one snapshot per window that has any content.
  std::vector<std::uint64_t> indices;
  for (const SloRecord& r : slo_records_) indices.push_back(r.window);
  for (const HealthRecord& r : health_records_) indices.push_back(r.window);
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()),
                indices.end());

  windows_.reserve(indices.size());
  for (const std::uint64_t w : indices) {
    FleetHealthWindow window;
    window.index = w;
    window.start_ns = static_cast<double>(w) * options_.window_ns;
    window.end_ns = window.start_ns + options_.window_ns;
    for (const SloRecord& r : slo_records_) {
      if (r.window != w) continue;
      window.has_slo = true;
      window.slo = r.verdict;
      window.p99_ns = r.p99_ns;
    }
    for (const HealthRecord& r : health_records_) {
      if (r.window != w) continue;
      window.has_health = true;
      window.health = r.verdict;
    }
    windows_.push_back(std::move(window));
  }

  // Summary.
  summary_ = HealthSummary();
  summary_.windows = windows_.size();
  for (const FleetHealthWindow& window : windows_) {
    if (window.has_slo) {
      summary_.slo_alert_windows += window.slo.alerting ? 1 : 0;
      summary_.max_fast_burn =
          std::max(summary_.max_fast_burn, window.slo.fast_burn);
      summary_.max_slow_burn =
          std::max(summary_.max_slow_burn, window.slo.slow_burn);
    }
    if (window.has_health) {
      summary_.straggler_windows += window.health.alerting ? 1 : 0;
      summary_.max_unit_z =
          std::max(summary_.max_unit_z, window.health.max_z);
    }
  }
  summary_.slo_alerting = burn_.alerting();
  summary_.completed = slo_latency_ns_.size();
  summary_.p99_ns = NearestRank(slo_latency_ns_, 99.0);
  finalized_ = true;
}

// --- output -----------------------------------------------------------

std::string FleetMonitor::ToJsonl() const {
  UPDLRM_CHECK(finalized_);
  JsonWriter w;
  w.BeginObject().Field("schema", kHealthSchema);
  w.Field("window_ns", options_.window_ns);
  w.Field("units", scorer_ == nullptr ? 0 : scorer_->num_units());
  w.EndObject().Newline();
  for (const FleetHealthWindow& window : windows_) {
    window.WriteJson(w);
    w.Newline();
  }
  summary_.WriteJson(w);
  w.Newline();
  return w.str();
}

void FleetMonitor::ExportTo(MetricsRegistry& registry,
                            const std::string& prefix) const {
  UPDLRM_CHECK(finalized_);
  summary_.ExportTo(registry, prefix);
}

void FleetMonitor::EmitTraceCounters() const {
  UPDLRM_CHECK(finalized_);
  if (!TraceEnabled()) return;
  Tracer& tracer = Tracer::Get();
  for (const FleetHealthWindow& window : windows_) {
    const Nanos ts = window.end_ns;
    if (window.has_slo) {
      tracer.Counter(kPipelinePid, Clock::kSim, "slo.fast_burn", ts,
                     window.slo.fast_burn);
      tracer.Counter(kPipelinePid, Clock::kSim, "slo.slow_burn", ts,
                     window.slo.slow_burn);
    }
    if (window.has_health) {
      tracer.Counter(kPipelinePid, Clock::kSim, "health.max_z", ts,
                     window.health.max_z);
      tracer.Counter(kPipelinePid, Clock::kSim, "health.stragglers", ts,
                     static_cast<double>(window.health.stragglers));
    }
  }
}

}  // namespace updlrm::telemetry
