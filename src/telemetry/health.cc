#include "telemetry/health.h"

#include <algorithm>
#include <cmath>

#include "telemetry/json.h"

namespace updlrm::telemetry {

namespace {

/// Rank bucket of the r-th most frequent item (r is 0-based):
/// log-spaced so the hot head gets fine buckets and the cold tail
/// coarse ones.
int RankBucket(std::size_t r, int buckets_per_decade) {
  return static_cast<int>(std::log10(static_cast<double>(r + 1)) *
                          buckets_per_decade);
}

}  // namespace

// --- drift ------------------------------------------------------------

DriftBaseline BuildDriftBaseline(std::span<const std::uint64_t> freq,
                                 std::span<const std::uint32_t> by_freq,
                                 const DriftOptions& options) {
  UPDLRM_CHECK(freq.size() == by_freq.size());
  DriftBaseline baseline;
  baseline.item_bucket.assign(freq.size(), 0);

  std::uint64_t total = 0;
  std::size_t nonzero = 0;
  for (const std::uint64_t f : freq) {
    total += f;
    nonzero += f > 0 ? 1 : 0;
  }
  baseline.total_accesses = total;

  // The head stops at 10^max_rank_decades: everything past it — deep
  // tail ranks AND baseline-unseen items — shares the trailing tail
  // bucket. A finite history cannot estimate per-item tail mass, so
  // stationary tail identity churn must cancel inside one bucket
  // instead of registering as drift.
  const int head_limit =
      options.max_rank_decades * options.rank_buckets_per_decade;
  const int tail = std::min(
      nonzero == 0
          ? 0
          : RankBucket(nonzero - 1, options.rank_buckets_per_decade) + 1,
      head_limit);
  baseline.bucket_mass.assign(static_cast<std::size_t>(tail) + 1, 0.0);

  // by_freq orders items by descending frequency (ties by id), so the
  // r-th entry's rank bucket is RankBucket(r) capped at the tail
  // bucket; zero-frequency items also fall into the tail bucket.
  for (std::size_t r = 0; r < by_freq.size(); ++r) {
    const std::uint32_t item = by_freq[r];
    if (freq[item] == 0) {
      baseline.item_bucket[item] = tail;
      continue;
    }
    const int b =
        std::min(RankBucket(r, options.rank_buckets_per_decade), tail);
    baseline.item_bucket[item] = b;
    if (total > 0) {
      baseline.bucket_mass[static_cast<std::size_t>(b)] +=
          static_cast<double>(freq[item]) / static_cast<double>(total);
    }
  }

  const std::size_t k = std::min(options.top_k, nonzero);
  baseline.top_items.assign(by_freq.begin(),
                            by_freq.begin() + static_cast<long>(k));
  if (total > 0) {
    std::uint64_t top_accesses = 0;
    for (const std::uint32_t item : baseline.top_items) {
      top_accesses += freq[item];
    }
    baseline.top_mass =
        static_cast<double>(top_accesses) / static_cast<double>(total);
  }
  std::sort(baseline.top_items.begin(), baseline.top_items.end());
  return baseline;
}

DriftDetector::DriftDetector(DriftBaseline baseline, DriftOptions options)
    : baseline_(std::move(baseline)), options_(options) {
  live_mass_.assign(baseline_.bucket_mass.size(), 0.0);
}

DriftDetector::WindowVerdict DriftDetector::JudgeWindow(
    const std::map<std::uint32_t, std::uint64_t>& counts) {
  WindowVerdict v;
  for (const auto& [item, count] : counts) v.accesses += count;
  if (v.accesses < options_.min_accesses) {
    // Too little signal to judge; hysteresis state is untouched.
    v.alerting = alerting_;
    return v;
  }
  v.judged = true;

  // Total-variation distance over head rank buckets: live window mass
  // vs baseline mass, with out-of-baseline items in the coalesced
  // tail bucket.
  std::fill(live_mass_.begin(), live_mass_.end(), 0.0);
  const std::size_t unseen = live_mass_.size() - 1;
  const double total = static_cast<double>(v.accesses);
  for (const auto& [item, count] : counts) {
    const std::size_t b =
        item < baseline_.item_bucket.size()
            ? static_cast<std::size_t>(baseline_.item_bucket[item])
            : unseen;
    live_mass_[b] += static_cast<double>(count) / total;
  }
  double tv = 0.0;
  for (std::size_t b = 0; b < live_mass_.size(); ++b) {
    tv += std::abs(live_mass_[b] - baseline_.bucket_mass[b]);
  }
  v.tv_distance = 0.5 * tv;

  // Live top-k (count desc, item id asc — counts iterates ascending by
  // id, so insertion order settles ties deterministically).
  const std::size_t k =
      std::min(options_.top_k, std::max<std::size_t>(counts.size(), 1));
  std::vector<std::pair<std::uint64_t, std::uint32_t>> top;
  top.reserve(k + 1);
  for (const auto& [item, count] : counts) {
    if (top.size() == k && count <= top.back().first) continue;
    const auto pos = std::upper_bound(
        top.begin(), top.end(), std::make_pair(count, item),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    top.insert(pos, {count, item});
    if (top.size() > k) top.pop_back();
  }
  std::size_t inter = 0;
  for (const auto& [count, item] : top) {
    inter += std::binary_search(baseline_.top_items.begin(),
                                baseline_.top_items.end(), item)
                 ? 1
                 : 0;
  }
  const std::size_t uni = top.size() + baseline_.top_items.size() - inter;
  v.topk_jaccard =
      uni == 0 ? 1.0
               : static_cast<double>(inter) / static_cast<double>(uni);

  // Hysteresis. The Jaccard vote abstains when the baseline head is
  // too diffuse to name a meaningful top-k (near-flat tables); TV
  // still judges those.
  const bool jaccard_votes = baseline_.top_mass >= options_.min_topk_mass;
  v.bad = v.tv_distance > options_.tv_threshold ||
          (jaccard_votes && v.topk_jaccard < options_.jaccard_min);
  if (v.bad) {
    ++bad_windows_;
    ++consecutive_bad_;
    consecutive_good_ = 0;
    if (consecutive_bad_ >= options_.trip_windows) alerting_ = true;
  } else {
    ++consecutive_good_;
    consecutive_bad_ = 0;
    if (consecutive_good_ >= options_.clear_windows) alerting_ = false;
  }
  v.alerting = alerting_;
  return v;
}

// --- SLO burn ---------------------------------------------------------

BurnRateMonitor::BurnRateMonitor(SloBurnOptions options)
    : options_(options) {
  UPDLRM_CHECK(options_.target < 1.0 && options_.target > 0.0);
  UPDLRM_CHECK(options_.fast_windows >= 1 &&
               options_.slow_windows >= options_.fast_windows);
}

double BurnRateMonitor::HorizonBurn(int horizon) const {
  const std::size_t n = std::min<std::size_t>(
      recent_.size(), static_cast<std::size_t>(horizon));
  std::uint64_t completed = 0;
  std::uint64_t over = 0;
  for (std::size_t i = recent_.size() - n; i < recent_.size(); ++i) {
    completed += recent_[i].first;
    over += recent_[i].second;
  }
  if (completed == 0) return 0.0;
  const double error_rate =
      static_cast<double>(over) / static_cast<double>(completed);
  return error_rate / (1.0 - options_.target);
}

BurnRateMonitor::WindowVerdict BurnRateMonitor::PushWindow(
    std::uint64_t completed, std::uint64_t over_slo) {
  recent_.emplace_back(completed, over_slo);
  if (recent_.size() > static_cast<std::size_t>(options_.slow_windows)) {
    recent_.erase(recent_.begin());
  }
  WindowVerdict v;
  v.completed = completed;
  v.over_slo = over_slo;
  v.fast_burn = HorizonBurn(options_.fast_windows);
  v.slow_burn = HorizonBurn(options_.slow_windows);
  alerting_ = v.fast_burn >= options_.fast_burn_threshold &&
              v.slow_burn >= options_.slow_burn_threshold;
  v.alerting = alerting_;
  return v;
}

// --- stragglers -------------------------------------------------------

StragglerScorer::StragglerScorer(std::size_t num_units,
                                 HealthOptions options)
    : options_(options) {
  UPDLRM_CHECK(num_units > 0);
  smoothed_z_.assign(num_units, 0.0);
  if (options_.units_per_rank > 0) {
    rank_z_.assign(
        (num_units + options_.units_per_rank - 1) / options_.units_per_rank,
        0.0);
  }
  if (options_.units_per_shard > 0) {
    shard_z_.assign((num_units + options_.units_per_shard - 1) /
                        options_.units_per_shard,
                    0.0);
  }
}

namespace {

/// Population mean/stddev over uint64 work deltas.
void MeanStddev(std::span<const std::uint64_t> deltas, double* mean,
                double* stddev) {
  double sum = 0.0;
  for (const std::uint64_t d : deltas) sum += static_cast<double>(d);
  *mean = sum / static_cast<double>(deltas.size());
  double var = 0.0;
  for (const std::uint64_t d : deltas) {
    const double diff = static_cast<double>(d) - *mean;
    var += diff * diff;
  }
  *stddev = std::sqrt(var / static_cast<double>(deltas.size()));
}

/// EWMA-update `smoothed` from this window's raw z-scores of `deltas`,
/// returning the (worst id, max z) pair with ties to the lowest id.
StragglerScorer::GroupScore UpdateZ(std::span<const std::uint64_t> deltas,
                                    double alpha,
                                    std::vector<double>& smoothed) {
  double mean = 0.0;
  double stddev = 0.0;
  MeanStddev(deltas, &mean, &stddev);
  StragglerScorer::GroupScore score;
  score.max_z = -1e300;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const double z = stddev > 0.0
                         ? (static_cast<double>(deltas[i]) - mean) / stddev
                         : 0.0;
    smoothed[i] = alpha * z + (1.0 - alpha) * smoothed[i];
    if (smoothed[i] > score.max_z) {
      score.max_z = smoothed[i];
      score.worst = static_cast<std::uint32_t>(i);
    }
  }
  return score;
}

}  // namespace

StragglerScorer::WindowVerdict StragglerScorer::ScoreWindow(
    std::span<const std::uint64_t> deltas) {
  UPDLRM_CHECK(deltas.size() == smoothed_z_.size());
  WindowVerdict v;
  for (const std::uint64_t d : deltas) v.active_units += d > 0 ? 1 : 0;
  if (v.active_units < options_.min_active_units) {
    // An idle (or nearly idle) window carries no balance signal; the
    // smoothed scores keep their last value.
    return v;
  }
  v.judged = true;
  MeanStddev(deltas, &v.mean_delta, &v.stddev_delta);

  const GroupScore unit =
      UpdateZ(deltas, options_.ewma_alpha, smoothed_z_);
  v.worst_unit = unit.worst;
  v.max_z = unit.max_z;
  for (const double z : smoothed_z_) {
    v.stragglers += z >= options_.z_threshold ? 1 : 0;
  }
  v.alerting = v.stragglers > 0;

  // Group rollups: same scoring over per-group work sums.
  auto roll = [&](std::uint32_t per_group, std::vector<double>& smoothed) {
    group_sum_.assign(smoothed.size(), 0);
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      group_sum_[i / per_group] += deltas[i];
    }
    return UpdateZ(group_sum_, options_.ewma_alpha, smoothed);
  };
  if (options_.units_per_rank > 0) {
    v.rank = roll(options_.units_per_rank, rank_z_);
  }
  if (options_.units_per_shard > 0) {
    v.shard = roll(options_.units_per_shard, shard_z_);
  }
  return v;
}

// --- snapshot schema --------------------------------------------------

void FleetHealthWindow::WriteJson(JsonWriter& w) const {
  w.BeginObject().Field("window", index).Field("start_ns", start_ns);
  w.Field("end_ns", end_ns).Key("drift").BeginArray();
  for (const DriftWindow& d : drift) {
    const DriftDetector::WindowVerdict& v = d.verdict;
    w.BeginObject().Field("table", d.table).Field("accesses", v.accesses);
    w.Field("judged", v.judged).Field("tv", v.tv_distance);
    w.Field("jaccard", v.topk_jaccard).Field("bad", v.bad);
    w.Field("alert", v.alerting).EndObject();
  }
  w.EndArray();
  if (has_slo) {
    w.Key("slo").BeginObject().Field("completed", slo.completed);
    w.Field("over_slo", slo.over_slo).Field("fast_burn", slo.fast_burn);
    w.Field("slow_burn", slo.slow_burn);
    w.Field("p99_ns", p99_ns);
    w.Field("alert", slo.alerting).EndObject();
  }
  if (has_health) {
    const StragglerScorer::WindowVerdict& h = health;
    w.Key("health").BeginObject().Field("judged", h.judged);
    w.Field("active_units", h.active_units).Field("mean", h.mean_delta);
    w.Field("stddev", h.stddev_delta).Field("worst_unit", h.worst_unit);
    w.Field("max_z", h.max_z).Field("stragglers", h.stragglers);
    w.Field("alert", h.alerting).EndObject();
  }
  w.EndObject();
}

void HealthSummary::WriteJson(JsonWriter& w) const {
  w.BeginObject().Key("summary").BeginObject().Field("windows", windows);
  w.Field("drift_bad_table_windows", drift_bad_table_windows);
  w.Field("drift_tables_alerting", drift_tables_alerting);
  w.Field("first_drift_alert_window", first_drift_alert_window);
  w.Field("slo_alert_windows", slo_alert_windows);
  w.Field("slo_alerting", slo_alerting);
  w.Field("max_fast_burn", max_fast_burn);
  w.Field("max_slow_burn", max_slow_burn);
  w.Field("straggler_windows", straggler_windows);
  w.Field("max_unit_z", max_unit_z).Field("completed", completed);
  w.Field("p99_ns", p99_ns).EndObject().EndObject();
}

void HealthSummary::ExportTo(MetricsRegistry& registry,
                             const std::string& prefix) const {
  registry.Increment(prefix + ".windows", static_cast<double>(windows));
  registry.Increment(prefix + ".drift_bad_table_windows",
                     static_cast<double>(drift_bad_table_windows));
  registry.SetGauge(prefix + ".drift_tables_alerting",
                    static_cast<double>(drift_tables_alerting));
  registry.SetGauge(prefix + ".first_drift_alert_window",
                    static_cast<double>(first_drift_alert_window));
  registry.Increment(prefix + ".slo_alert_windows",
                     static_cast<double>(slo_alert_windows));
  registry.SetGauge(prefix + ".slo_alerting", slo_alerting ? 1.0 : 0.0);
  registry.SetGauge(prefix + ".max_fast_burn", max_fast_burn);
  registry.SetGauge(prefix + ".max_slow_burn", max_slow_burn);
  registry.Increment(prefix + ".straggler_windows",
                     static_cast<double>(straggler_windows));
  registry.SetGauge(prefix + ".max_unit_z", max_unit_z);
}

// --- JSONL validation -------------------------------------------------

namespace {

Status LineError(std::size_t line, const std::string& what) {
  return Status::InvalidArgument("health.jsonl line " +
                                 std::to_string(line + 1) + ": " + what);
}

}  // namespace

Status ValidateHealthJsonl(std::string_view jsonl,
                           std::size_t min_windows) {
  std::vector<std::string_view> lines;
  while (!jsonl.empty()) {
    const std::size_t nl = jsonl.find('\n');
    const std::string_view line =
        nl == std::string_view::npos ? jsonl : jsonl.substr(0, nl);
    if (!line.empty()) lines.push_back(line);
    if (nl == std::string_view::npos) break;
    jsonl.remove_prefix(nl + 1);
  }
  if (lines.size() < 2) {
    return Status::InvalidArgument(
        "health.jsonl needs a header and a summary record, got " +
        std::to_string(lines.size()) + " line(s)");
  }

  // Header.
  auto header = ParseJson(lines[0]);
  if (!header.ok()) return LineError(0, header.status().message());
  const JsonValue* schema = header->Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != "updlrm.health.v1") {
    return LineError(0, "missing schema tag \"updlrm.health.v1\"");
  }
  const JsonValue* window_ns = header->Find("window_ns");
  if (window_ns == nullptr || !window_ns->is_number() ||
      window_ns->AsNumber() <= 0.0) {
    return LineError(0, "missing positive \"window_ns\"");
  }

  // Window records, then exactly one trailing summary.
  std::size_t windows = 0;
  double prev_index = -1.0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    auto parsed = ParseJson(lines[i]);
    if (!parsed.ok()) return LineError(i, parsed.status().message());
    if (parsed->Find("summary") != nullptr) {
      if (i + 1 != lines.size()) {
        return LineError(i, "summary record before the last line");
      }
      break;
    }
    const JsonValue* index = parsed->Find("window");
    if (index == nullptr || !index->is_number()) {
      return LineError(i, "window record missing \"window\"");
    }
    if (index->AsNumber() <= prev_index) {
      return LineError(i, "window indices must be strictly increasing");
    }
    prev_index = index->AsNumber();
    for (const char* key : {"start_ns", "end_ns"}) {
      const JsonValue* v = parsed->Find(key);
      if (v == nullptr || !v->is_number()) {
        return LineError(i, std::string("window record missing \"") +
                                key + "\"");
      }
    }
    const JsonValue* drift = parsed->Find("drift");
    if (drift == nullptr || !drift->is_array()) {
      return LineError(i, "window record missing \"drift\" array");
    }
    ++windows;
  }
  const bool has_summary =
      ParseJson(lines.back()).ok() &&
      ParseJson(lines.back())->Find("summary") != nullptr;
  if (!has_summary) {
    return LineError(lines.size() - 1, "missing trailing summary record");
  }
  if (windows < min_windows) {
    return Status::FailedPrecondition(
        "health.jsonl holds " + std::to_string(windows) +
        " window(s), expected at least " + std::to_string(min_windows));
  }
  return Status::Ok();
}

}  // namespace updlrm::telemetry
