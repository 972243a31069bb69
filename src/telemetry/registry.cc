#include "telemetry/registry.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "common/status.h"
#include "telemetry/json.h"

namespace updlrm::telemetry {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::Increment(const std::string& name, double delta) {
  MutexLock lock(mu_);
  UPDLRM_CHECK_MSG(gauges_.count(name) == 0 && histograms_.count(name) == 0,
                   "metric name reused across kinds: " + name);
  counters_[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  MutexLock lock(mu_);
  UPDLRM_CHECK_MSG(
      counters_.count(name) == 0 && histograms_.count(name) == 0,
      "metric name reused across kinds: " + name);
  gauges_[name] = value;
}

void MetricsRegistry::Observe(const std::string& name, double value) {
  MutexLock lock(mu_);
  UPDLRM_CHECK_MSG(counters_.count(name) == 0 && gauges_.count(name) == 0,
                   "metric name reused across kinds: " + name);
  std::vector<double>& samples = histograms_[name];
  if (!std::isnan(value)) samples.push_back(value);
}

double MetricsRegistry::CounterValue(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

std::vector<double> MetricsRegistry::HistogramValue(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? std::vector<double>{} : it->second;
}

bool MetricsRegistry::Has(const std::string& name) const {
  MutexLock lock(mu_);
  return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
         histograms_.count(name) != 0;
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  JsonWriter w;
  w.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, value] : counters_) w.Field(name, value);
  w.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges_) w.Field(name, value);
  w.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    double sum = 0.0;
    for (const double v : h) sum += v;
    const auto [min, max] = std::minmax_element(h.begin(), h.end());
    w.Key(name).BeginObject().Field("count", h.size());
    w.Field("mean", h.empty() ? 0.0 : sum / static_cast<double>(h.size()));
    w.Field("p50", NearestRank(h, 50.0)).Field("p95", NearestRank(h, 95.0));
    w.Field("p99", NearestRank(h, 99.0));
    w.Field("min", h.empty() ? 0.0 : *min);
    w.Field("max", h.empty() ? 0.0 : *max).EndObject();
  }
  w.EndObject().EndObject();
  return w.str();
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace updlrm::telemetry
