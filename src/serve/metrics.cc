#include "serve/metrics.h"

#include <algorithm>

#include "common/stats.h"

namespace updlrm::serve {

void SloReport::WriteFields(telemetry::JsonWriter& w) const {
  w.Field("offered_qps", offered_qps).Field("achieved_qps", achieved_qps);
  w.Field("completed", completed).Field("shed", shed);
  w.Field("p50_us", NanosToMicros(p50_ns));
  w.Field("p95_us", NanosToMicros(p95_ns));
  w.Field("p99_us", NanosToMicros(p99_ns));
  w.Field("mean_us", NanosToMicros(mean_ns));
  w.Field("max_us", NanosToMicros(max_ns));
  w.Field("slo_us", NanosToMicros(slo_ns)).Field("slo_met", slo_met);
}

double MaxSustainableQps(std::span<const RatePoint> points, Nanos slo_ns) {
  double best = 0.0;
  for (const RatePoint& pt : points) {
    if (pt.shed == 0 && pt.p99_ns <= slo_ns) {
      best = std::max(best, pt.offered_qps);
    }
  }
  return best;
}

SloReport ServeScorecard::MakeSloReport(double offered_qps,
                                        Nanos slo_ns) const {
  SloReport report;
  report.offered_qps = offered_qps;
  report.completed = completed;
  report.shed = shed;
  report.achieved_qps =
      makespan_ns <= 0.0 ? 0.0
                         : static_cast<double>(completed) /
                               (makespan_ns / kNanosPerSecond);
  report.p50_ns = NearestRank(request_latency_ns, 50.0);
  report.p95_ns = NearestRank(request_latency_ns, 95.0);
  report.p99_ns = NearestRank(request_latency_ns, 99.0);
  Nanos sum_ns = 0.0;
  for (const Nanos l : request_latency_ns) {
    sum_ns += l;
    report.max_ns = std::max(report.max_ns, l);
  }
  if (!request_latency_ns.empty()) {
    report.mean_ns =
        sum_ns / static_cast<double>(request_latency_ns.size());
  }
  report.slo_ns = slo_ns;
  report.slo_met = shed == 0 && report.p99_ns <= slo_ns;
  return report;
}

}  // namespace updlrm::serve
