// Tail-latency metrics for the serving subsystem.
//
// Serving quality is a distribution, not a mean: SLOs bind the p99, and
// capacity planning asks for the highest load whose tail still meets
// it. This module provides per-stage utilization, a queue-depth time
// series, and the SLO report benches emit as JSON. Every run keeps each
// completed request's latency, so the report's percentiles are exact
// nearest-rank ones over those samples (common/stats.h NearestRank, the
// same definition the repo benchmark uses), and every statistic is a
// pure function of simulated inputs — bit-exact at any host thread
// count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"
#include "telemetry/json.h"

namespace updlrm::serve {

/// Busy fractions of the pipeline resources over the run
/// (serve/executor.h). The host is two lanes: the transfer lane moves
/// stage-1/3 data over the DIMM buses, the core lane runs aggregation
/// and CPU dense tasks. Full-path plans (src/pipeline) additionally
/// split out the core lane's dense-compute time and the optional GPU
/// backend.
struct StageUtilization {
  Nanos host_busy_ns = 0.0;  // transfer lane: stage-1 push + stage-3 pull
  Nanos dpu_busy_ns = 0.0;   // stage 2
  Nanos makespan_ns = 0.0;
  /// Core lane: CPU aggregation + CPU-placed dense tasks.
  Nanos host_core_busy_ns = 0.0;
  /// Core-lane time spent in MLP / interaction work (a subset of
  /// host_core_busy_ns).
  Nanos host_mlp_busy_ns = 0.0;
  /// GPU backend busy time; 0 when every stage runs on the host.
  Nanos gpu_busy_ns = 0.0;

  double HostUtilization() const {
    return makespan_ns <= 0.0 ? 0.0 : host_busy_ns / makespan_ns;
  }
  double HostCoreUtilization() const {
    return makespan_ns <= 0.0 ? 0.0 : host_core_busy_ns / makespan_ns;
  }
  double DpuUtilization() const {
    return makespan_ns <= 0.0 ? 0.0 : dpu_busy_ns / makespan_ns;
  }
  double HostMlpUtilization() const {
    return makespan_ns <= 0.0 ? 0.0 : host_mlp_busy_ns / makespan_ns;
  }
  double GpuUtilization() const {
    return makespan_ns <= 0.0 ? 0.0 : gpu_busy_ns / makespan_ns;
  }
};

/// Queue depth observed at a batch-cut instant (post-cut depth).
struct QueueDepthSample {
  Nanos t_ns = 0.0;
  std::size_t depth = 0;
};

/// The serving scorecard for one (configuration, offered load) point.
struct SloReport {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  // completed / makespan
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  Nanos p50_ns = 0.0;
  Nanos p95_ns = 0.0;
  Nanos p99_ns = 0.0;
  Nanos mean_ns = 0.0;
  Nanos max_ns = 0.0;
  Nanos slo_ns = 0.0;  // the p99 SLO this point was judged against
  bool slo_met = false;  // p99 <= slo and nothing shed

  /// Writes the scorecard's members, in a stable key order, into the
  /// caller's open JSON object.
  void WriteFields(telemetry::JsonWriter& w) const;
};

/// What one serve run scored, shared by the embedding-only and the
/// full-path simulations (both fill it in serve/loop.h).
struct ServeScorecard {
  /// Completion latency per completed request, in batch-cut order.
  std::vector<Nanos> request_latency_ns;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  Nanos makespan_ns = 0.0;  // last batch completion (sim starts at 0)
  StageUtilization utilization;
  std::vector<QueueDepthSample> queue_depth;  // post-cut depths
  std::size_t max_queue_depth = 0;
  std::size_t num_batches = 0;
  double avg_batch_size = 0.0;
  /// Request-span tracing accounting (0 unless tracing was enabled):
  /// spans emitted vs skipped by the 1-in-N sampler — the drop is
  /// always visible, never silent.
  std::uint64_t requests_traced = 0;
  std::uint64_t requests_sampled_out = 0;

  /// Exact p50/p95/p99 (NearestRank), mean and max over
  /// request_latency_ns, judged against `slo_ns`.
  SloReport MakeSloReport(double offered_qps, Nanos slo_ns) const;
};

/// A swept load point for capacity planning.
struct RatePoint {
  double offered_qps = 0.0;
  Nanos p99_ns = 0.0;
  std::uint64_t shed = 0;
};

/// Max sustainable QPS under a p99 SLO: the highest offered rate whose
/// p99 meets `slo_ns` with nothing shed; 0 if no swept point qualifies.
double MaxSustainableQps(std::span<const RatePoint> points, Nanos slo_ns);

}  // namespace updlrm::serve
