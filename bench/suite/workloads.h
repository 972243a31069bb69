// The repo benchmark's workloads and the run that measures one of them.
//
// Each workload is one open-loop serving configuration with fixed
// absolute light/heavy rates and a fixed p99 SLO (bench/suite/README.md
// says why each exists). A run generates the workload's inputs from the
// seed, sets the engine up repeatedly for a fixed wall budget, finds the
// sustainable rate by bisection, serves the two fixed rates, and gates
// the whole run on a bit-exact functional replica. A traced run spends
// its budget timing the host cost of serving instead. Inputs are built
// only through src/ public APIs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "partition/plan.h"
#include "serve/workload.h"

namespace updlrm::suite {

struct WorkloadSpec {
  std::string_view name;
  /// Table 1 dataset short name (trace::FindDataset).
  std::string_view dataset;
  partition::Method method;
  serve::ArrivalProcess arrival;
  /// Trace samples == requests per serving run.
  std::size_t samples;
  /// Cache-aware flat engines mine GRACE lists from this many leading
  /// samples (the historical window); 0 = no suite-side mining.
  std::size_t mine_samples;
  /// 0 = one flat engine; N = ShardedEngine over N shards.
  std::uint32_t shards;
  /// Serve the full DLRM path (RunDataFlowSimulation + tuned plan)
  /// instead of the embedding-only serve loop.
  bool full_path;
  double light_qps;
  double heavy_qps;
  double slo_us;
};

std::span<const WorkloadSpec> Workloads();

/// nullptr when no workload has this name.
const WorkloadSpec* FindWorkload(std::string_view name);

struct RunOptions {
  std::uint64_t seed = 1;
  /// Host worker threads (outputs are identical at any width).
  std::uint32_t threads = 4;
  /// Wall budget of the host-time measurement loop: repeated setups
  /// untraced, repeated heavy serving runs traced.
  double seconds = 10.0;
  /// Smoke scale: every workload shrunk so a full pass takes seconds.
  bool smoke = false;
  /// Non-empty: also record the per-layer host metrics, with a traced
  /// pass whose Chrome trace is written to <traced_dir>/<workload>.json.
  std::string traced_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::vector<Metric> metrics;
  /// Digest of the heavy-rate per-request latency vector.
  std::uint64_t sim_digest = 0;
  /// Fixed-rate requests offered, and those shed or errored.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Input generation wall time (not a metric).
  double gen_s = 0.0;
  /// Correctness gates that failed; empty = the run is correct.
  std::vector<std::string> failures;
};

/// Runs one workload. An error Status means the run could not complete
/// (a failed API call); gate mismatches land in RunReport::failures.
Result<RunReport> RunWorkload(const WorkloadSpec& spec,
                              const RunOptions& options);

}  // namespace updlrm::suite
