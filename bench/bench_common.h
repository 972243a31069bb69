// Shared setup for the paper-reproduction benches.
//
// Every bench regenerates one table or figure of the paper. They all
// share the experimental setup of §4.1: Meta's DLRM with 8 duplicated
// EMTs of 32-dim embeddings, batch size 64, 12,800 sampled inferences,
// and the Table 2 UPMEM system (256 DPUs @ 350 MHz, 14 tasklets).
//
// By default benches run a reduced 640-sample trace (10 batches) so
// the whole suite completes in minutes on one core; per-batch results
// are unchanged because all timing models are per-batch. Pass --full
// for the paper's 12,800 samples, or --samples=N explicitly.
//
// --threads=N sets the host worker pool width (0 = all hardware
// threads, 1 = serial). Threads change wall-clock time only: every
// simulated latency and functional result is thread-count invariant
// (DESIGN.md §"Host execution backend"). Each bench self-times its
// wall clock via HostTimer and merges the measurement into
// BENCH_host.json, so speedup from --threads is directly observable.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/systems.h"
#include "cache/grace.h"
#include "common/cli.h"
#include "dlrm/model.h"
#include "pim/system.h"
#include "telemetry/monitor.h"
#include "telemetry/registry.h"
#include "trace/dataset.h"
#include "trace/generator.h"
#include "trace/profiler.h"
#include "updlrm/engine.h"

namespace updlrm::core {
class ShardedEngine;
}  // namespace updlrm::core

namespace updlrm::bench {

struct BenchScale {
  std::size_t num_samples = 640;
  std::size_t batch_size = 64;
  /// Host pool width (0 = hardware concurrency, 1 = serial).
  std::uint32_t threads = 0;
  /// Trace seed override (0 = each dataset spec's own base seed).
  std::uint64_t seed = 0;
  /// Arrival process for serving benches ("poisson" | "uniform" |
  /// "bursty"); ignored by the offline benches.
  std::string arrival = "poisson";
  /// WRAM hot-row tier (EngineOptions::wram_cache_rows, --wram=N);
  /// default off, the paper's kernel, so bench output matches the paper
  /// baseline unless enabled (the engine's own default pins as many
  /// rows as fit).
  std::uint32_t wram = 0;
  /// Hardware-contract checker (EngineOptions::check_mode): shadow
  /// MRAM/DMA validation, plan audits and the model/sim cross-audit on
  /// every engine the bench creates. The bench aborts with the
  /// violation report if any rule fires (see AssertChecksClean).
  bool check = false;
  /// serve_latency only: restrict the bench to the end-to-end pipeline
  /// section (tuned data flow, CTR path spans) and skip the
  /// per-method embedding sweep — the CI smoke configuration. The
  /// default (false) runs both sections.
  bool e2e = false;
  /// Chrome-trace output path; empty = tracing off. Benches honoring
  /// it scope a TraceSession around one representative run (simulated
  /// clocks restart at 0 per run, so tracing several runs into one
  /// file would overlap in the viewer).
  std::string trace_out;
  /// Trace 1-in-N batches/requests (TracerOptions::sample_every). The
  /// skipped spans are counted, never silently dropped.
  std::uint64_t trace_sample_every = 1;
  /// DPU count override for MakePaperSystem(scale); 0 keeps the Table 2
  /// default (256). The scale-out benches use this to size one replica
  /// or shard slice.
  std::uint32_t dpus = 0;
  /// Rank count override: num_dpus must divide evenly; 0 keeps the
  /// Table 2 default (4 ranks of 64).
  std::uint32_t ranks = 0;
  /// Fleet-health JSONL output path (--health-out); empty = monitoring
  /// off. Benches honoring it attach a FleetMonitor to one
  /// representative serve run (the same run --trace-out captures).
  std::string health_out;
  /// Monitor window width in simulated microseconds (--health-window-us).
  double health_window_us = 100.0;
};

/// Parses --samples / --full / --batch / --threads / --seed / --arrival
/// / --wram=N / --check / --e2e / --trace-out=PATH /
/// --trace-sample-every=N / --health-out=PATH / --health-window-us=N
/// from argv; sizes the process-wide default pool and prints a scale
/// banner.
BenchScale ParseScale(int argc, const char* const* argv);

struct Workload {
  trace::DatasetSpec spec;
  dlrm::DlrmConfig config;  // 8 tables x (num_items x 32), dense 13
  trace::Trace trace;
};

/// Generates the trace for one §4.1 workload at the given scale.
Workload PrepareWorkload(const trace::DatasetSpec& spec,
                         const BenchScale& scale);

/// A functional replica small enough to materialize on the Table 2
/// system: Table 1's first dataset scaled to 4 tables of 8,192 rows
/// (1,024 hot), dim 32, 256 samples, with dense inputs. The ablations'
/// bit-exactness gates serve it.
struct FunctionalReplica {
  dlrm::DlrmConfig config;
  dlrm::DlrmModel model;
  trace::Trace trace;
  dlrm::DenseInputs dense;
};
FunctionalReplica MakeFunctionalReplica(const BenchScale& scale);

/// The Table 2 UPMEM system: 256 DPUs, 4 ranks, paper defaults.
/// Timing-only (full-scale tables are never materialized in benches).
std::unique_ptr<pim::DpuSystem> MakePaperSystem();

/// The Table 2 system config with the --dpus / --ranks overrides
/// applied (0 keeps each default). Aborts if ranks does not divide the
/// DPU count.
pim::DpuSystemConfig MakePaperSystemConfig(const BenchScale& scale);

/// MakePaperSystem honoring --dpus / --ranks.
std::unique_ptr<pim::DpuSystem> MakePaperSystem(const BenchScale& scale);

/// Engine options matching the §4.1 setup: one copy of the model
/// (replicas = 1) and the paper's 4-byte stage-1 indices
/// (packed_indices = false), so every paper figure keeps the paper's
/// layout and wire format.
core::EngineOptions PaperEngineOptions(partition::Method method,
                                       std::uint32_t nc,
                                       const BenchScale& scale);

/// Mines GRACE cache lists once per table so multiple engine
/// configurations can share them. Tables mine in parallel
/// (`num_threads`: 0 = default pool, 1 = serial); results are
/// thread-count invariant. `profiles` optionally supplies ProfileTables
/// output so the miner skips its own per-table profiling pass.
std::vector<cache::CacheRes> MineCaches(
    const Workload& workload, std::uint32_t num_threads = 0,
    const std::vector<trace::TableProfile>* profiles = nullptr);

/// Profiles every table once (freq histogram + descending-frequency
/// order) for EngineOptions::preprofiled, so the per-table radix sort
/// runs once per workload instead of once per engine configuration.
/// Tables profile in parallel; results are thread-count invariant.
std::vector<trace::TableProfile> ProfileTables(
    const Workload& workload, std::uint32_t num_threads = 0);

/// FAE GPU hot-cache provisioning used in comparisons.
baselines::FaeOptions PaperFaeOptions();

/// Builds the --health-out FleetMonitor for one monitored serve run:
/// window width from --health-window-us, SLO target `slo_ns`, straggler
/// rank/shard grouping from `units_per_rank` / `units_per_shard` (0 =
/// no such grouping). Returns nullptr — monitoring off — when
/// scale.health_out is empty or telemetry is compiled out (with a
/// stderr note, like TraceSession).
std::unique_ptr<telemetry::FleetMonitor> MakeFleetMonitor(
    const BenchScale& scale, Nanos slo_ns, std::uint32_t units_per_rank = 0,
    std::uint32_t units_per_shard = 0);

/// Finalizes `monitor` and lands every health artifact: per-window
/// counters into the live trace (call this BEFORE the TraceSession
/// closes), the JSONL stream to scale.health_out (self-checked with
/// ValidateHealthJsonl — the bench aborts on a malformed stream), the
/// summary into MetricsRegistry::Global() under "health." (so it rides
/// into BENCH_metrics.json), and a one-line stderr digest. No-op when
/// `monitor` is null.
void WriteHealthArtifacts(telemetry::FleetMonitor* monitor,
                          const BenchScale& scale);

/// Merges "<name>": <payload> (payload = a JSON value) into
/// BENCH_host.json — the same file HostTimer writes — for benches that
/// produce structured measurements outside the RAII timer (e.g. the
/// micro_benchmarks SIMD throughput rows). A malformed file or payload
/// aborts the bench.
void WriteBenchHostEntry(const std::string& name,
                         const std::string& payload);

/// Check-mode gate: a no-op when the engine runs without
/// EngineOptions::check_mode; otherwise prints the violation report
/// (prefixed with `label`) and aborts the bench on any violation, so a
/// --check bench run doubles as a zero-violation assertion in CI.
void AssertChecksClean(const core::UpDlrmEngine& engine,
                       const std::string& label);

/// Fleet variant: gates on the fleet-level report (shard coverage,
/// tier capacity, reduction shape) plus every shard engine's own
/// report. No-op when the engine was built without check_mode.
void AssertChecksClean(const core::ShardedEngine& engine,
                       const std::string& label);

/// RAII wall-clock self-timer. On destruction, merges
///   "<name>": {"wall_seconds": <elapsed>, "threads": <width>,
///              "phases": {<phase>: <seconds>, ...}}
/// into BENCH_host.json in the working directory (one entry per bench;
/// re-runs overwrite their own entry; "phases" is omitted when
/// BeginPhase was never called). It also mirrors the measurements into
/// MetricsRegistry::Global() ("host.wall_seconds", "host.threads",
/// "host.phase.<phase>_seconds") and merges that registry's full
/// ToJson snapshot — everything the bench exported, not just host time
/// — into BENCH_metrics.json under the same entry name. This is the
/// only place host wall time is recorded — simulated results never
/// depend on it.
class HostTimer {
 public:
  HostTimer(std::string name, const BenchScale& scale);
  ~HostTimer();

  HostTimer(const HostTimer&) = delete;
  HostTimer& operator=(const HostTimer&) = delete;

  /// Closes the currently open phase (if any) and opens `name`.
  /// Repeated phases accumulate, so a bench looping over configs can
  /// alternate BeginPhase("setup") / BeginPhase("run_batches") and get
  /// the total Setup-vs-RunBatch wall-clock split. Phase attribution
  /// is per-thread wall clock: call from the bench's main thread only.
  void BeginPhase(const char* name);

 private:
  double ClosePhase();

  std::string name_;
  std::uint32_t threads_;
  std::chrono::steady_clock::time_point start_;
  /// Accumulated (phase, seconds), in first-use order.
  std::vector<std::pair<std::string, double>> phases_;
  const char* open_phase_ = nullptr;
  std::chrono::steady_clock::time_point phase_start_{};
};

/// RAII tracing scope for one bench region (the --trace-out /
/// --trace-sample-every flags). Inert when scale.trace_out is empty;
/// otherwise enables the process tracer on construction and, on
/// destruction, disables it, writes the Chrome-trace JSON to
/// scale.trace_out, validates it with the schema checker (aborting the
/// bench on a malformed or empty trace), and prints the
/// recorded/dropped/sampled-out accounting to stderr and the registry
/// ("trace.*" counters) — the drop is never silent.
class TraceSession {
 public:
  explicit TraceSession(const BenchScale& scale);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool active() const { return !path_.empty(); }

 private:
  std::string path_;
  std::uint64_t sample_every_ = 1;
};

/// Top-k straggler rows for the engine's accumulated stage-2 work —
/// the per-run balance report behind the NU/CA claims. Each row is
/// {label, dpu, table/bin/col, kernel cycles, x mean, lookups,
/// wram hits} for a TablePrinter with kStragglerColumns headers; a
/// replicated engine prefixes the location with its replica.
inline const std::vector<std::string> kStragglerColumns = {
    "config", "dpu", "tbl/bin/col", "kernel cycles", "x mean",
    "lookups", "wram hits"};
std::vector<std::vector<std::string>> StragglerRows(
    const core::UpDlrmEngine& engine, const std::string& label,
    std::size_t k = 3);

}  // namespace updlrm::bench
