#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/simd.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "pim/stats_summary.h"
#include "telemetry/json.h"
#include "telemetry/trace_export.h"
#include "telemetry/tracer.h"
#include "updlrm/scaleout.h"

namespace updlrm::bench {

BenchScale ParseScale(int argc, const char* const* argv) {
  BenchScale scale;
  auto cl = CommandLine::Parse(argc, argv);
  if (cl.ok()) {
    if (cl->GetBool("full", false)) {
      scale.num_samples = 12'800;  // the paper's sampling
    }
    scale.num_samples = static_cast<std::size_t>(
        cl->GetInt("samples", static_cast<std::int64_t>(scale.num_samples)));
    scale.batch_size = static_cast<std::size_t>(
        cl->GetInt("batch", static_cast<std::int64_t>(scale.batch_size)));
    scale.threads =
        static_cast<std::uint32_t>(cl->GetInt("threads", 0));
    scale.seed = static_cast<std::uint64_t>(cl->GetInt("seed", 0));
    scale.arrival = cl->GetString("arrival", scale.arrival);
    scale.wram = static_cast<std::uint32_t>(cl->GetInt("wram", 0));
    scale.check = cl->GetBool("check", false);
    scale.e2e = cl->GetBool("e2e", false);
    if (cl->GetBool("force-scalar", false)) {
      simd::ForceScalar(true);
    }
    scale.trace_out = cl->GetString("trace-out", "");
    scale.trace_sample_every = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, cl->GetInt("trace-sample-every", 1)));
    scale.dpus = static_cast<std::uint32_t>(cl->GetInt("dpus", 0));
    scale.ranks = static_cast<std::uint32_t>(cl->GetInt("ranks", 0));
    scale.health_out = cl->GetString("health-out", "");
    scale.health_window_us = static_cast<double>(std::max<std::int64_t>(
        1, cl->GetInt("health-window-us",
                      static_cast<std::int64_t>(scale.health_window_us))));
  }
  if (scale.threads > 0) {
    // Cap the process-wide pool so num_threads = 0 regions also honor
    // the flag. Must happen before anything touches the default pool.
    ThreadPool::SetDefaultThreads(scale.threads);
  }
  const unsigned effective =
      scale.threads > 0 ? scale.threads
                        : std::max(1u, std::thread::hardware_concurrency());
  std::printf("# setup: %zu sampled inferences, batch size %zu, "
              "%u host thread(s), %s kernels "
              "(paper: 12800 / 64; pass --full for paper scale, "
              "--threads=N for host parallelism, --force-scalar to "
              "disable AVX2)\n\n",
              scale.num_samples, scale.batch_size, effective,
              simd::UsingAvx2() ? "avx2" : "scalar");
  return scale;
}

Workload PrepareWorkload(const trace::DatasetSpec& spec,
                         const BenchScale& scale) {
  Workload w;
  w.spec = spec;
  w.config.num_tables = 8;  // §4.1: each dataset duplicated into 8 EMTs
  w.config.rows_per_table = spec.num_items;
  w.config.embedding_dim = 32;
  w.config.dense_features = 13;
  trace::TraceGeneratorOptions options;
  options.num_samples = scale.num_samples;
  options.num_tables = 8;
  options.num_threads = scale.threads;
  options.seed_override = scale.seed;  // 0 keeps the spec's base seed
  auto trace = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK_MSG(trace.ok(), trace.status().ToString());
  w.trace = std::move(trace).value();
  return w;
}

FunctionalReplica MakeFunctionalReplica(const BenchScale& scale) {
  dlrm::DlrmConfig config;
  config.num_tables = 4;
  config.rows_per_table = 8'192;
  config.embedding_dim = 32;
  config.dense_features = 13;
  auto model = dlrm::DlrmModel::Create(config);
  UPDLRM_CHECK_MSG(model.ok(), model.status().ToString());
  trace::DatasetSpec spec = trace::Table1Workloads()[0];
  spec.num_items = config.rows_per_table;
  spec.num_hot_items = 1'024;
  trace::TraceGeneratorOptions generate;
  generate.num_samples = 256;
  generate.num_tables = config.num_tables;
  generate.num_threads = scale.threads;
  auto trace = trace::TraceGenerator(spec).Generate(generate);
  UPDLRM_CHECK_MSG(trace.ok(), trace.status().ToString());
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(
      generate.num_samples, config.dense_features, spec.seed + 1);
  return FunctionalReplica{config, std::move(model).value(),
                           std::move(trace).value(), std::move(dense)};
}

std::unique_ptr<pim::DpuSystem> MakePaperSystem() {
  pim::DpuSystemConfig config;  // defaults are the Table 2 system
  config.functional = false;
  auto system = pim::DpuSystem::Create(config);
  UPDLRM_CHECK_MSG(system.ok(), system.status().ToString());
  return std::move(system).value();
}

pim::DpuSystemConfig MakePaperSystemConfig(const BenchScale& scale) {
  pim::DpuSystemConfig config;  // defaults are the Table 2 system
  config.functional = false;
  if (scale.dpus > 0) config.num_dpus = scale.dpus;
  if (scale.ranks > 0) {
    UPDLRM_CHECK_MSG(config.num_dpus % scale.ranks == 0,
                     "--ranks must divide the DPU count");
    config.dpus_per_rank = config.num_dpus / scale.ranks;
  } else if (config.num_dpus < config.dpus_per_rank) {
    config.dpus_per_rank = config.num_dpus;  // small --dpus: one rank
  }
  return config;
}

std::unique_ptr<pim::DpuSystem> MakePaperSystem(const BenchScale& scale) {
  auto system = pim::DpuSystem::Create(MakePaperSystemConfig(scale));
  UPDLRM_CHECK_MSG(system.ok(), system.status().ToString());
  return std::move(system).value();
}

core::EngineOptions PaperEngineOptions(partition::Method method,
                                       std::uint32_t nc,
                                       const BenchScale& scale) {
  core::EngineOptions options;
  options.method = method;
  options.nc = nc;
  options.replicas = 1;  // the paper's single copy of the model
  options.packed_indices = false;  // the paper's 4-byte stage-1 format
  options.batch_size = scale.batch_size;
  options.num_threads = scale.threads;
  options.grace.num_threads = scale.threads;
  options.wram_cache_rows = scale.wram;
  options.check_mode = scale.check;
  return options;
}

void AssertChecksClean(const core::UpDlrmEngine& engine,
                       const std::string& label) {
  const check::CheckReport* report = engine.check_report();
  if (report == nullptr) return;  // checks off: nothing to gate on
  if (report->clean()) {
    std::printf("# check[%s]: clean (0 violations)\n", label.c_str());
    return;
  }
  std::printf("# check[%s]: %s", label.c_str(),
              report->ToString().c_str());
  UPDLRM_CHECK_MSG(false, "hardware-contract checker reported " +
                              std::to_string(report->total()) +
                              " violation(s) in " + label);
}

void AssertChecksClean(const core::ShardedEngine& engine,
                       const std::string& label) {
  if (engine.num_shards() == 0 ||
      engine.shard(0).check_report() == nullptr) {
    return;  // checks off: nothing to gate on
  }
  const std::uint64_t total = engine.check_violations();
  if (total == 0) {
    std::printf("# check[%s]: clean (0 violations across %u shard(s) "
                "and the fleet audits)\n",
                label.c_str(), engine.num_shards());
    return;
  }
  std::printf("# check[%s] fleet: %s", label.c_str(),
              engine.fleet_check_report().ToString().c_str());
  for (std::uint32_t s = 0; s < engine.num_shards(); ++s) {
    const check::CheckReport* shard = engine.shard(s).check_report();
    if (shard != nullptr && !shard->clean()) {
      std::printf("# check[%s] shard %u: %s", label.c_str(), s,
                  shard->ToString().c_str());
    }
  }
  UPDLRM_CHECK_MSG(false, "fleet checker reported " +
                              std::to_string(total) + " violation(s) in " +
                              label);
}

std::vector<cache::CacheRes> MineCaches(
    const Workload& workload, std::uint32_t num_threads,
    const std::vector<trace::TableProfile>* profiles) {
  // Per-table mining is independent; each task fills its own slot, so
  // the mined lists are identical at any thread count.
  const std::uint32_t tables = workload.config.num_tables;
  UPDLRM_CHECK_MSG(profiles == nullptr || profiles->size() == tables,
                   "profiles must hold one TableProfile per table");
  std::vector<cache::CacheRes> caches(tables);
  std::vector<Status> statuses(tables);
  ParallelFor(
      tables,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          cache::GraceMiner miner;
          auto res = miner.Mine(
              workload.trace.tables[t], workload.config.rows_per_table,
              profiles != nullptr ? &(*profiles)[t] : nullptr);
          if (!res.ok()) {
            statuses[t] = res.status();
            continue;
          }
          caches[t] = std::move(res).value();
        }
      },
      num_threads);
  for (const Status& status : statuses) {
    UPDLRM_CHECK_MSG(status.ok(), status.ToString());
  }
  return caches;
}

std::vector<trace::TableProfile> ProfileTables(const Workload& workload,
                                               std::uint32_t num_threads) {
  // Per-table profiling is independent; each task fills its own slot,
  // so the profiles are identical at any thread count.
  const std::uint32_t tables = workload.config.num_tables;
  std::vector<trace::TableProfile> profiles(tables);
  ParallelFor(
      tables,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          profiles[t] = trace::ProfileTable(workload.trace.tables[t],
                                            workload.config.rows_per_table);
        }
      },
      num_threads);
  return profiles;
}

baselines::FaeOptions PaperFaeOptions() {
  return baselines::FaeOptions{};  // 64 MB hot cache (see systems.h)
}

std::unique_ptr<telemetry::FleetMonitor> MakeFleetMonitor(
    const BenchScale& scale, Nanos slo_ns, std::uint32_t units_per_rank,
    std::uint32_t units_per_shard) {
  if (scale.health_out.empty()) return nullptr;
#ifdef UPDLRM_TELEMETRY_DISABLED
  std::fprintf(stderr,
               "# health: telemetry compiled out (-DUPDLRM_TELEMETRY=OFF); "
               "--health-out ignored\n");
  return nullptr;
#else
  telemetry::MonitorOptions options;
  options.window_ns = scale.health_window_us * 1e3;
  options.slo.slo_ns = slo_ns;
  options.health.units_per_rank = units_per_rank;
  options.health.units_per_shard = units_per_shard;
  return std::make_unique<telemetry::FleetMonitor>(options);
#endif
}

void WriteHealthArtifacts(telemetry::FleetMonitor* monitor,
                          const BenchScale& scale) {
  if (monitor == nullptr) return;
  monitor->Finalize();
  // Counter events must land before the TraceSession snapshots the
  // buffer — callers sequence this before the session destructor runs.
  monitor->EmitTraceCounters();

  const std::string jsonl = monitor->ToJsonl();
  const Status written = telemetry::WriteTextFile(scale.health_out, jsonl);
  UPDLRM_CHECK_MSG(written.ok(), written.ToString());
  const Status valid = telemetry::ValidateHealthJsonl(jsonl, 1);
  UPDLRM_CHECK_MSG(valid.ok(), valid.ToString());

  monitor->ExportTo(telemetry::MetricsRegistry::Global(), "health");

  const telemetry::HealthSummary& summary = monitor->summary();
  std::fprintf(
      stderr,
      "# health: %llu window(s) -> %s (slo: %llu alert window(s), max "
      "burn %.2f/%.2f; stragglers: %llu window(s), max |z| %.2f)\n",
      static_cast<unsigned long long>(summary.windows),
      scale.health_out.c_str(),
      static_cast<unsigned long long>(summary.slo_alert_windows),
      summary.max_fast_burn, summary.max_slow_burn,
      static_cast<unsigned long long>(summary.straggler_windows),
      summary.max_unit_z);
}

void WriteBenchHostEntry(const std::string& name,
                         const std::string& payload) {
  const Status merged =
      telemetry::MergeJsonEntry("BENCH_host.json", name, payload);
  UPDLRM_CHECK_MSG(merged.ok(), merged.ToString());
}

HostTimer::HostTimer(std::string name, const BenchScale& scale)
    : name_(std::move(name)),
      threads_(scale.threads),
      start_(std::chrono::steady_clock::now()) {}

void HostTimer::BeginPhase(const char* name) {
  ClosePhase();
  open_phase_ = name;
  phase_start_ = std::chrono::steady_clock::now();
}

double HostTimer::ClosePhase() {
  if (open_phase_ == nullptr) return 0.0;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    phase_start_)
          .count();
  const std::string name = open_phase_;
  open_phase_ = nullptr;
  for (auto& [phase, total] : phases_) {
    if (phase == name) {
      total += seconds;
      return seconds;
    }
  }
  phases_.emplace_back(name, seconds);
  return seconds;
}

HostTimer::~HostTimer() {
  ClosePhase();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_)
          .count();
  const unsigned effective =
      threads_ > 0 ? threads_
                   : std::max(1u, std::thread::hardware_concurrency());

  telemetry::JsonWriter mine;
  mine.BeginObject().Field("wall_seconds", seconds);
  mine.Field("threads", effective);
  if (!phases_.empty()) {
    mine.Key("phases").BeginObject();
    for (const auto& [phase, total] : phases_) mine.Field(phase, total);
    mine.EndObject();
  }
  mine.EndObject();
  WriteBenchHostEntry(name_, mine.str());

  // Mirror into the unified registry, then snapshot everything the
  // bench exported (serve scorecards, DPU stats, trace accounting,
  // ...) into BENCH_metrics.json under the same entry name.
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  registry.SetGauge("host.wall_seconds", seconds);
  registry.SetGauge("host.threads", static_cast<double>(effective));
  for (const auto& [phase, total] : phases_) {
    registry.SetGauge("host.phase." + phase + "_seconds", total);
  }
  const Status merged = telemetry::MergeJsonEntry("BENCH_metrics.json",
                                                  name_, registry.ToJson());
  UPDLRM_CHECK_MSG(merged.ok(), merged.ToString());

  std::printf("\n# host wall clock: %.3f s at %u thread(s)", seconds,
              effective);
  for (const auto& [phase, total] : phases_) {
    std::printf(" [%s %.3f s]", phase.c_str(), total);
  }
  std::printf(" -> BENCH_host.json, BENCH_metrics.json\n");
}

TraceSession::TraceSession(const BenchScale& scale)
    : path_(scale.trace_out), sample_every_(scale.trace_sample_every) {
#ifdef UPDLRM_TELEMETRY_DISABLED
  if (!path_.empty()) {
    std::fprintf(stderr,
                 "# trace: telemetry compiled out (-DUPDLRM_TELEMETRY=OFF); "
                 "--trace-out ignored\n");
    path_.clear();
  }
#else
  if (path_.empty()) return;
  telemetry::TracerOptions options;
  options.sample_every = sample_every_;
  telemetry::Tracer::Get().Enable(options);
#endif
}

TraceSession::~TraceSession() {
  if (path_.empty()) return;
  telemetry::Tracer& tracer = telemetry::Tracer::Get();
  tracer.Disable();
  const Status written = telemetry::WriteChromeTrace(tracer, path_);
  UPDLRM_CHECK_MSG(written.ok(), written.ToString());
  const Status valid = telemetry::ValidateChromeTraceFile(path_);
  UPDLRM_CHECK_MSG(valid.ok(), valid.ToString());

  const std::uint64_t recorded = tracer.recorded_events();
  const std::uint64_t dropped = tracer.dropped_events();
  const std::uint64_t sampled_out = tracer.sampled_out_events();
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  registry.Increment("trace.recorded_events",
                     static_cast<double>(recorded));
  registry.Increment("trace.dropped_events", static_cast<double>(dropped));
  registry.Increment("trace.sampled_out_spans",
                     static_cast<double>(sampled_out));
  std::fprintf(stderr,
               "# trace: %llu events -> %s (%llu dropped by full buffers, "
               "%llu spans sampled out by --trace-sample-every=%llu)\n",
               static_cast<unsigned long long>(recorded), path_.c_str(),
               static_cast<unsigned long long>(dropped),
               static_cast<unsigned long long>(sampled_out),
               static_cast<unsigned long long>(sample_every_));
}

std::vector<std::vector<std::string>> StragglerRows(
    const core::UpDlrmEngine& engine, const std::string& label,
    std::size_t k) {
  const pim::DpuSystem& system = engine.dpu_system();
  const pim::DpuStatsSummary summary = pim::SummarizeStats(system);
  const double mean = static_cast<double>(summary.mean_kernel_cycles);
  std::vector<std::vector<std::string>> rows;
  for (const pim::DpuHotspot& h : pim::TopKSlowestDpus(system, k)) {
    const auto loc = engine.LocateDpu(h.dpu);
    // Replicated engines name the copy first: replica/table/bin/col.
    const std::string copy =
        loc && engine.replicas() > 1 ? std::to_string(loc->replica) + "/"
                                     : "";
    const std::string where =
        loc ? copy + std::to_string(loc->table) + "/" +
                  std::to_string(loc->bin) + "/" + std::to_string(loc->col)
            : "-";
    rows.push_back(
        {label, std::to_string(h.dpu), where,
         std::to_string(h.kernel_cycles),
         TablePrinter::Fmt(
             mean == 0.0 ? 0.0
                         : static_cast<double>(h.kernel_cycles) / mean,
             2),
         std::to_string(h.lookups), std::to_string(h.wram_hits)});
  }
  return rows;
}

}  // namespace updlrm::bench
