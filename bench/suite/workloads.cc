#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>

#include "cache/grace.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "dlrm/model.h"
#include "partition/tiering.h"
#include "pim/system.h"
#include "pipeline/runner.h"
#include "pipeline/tuner.h"
#include "serve/server.h"
#include "suite_stats.h"
#include "telemetry/trace_export.h"
#include "telemetry/tracer.h"
#include "trace/dataset.h"
#include "trace/generator.h"
#include "trace/profiler.h"
#include "updlrm/engine.h"
#include "updlrm/scaleout.h"

namespace updlrm::suite {
namespace {

using SteadyClock = std::chrono::steady_clock;

// Fixed for every workload: the batcher, the knee search bracket, and
// the host-time measurement shape.
constexpr std::size_t kMaxBatch = 64;
constexpr Nanos kMaxQueueDelayNs = 500.0e3;
constexpr std::size_t kQueueCapacity = 256;
constexpr double kKneeLoQps = 20.0e3;
constexpr double kKneeHiQps = 800.0e3;
constexpr int kKneeSteps = 10;
constexpr int kSetupRepeats = 3;
constexpr int kMinTimedRepeats = 5;
// The tuner calibrates its short list on this many leading requests.
constexpr std::size_t kTuneRequests = 16'384;

// Functional replica of every workload (the correctness gate).
constexpr std::uint32_t kReplicaTables = 4;
constexpr std::uint64_t kReplicaRows = 20'000;
constexpr std::size_t kReplicaSamples = 1'024;
constexpr std::uint64_t kReplicaIoBytes = 128 * kKiB;

// The bursty arrival shape: 5 ms periods whose first 20% run at 3x the
// mean rate.
constexpr double kBurstFactor = 3.0;
constexpr double kBurstFraction = 0.2;
constexpr Nanos kBurstPeriodNs = 5.0e6;

// Sharded fleet: up to this share of each table's access mass may spill
// to the host-DRAM tier.
constexpr double kDramEpsilon = 0.02;

// Rates and SLOs are absolute, so a faster engine cannot move its own
// yardstick. README.md gives each workload's reason in full.
const WorkloadSpec kWorkloads[] = {
    // The GRACE cache serves about a third of reads; mining is almost
    // all of setup.
    {.name = "read-ca-poisson",
     .dataset = "read",
     .method = partition::Method::kCacheAware,
     .arrival = serve::ArrivalProcess::kPoisson,
     .samples = 12'800,
     .mine_samples = 1'600,
     .shards = 0,
     .full_path = false,
     .light_qps = 80.0e3,
     .heavy_qps = 150.0e3,
     .slo_us = 2000.0},
    // No mining and no cache: host time is the serve loop plus
    // RunSamples, and the bursts fill the queue toward its shed limit.
    {.name = "clo-u-bursty",
     .dataset = "clo",
     .method = partition::Method::kUniform,
     .arrival = serve::ArrivalProcess::kBursty,
     .samples = 128'000,
     .mine_samples = 0,
     .shards = 0,
     .full_path = false,
     .light_qps = 60.0e3,
     .heavy_qps = 115.0e3,
     .slo_us = 2000.0},
    // The only workload with the dense stages and the tuner's plan on
    // the critical path.
    {.name = "clo-nu-e2e",
     .dataset = "clo",
     .method = partition::Method::kNonUniform,
     .arrival = serve::ArrivalProcess::kPoisson,
     .samples = 128'000,
     .mine_samples = 0,
     .shards = 0,
     .full_path = true,
     .light_qps = 80.0e3,
     .heavy_qps = 130.0e3,
     .slo_us = 3000.0},
    // The only workload that runs the shard fan-out and merge.
    {.name = "read-ca-shard4",
     .dataset = "read",
     .method = partition::Method::kCacheAware,
     .arrival = serve::ArrivalProcess::kPoisson,
     .samples = 12'800,
     .mine_samples = 0,
     .shards = 4,
     .full_path = false,
     .light_qps = 50.0e3,
     .heavy_qps = 95.0e3,
     .slo_us = 2000.0},
};

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// Resident set of this process now, from /proc/self/statm; 0 when the
// file is unreadable.
double RssMb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident * sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// Peak resident set of this process so far (ru_maxrss is KiB on Linux).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// SplitMix64 of (seed, stream): the trace, arrivals and replica draw
// from independent streams of the one benchmark seed. Never 0, which
// the trace generator reads as "use the dataset's own seed".
std::uint64_t SeedStream(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) | 1ULL;
}

// Times one layer into `seconds` and, while tracing, records it as a
// host span of the same name in the suite's own category.
class LayerTimer {
 public:
  LayerTimer(const char* span, double& seconds)
      : span_(span, "suite"), seconds_(seconds), start_(SteadyClock::now()) {}
  ~LayerTimer() { seconds_ = SecondsSince(start_); }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  telemetry::TraceSpan span_;
  double& seconds_;
  SteadyClock::time_point start_;
};

// The suite-side span names; the traced pass requires every one.
constexpr const char* kSuiteSpans[] = {
    "suite.setup",         "suite.trace.profile",  "suite.cache.mine",
    "suite.updlrm.create", "suite.scaleout.create", "suite.pipeline.tune",
    "suite.serve.heavy"};

struct Inputs {
  dlrm::DlrmConfig config;
  trace::Trace trace;
  // Leading samples the cache-aware flat engine mines (empty otherwise).
  trace::Trace mine_trace;
  std::vector<serve::Request> light;
  std::vector<serve::Request> heavy;
  serve::BatcherOptions batcher;
};

// The engine under test plus the shared inputs it borrows by pointer,
// so it is never moved once built.
struct Subject {
  std::vector<trace::TableProfile> profiles;
  std::vector<cache::CacheRes> caches;
  std::unique_ptr<pim::DpuSystem> system;
  std::unique_ptr<core::UpDlrmEngine> flat;
  std::unique_ptr<core::ShardedEngine> sharded;
  std::optional<pipeline::DataFlowPlan> plan;
};

struct SetupTimes {
  double total_s = 0.0;
  double profile_s = 0.0;
  double mine_s = 0.0;
  double create_s = 0.0;
  double scaleout_create_s = 0.0;
  double tune_s = 0.0;
  double mine_rss_mb = 0.0;
};

// `engine_threads` sizes the engine's own fan-out (its setup and every
// RunSamples); `mine_threads` the GRACE miner inside the engine.
core::EngineOptions BaseEngineOptions(const WorkloadSpec& spec,
                                      std::uint32_t engine_threads,
                                      std::uint32_t mine_threads) {
  core::EngineOptions options;
  options.method = spec.method;
  options.batch_size = kMaxBatch;
  options.num_threads = engine_threads;
  options.grace.num_threads = mine_threads;
  // Each shard mines its own slice; splitting the flat engine's hot-item
  // budget across the shards keeps the fleet's hot set the same size.
  if (spec.shards > 0) options.grace.num_hot_items /= spec.shards;
  return options;
}

core::ShardedEngineConfig FleetConfig(const WorkloadSpec& spec,
                                      bool functional) {
  core::ShardedEngineConfig fleet;
  fleet.shard_system.functional = functional;
  fleet.tiering.num_shards = spec.shards;
  fleet.tiering.dram_epsilon = kDramEpsilon;
  // One host per shard: shards past the first pay cross-host ingress.
  fleet.fleet_topology.ranks_per_host =
      fleet.shard_system.num_dpus / fleet.shard_system.dpus_per_rank;
  return fleet;
}

Result<std::vector<serve::Request>> Arrivals(const WorkloadSpec& spec,
                                             const trace::Trace& trace,
                                             double qps,
                                             std::uint64_t seed) {
  serve::ArrivalOptions arrivals;
  arrivals.process = spec.arrival;
  arrivals.qps = qps;
  arrivals.seed = SeedStream(seed, 2);
  arrivals.burst_factor = kBurstFactor;
  arrivals.burst_fraction = kBurstFraction;
  arrivals.burst_period_ns = kBurstPeriodNs;
  return serve::GenerateRequests(trace, 0, arrivals);
}

Result<Inputs> GenerateInputs(const WorkloadSpec& spec,
                              const RunOptions& options) {
  auto dataset = trace::FindDataset(spec.dataset);
  if (!dataset.ok()) return dataset.status();
  Inputs in;
  in.config.num_tables = 8;  // §4.1: each dataset duplicated into 8 EMTs
  in.config.rows_per_table = dataset->num_items;
  in.config.embedding_dim = 32;
  in.config.dense_features = 13;

  trace::TraceGeneratorOptions generate;
  generate.num_samples = options.smoke ? spec.samples / 16 : spec.samples;
  generate.num_tables = in.config.num_tables;
  generate.seed_override = SeedStream(options.seed, 1);
  generate.num_threads = options.threads;
  auto trace = trace::TraceGenerator(*dataset).Generate(generate);
  if (!trace.ok()) return trace.status();
  in.trace = std::move(trace).value();

  if (spec.mine_samples > 0) {
    const std::size_t n = std::min(
        in.trace.num_samples(),
        options.smoke ? spec.mine_samples / 16 : spec.mine_samples);
    in.mine_trace.num_items = in.trace.num_items;
    in.mine_trace.tables.resize(in.trace.num_tables());
    for (std::uint32_t t = 0; t < in.trace.num_tables(); ++t) {
      for (std::size_t i = 0; i < n; ++i) {
        in.mine_trace.tables[t].AppendSample(in.trace.tables[t].Sample(i));
      }
    }
  }

  auto light = Arrivals(spec, in.trace, spec.light_qps, options.seed);
  if (!light.ok()) return light.status();
  in.light = std::move(light).value();
  auto heavy = Arrivals(spec, in.trace, spec.heavy_qps, options.seed);
  if (!heavy.ok()) return heavy.status();
  in.heavy = std::move(heavy).value();

  in.batcher.max_batch_size = kMaxBatch;
  in.batcher.max_queue_delay_ns = kMaxQueueDelayNs;
  in.batcher.queue_capacity = kQueueCapacity;
  in.batcher.policy = serve::AdmissionPolicy::kShed;
  return in;
}

// Builds `s`'s engine over its profiles and mined lists.
Status CreateEngine(const WorkloadSpec& spec, const Inputs& in,
                    const RunOptions& options, std::uint32_t engine_threads,
                    Subject& s, SetupTimes& times) {
  core::EngineOptions engine =
      BaseEngineOptions(spec, engine_threads, options.threads);
  engine.preprofiled = &s.profiles;
  if (!s.caches.empty()) engine.premined_cache = &s.caches;
  {
    LayerTimer layer("suite.scaleout.create", times.scaleout_create_s);
    if (spec.shards > 0) {
      auto sharded = core::ShardedEngine::Create(
          nullptr, in.config, in.trace, FleetConfig(spec, false), engine);
      if (!sharded.ok()) return sharded.status();
      s.sharded = std::move(sharded).value();
    }
  }
  LayerTimer layer("suite.updlrm.create", times.create_s);
  if (spec.shards == 0) {
    pim::DpuSystemConfig system;  // the Table 2 system: 256 DPUs
    system.functional = false;
    auto created = pim::DpuSystem::Create(system);
    if (!created.ok()) return created.status();
    s.system = std::move(created).value();
    auto flat = core::UpDlrmEngine::Create(nullptr, in.config, in.trace,
                                           s.system.get(), engine);
    if (!flat.ok()) return flat.status();
    s.flat = std::move(flat).value();
  }
  return Status::Ok();
}

// One setup: profile, mine, create, tune. Every layer is timed even
// where the workload skips it, so each layer metric exists everywhere.
Result<std::unique_ptr<Subject>> SetUp(const WorkloadSpec& spec,
                                       const Inputs& in,
                                       const RunOptions& options,
                                       SetupTimes& times) {
  auto s = std::make_unique<Subject>();
  LayerTimer setup("suite.setup", times.total_s);
  const std::uint32_t tables = in.config.num_tables;
  {
    LayerTimer layer("suite.trace.profile", times.profile_s);
    s->profiles.resize(tables);
    ParallelFor(
        tables,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t t = begin; t < end; ++t) {
            s->profiles[t] = trace::ProfileTable(in.trace.tables[t],
                                                 in.config.rows_per_table);
          }
        },
        options.threads);
  }
  const double rss_before_mine = PeakRssMb();
  {
    LayerTimer layer("suite.cache.mine", times.mine_s);
    if (!in.mine_trace.tables.empty()) {
      // Tables mine concurrently, one miner thread each, as the figure
      // benches do; each fills its own slot, so the lists do not depend
      // on the thread count.
      cache::GraceOptions grace;
      grace.num_threads = 1;
      s->caches.resize(tables);
      std::vector<Status> statuses(tables);
      ParallelFor(
          tables,
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t t = begin; t < end; ++t) {
              auto mined = cache::GraceMiner(grace).Mine(
                  in.mine_trace.tables[t], in.config.rows_per_table);
              if (!mined.ok()) {
                statuses[t] = mined.status();
                continue;
              }
              s->caches[t] = std::move(mined).value();
            }
          },
          options.threads);
      for (const Status& status : statuses) UPDLRM_RETURN_IF_ERROR(status);
    }
  }
  times.mine_rss_mb = PeakRssMb() - rss_before_mine;

  UPDLRM_RETURN_IF_ERROR(
      CreateEngine(spec, in, options, options.threads, *s, times));
  {
    LayerTimer layer("suite.pipeline.tune", times.tune_s);
    if (spec.full_path) {
      pipeline::TunerOptions tuner_options;
      tuner_options.calibration_requests =
          std::min(kTuneRequests, in.heavy.size());
      pipeline::DataFlowTuner tuner(tuner_options);
      auto tuned = tuner.Tune(*s->flat, in.heavy, in.batcher);
      if (!tuned.ok()) return tuned.status();
      s->plan = tuned->best;
    }
  }
  return s;
}

// One serving run, normalized across the three serving paths.
struct ServeStats {
  std::vector<Nanos> latency_ns;  // per completed request, batch order
  std::vector<std::size_t> batch_sizes;  // empty when anything was shed
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  Nanos makespan_ns = 0.0;
  std::size_t max_queue_depth = 0;
  double avg_batch_size = 0.0;
  double host_util = 0.0;
  double dpu_util = 0.0;
  double host_mlp_util = 0.0;
  // Per-batch means: cut to stage-1 start, stage-1 start to
  // completion, and dense (MLP + interaction) task time.
  Nanos exec_wait_ns = 0.0;
  Nanos service_ns = 0.0;
  Nanos dense_ns = 0.0;
};

// Requests complete batch by batch in arrival order when nothing is
// shed, so runs of equal completion instants are the batches.
std::vector<std::size_t> BatchSizes(std::span<const serve::Request> requests,
                                    std::span<const Nanos> latency,
                                    std::span<const Nanos> batch_done) {
  std::vector<std::size_t> sizes(batch_done.size(), 0);
  std::size_t b = 0;
  for (std::size_t k = 0; k < latency.size(); ++k) {
    const Nanos done = requests[k].arrival_ns + latency[k];
    while (b + 1 < batch_done.size() && done > batch_done[b] + 1.0) ++b;
    ++sizes[b];
  }
  return sizes;
}

Result<ServeStats> Serve(Subject& s, std::span<const serve::Request> requests,
                         const serve::BatcherOptions& batcher) {
  ServeStats out;
  std::vector<Nanos> batch_done;
  if (s.plan.has_value()) {
    pipeline::DataFlowServeOptions serve_options;
    serve_options.batcher = batcher;
    serve_options.plan = *s.plan;
    auto r = pipeline::RunDataFlowSimulation(*s.flat, requests, nullptr,
                                             serve_options);
    if (!r.ok()) return r.status();
    out.latency_ns = std::move(r->request_latency_ns);
    out.offered = r->offered;
    out.completed = r->completed;
    out.shed = r->shed;
    out.makespan_ns = r->makespan_ns;
    out.max_queue_depth = r->max_queue_depth;
    out.avg_batch_size = r->avg_batch_size;
    out.host_util = r->utilization.HostUtilization();
    out.dpu_util = r->utilization.DpuUtilization();
    out.host_mlp_util = r->utilization.HostMlpUtilization();
    const pipeline::DataFlowPlan& plan = *s.plan;
    for (const pipeline::ExecutedFlowBatch& b : r->schedule) {
      out.exec_wait_ns += b.s1_start_ns - b.cut_ns;
      out.service_ns += b.done_ns - b.s1_start_ns;
      out.dense_ns += (plan.bottom == pipeline::Backend::kGpu
                           ? b.costs.bottom_gpu
                           : b.costs.bottom_host()) +
                      (plan.top == pipeline::Backend::kGpu
                           ? b.costs.top_gpu
                           : b.costs.top_host());
      batch_done.push_back(b.done_ns);
    }
  } else {
    serve::ServeOptions serve_options;
    serve_options.batcher = batcher;
    auto r = s.sharded != nullptr
                 ? serve::RunServeSimulation(*s.sharded, requests,
                                             serve_options)
                 : serve::RunServeSimulation(*s.flat, requests,
                                             serve_options);
    if (!r.ok()) return r.status();
    out.latency_ns = std::move(r->request_latency_ns);
    out.offered = r->offered;
    out.completed = r->completed;
    out.shed = r->shed;
    out.makespan_ns = r->makespan_ns;
    out.max_queue_depth = r->max_queue_depth;
    out.avg_batch_size = r->avg_batch_size;
    out.host_util = r->utilization.HostUtilization();
    out.dpu_util = r->utilization.DpuUtilization();
    for (const serve::ExecutedBatch& b : r->schedule) {
      out.exec_wait_ns += b.s1_start_ns - b.submit_ns;
      out.service_ns += b.s3_end_ns - b.s1_start_ns;
      batch_done.push_back(b.s3_end_ns);
    }
  }
  if (!batch_done.empty()) {
    const auto n = static_cast<double>(batch_done.size());
    out.exec_wait_ns /= n;
    out.service_ns /= n;
    out.dense_ns /= n;
  }
  if (out.shed == 0) {
    out.batch_sizes = BatchSizes(requests, out.latency_ns, batch_done);
  }
  return out;
}

// Host cost of the engine calls inside a serve run: the same batches,
// replayed straight through RunSamples.
Result<double> ReplaySeconds(Subject& s, std::span<const std::size_t> sizes) {
  std::vector<std::size_t> ids;
  std::size_t next = 0;
  const auto start = SteadyClock::now();
  for (const std::size_t size : sizes) {
    ids.resize(size);
    std::iota(ids.begin(), ids.end(), next);
    next += size;
    auto batch = s.sharded != nullptr ? s.sharded->RunSamples(ids, nullptr)
                                      : s.flat->RunSamples(ids, nullptr);
    if (!batch.ok()) return batch.status();
  }
  return SecondsSince(start);
}

std::vector<const pim::DpuSystem*> Systems(const Subject& s) {
  std::vector<const pim::DpuSystem*> systems;
  if (s.sharded != nullptr) {
    for (std::uint32_t i = 0; i < s.sharded->num_shards(); ++i) {
      systems.push_back(&s.sharded->shard(i).dpu_system());
    }
  } else {
    systems.push_back(s.system.get());
  }
  return systems;
}

std::vector<pim::DpuStats> SnapshotStats(const Subject& s) {
  std::vector<pim::DpuStats> stats;
  for (const pim::DpuSystem* system : Systems(s)) {
    for (std::uint32_t d = 0; d < system->num_dpus(); ++d) {
      stats.push_back(system->dpu(d).stats());
    }
  }
  return stats;
}

// Stage-2 work of one offline replay, from per-DPU counter deltas.
struct DpuWork {
  double kernel_imbalance = 0.0;
  double cache_read_share = 0.0;
  double mram_bytes = 0.0;
  double index_bytes = 0.0;
};

DpuWork DiffStats(std::span<const pim::DpuStats> before,
                  std::span<const pim::DpuStats> after) {
  DpuWork work;
  std::vector<double> cycles;
  std::uint64_t lookups = 0;
  std::uint64_t cache_reads = 0;
  for (std::size_t d = 0; d < after.size(); ++d) {
    cycles.push_back(static_cast<double>(after[d].kernel_cycles -
                                         before[d].kernel_cycles));
    lookups += after[d].lookups - before[d].lookups;
    cache_reads += after[d].cache_reads - before[d].cache_reads;
    work.mram_bytes += static_cast<double>(after[d].mram_bytes_read -
                                           before[d].mram_bytes_read);
    work.index_bytes += static_cast<double>(after[d].index_bytes_pushed -
                                            before[d].index_bytes_pushed);
  }
  work.kernel_imbalance = ImbalanceRatio(cycles);
  if (lookups + cache_reads > 0) {
    work.cache_read_share = static_cast<double>(cache_reads) /
                            static_cast<double>(lookups + cache_reads);
  }
  return work;
}

// Fan-out usefulness of the sharded fleet over the served trace: of the
// shards each request contacts (all of them), the share that own any
// of its rows; and the share of lookups the host-DRAM tier answers.
struct FanOut {
  double useful_frac = 1.0;
  double dram_share = 0.0;
};

FanOut MeasureFanOut(const Subject& s, const trace::Trace& trace) {
  FanOut out;
  if (s.sharded == nullptr) return out;  // one engine owns every row
  const partition::TierShardingPlan& plan = s.sharded->tier_plan();
  const std::uint32_t shards = s.sharded->num_shards();
  std::uint64_t useful = 0;
  std::uint64_t lookups = 0;
  std::uint64_t dram = 0;
  for (std::size_t i = 0; i < trace.num_samples(); ++i) {
    std::uint64_t owners = 0;
    for (std::uint32_t t = 0; t < trace.num_tables(); ++t) {
      for (const std::uint32_t row : trace.tables[t].Sample(i)) {
        const std::uint32_t owner = plan.tables[t].owner[row];
        ++lookups;
        if (owner == partition::kHostDramShard) {
          ++dram;
        } else {
          owners |= std::uint64_t{1} << owner;
        }
      }
    }
    useful += static_cast<std::uint64_t>(std::popcount(owners));
  }
  out.useful_frac = static_cast<double>(useful) /
                    (static_cast<double>(trace.num_samples()) * shards);
  out.dram_share =
      lookups == 0 ? 0.0
                   : static_cast<double>(dram) / static_cast<double>(lookups);
  return out;
}

// The correctness gate: a scaled functional replica with the workload's
// method, data-flow plan and shard count must reproduce DlrmModel's
// fixed-point pooled embeddings and CTRs bit for bit.
Status CheckReplica(const WorkloadSpec& spec, const RunOptions& options,
                    const Inputs& in,
                    const std::optional<pipeline::DataFlowPlan>& plan,
                    std::vector<std::string>& failures) {
  auto dataset = trace::FindDataset(spec.dataset);
  if (!dataset.ok()) return dataset.status();
  dlrm::DlrmConfig config = in.config;
  config.num_tables = kReplicaTables;
  config.rows_per_table = kReplicaRows;
  config.seed = SeedStream(options.seed, 3);
  auto model = dlrm::DlrmModel::Create(config);
  if (!model.ok()) return model.status();

  trace::DatasetSpec replica_spec = *dataset;
  replica_spec.num_items = kReplicaRows;
  replica_spec.num_hot_items =
      std::min<std::size_t>(replica_spec.num_hot_items, kReplicaRows / 4);
  trace::TraceGeneratorOptions generate;
  generate.num_samples = options.smoke ? kReplicaSamples / 4 : kReplicaSamples;
  generate.num_tables = kReplicaTables;
  generate.seed_override = SeedStream(options.seed, 4);
  generate.num_threads = options.threads;
  auto trace = trace::TraceGenerator(replica_spec).Generate(generate);
  if (!trace.ok()) return trace.status();
  const std::size_t samples = trace->num_samples();
  const dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(
      samples, config.dense_features, SeedStream(options.seed, 5));

  core::EngineOptions engine =
      BaseEngineOptions(spec, options.threads, options.threads);
  engine.reserved_io_bytes = kReplicaIoBytes;
  pim::DpuSystemConfig system_config;
  system_config.functional = true;
  std::unique_ptr<pim::DpuSystem> system;
  std::unique_ptr<core::UpDlrmEngine> flat;
  std::unique_ptr<core::ShardedEngine> sharded;
  if (spec.shards > 0) {
    auto created = core::ShardedEngine::Create(
        &*model, config, *trace, FleetConfig(spec, true), engine);
    if (!created.ok()) return created.status();
    sharded = std::move(created).value();
  } else {
    auto created_system = pim::DpuSystem::Create(system_config);
    if (!created_system.ok()) return created_system.status();
    system = std::move(created_system).value();
    auto created = core::UpDlrmEngine::Create(&*model, config, *trace,
                                              system.get(), engine);
    if (!created.ok()) return created.status();
    flat = std::move(created).value();
  }

  const std::size_t width =
      static_cast<std::size_t>(config.num_tables) * config.embedding_dim;
  std::vector<float> want_pooled(width);
  std::vector<float> want_ctr;
  bool pooled_ok = true;
  bool ctr_ok = true;
  for (const trace::BatchRange& range :
       trace::MakeBatches(samples, kMaxBatch)) {
    auto got = sharded != nullptr ? sharded->RunBatch(range, &dense)
                                  : flat->RunBatch(range, &dense);
    if (!got.ok()) return got.status();
    for (std::size_t i = 0; i < range.size(); ++i) {
      model->PooledEmbeddingsFixed(*trace, range.begin + i, want_pooled);
      pooled_ok = pooled_ok && std::equal(want_pooled.begin(),
                                          want_pooled.end(),
                                          got->pooled.begin() + i * width);
    }
    const std::vector<float> want =
        model->ForwardBatch(dense, *trace, range, true);
    ctr_ok = ctr_ok && want == got->ctr;
    want_ctr.insert(want_ctr.end(), want.begin(), want.end());
  }
  if (!pooled_ok) failures.push_back("replica pooled embeddings differ");
  if (!ctr_ok) failures.push_back("replica CTRs differ");

  if (plan.has_value()) {
    // The full request path under the workload's tuned plan, at a rate
    // the replica serves without shedding: CTRs per request in order.
    auto requests = Arrivals(spec, *trace, spec.light_qps, options.seed);
    if (!requests.ok()) return requests.status();
    pipeline::DataFlowServeOptions serve_options;
    serve_options.batcher = in.batcher;
    serve_options.batcher.queue_capacity = 0;  // never shed here
    serve_options.plan = *plan;
    serve_options.num_threads = options.threads;
    auto served = pipeline::RunDataFlowSimulation(*flat, *requests, &dense,
                                                  serve_options);
    if (!served.ok()) return served.status();
    if (served->ctr != want_ctr) {
      failures.push_back("replica full-path CTRs differ");
    }
  }
  return Status::Ok();
}

class Report {
 public:
  explicit Report(RunReport& out) : out_(out) {}
  void Add(std::string name, double value, std::string unit) {
    out_.metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string what) { out_.failures.push_back(std::move(what)); }

 private:
  RunReport& out_;
};

// The traced pass, on the engine the simulations ran on: three heavy
// runs untraced and three traced, interleaved, the last traced one after
// a traced setup, written as one Chrome trace per workload. Returns the
// traced / untraced median heavy-run wall time, minus 1. Tracing must
// leave the simulated latencies bit-identical, and the trace must hold
// every suite span.
template <typename ServeFn>
Result<double> TracedPass(const WorkloadSpec& spec, const Inputs& in,
                          const RunOptions& options, std::uint64_t digest,
                          std::unique_ptr<Subject>& subject, ServeFn& serve,
                          Report& report) {
  std::filesystem::create_directories(options.traced_dir);
  const std::string path =
      options.traced_dir + "/" + std::string(spec.name) + ".json";
  telemetry::Tracer& tracer = telemetry::Tracer::Get();
  telemetry::TracerOptions tracer_options;
  tracer_options.sample_every = 64;  // keeps per-request spans in budget
  std::vector<double> walls[2];      // [untraced, traced]
  for (int i = 0; i < 3; ++i) {
    for (const bool on : {false, true}) {
      if (on) {
        tracer.Enable(tracer_options);
        if (i == 2) {
          subject.reset();
          SetupTimes ignored;
          auto created = SetUp(spec, in, options, ignored);
          if (!created.ok()) return created.status();
          subject = std::move(created).value();
        }
      }
      double seconds = 0.0;
      std::optional<Result<ServeStats>> heavy;
      {
        LayerTimer layer("suite.serve.heavy", seconds);
        heavy.emplace(serve(in.heavy));
      }
      if (on) tracer.Disable();
      if (!heavy->ok()) return heavy->status();
      if (SimDigest((*heavy)->latency_ns) != digest) {
        report.Fail("a traced or repeated heavy run changed its latencies");
      }
      walls[on].push_back(seconds);
    }
  }
  UPDLRM_RETURN_IF_ERROR(telemetry::WriteChromeTrace(tracer, path));
  const Status valid = telemetry::ValidateChromeTraceFile(path);
  if (!valid.ok()) report.Fail("chrome trace: " + valid.ToString());
  std::ifstream file(path);
  const std::string json((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  for (const char* span : kSuiteSpans) {
    auto found = telemetry::ChromeTraceContainsEvent(json, span);
    if (!found.ok() || !*found) {
      report.Fail(std::string("chrome trace lacks span ") + span);
    }
  }
  return Median(walls[1]) / Median(walls[0]) - 1.0;
}

}  // namespace

std::span<const WorkloadSpec> Workloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Result<RunReport> RunWorkload(const WorkloadSpec& spec,
                              const RunOptions& options) {
  RunReport out;
  Report report(out);
  const bool traced = !options.traced_dir.empty();
  const Nanos slo_ns = spec.slo_us * 1e3;

  const auto gen_start = SteadyClock::now();
  auto generated = GenerateInputs(spec, options);
  if (!generated.ok()) return generated.status();
  const Inputs& in = *generated;
  out.gen_s = SecondsSince(gen_start);

  // Setup, several times: the reported setup times are medians. Untraced
  // runs, whose host metric is setup_s, repeat it for the wall budget;
  // traced runs spend the budget on the host cost of serving instead.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Subject> subject;
  // Resident memory of the set-up process after the first setup: the
  // inputs plus one engine. Unlike the peak, it does not depend on how
  // the setup threads' transient buffers happened to overlap, and unlike
  // a reading after the last setup, not on how many setups fit the
  // budget.
  double rss_mb = 0.0;
  const int min_setups = options.smoke ? 1 : kSetupRepeats;
  const double setup_budget_s = traced ? 0.0 : options.seconds;
  const auto setup_start = SteadyClock::now();
  for (int i = 0;
       i < min_setups || SecondsSince(setup_start) < setup_budget_s; ++i) {
    subject.reset();  // one engine alive at a time
    SetupTimes times;
    auto created = SetUp(spec, in, options, times);
    if (!created.ok()) return created.status();
    subject = std::move(created).value();
    setups.push_back(times);
    if (i == 0) rss_mb = RssMb();
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : setups) values.push_back(t.*field);
    return Median(std::move(values));
  };

  // Every serving run must account for every request it was offered.
  auto serve = [&](std::span<const serve::Request> requests)
      -> Result<ServeStats> {
    auto stats = Serve(*subject, requests, in.batcher);
    if (stats.ok() && stats->completed + stats->shed != stats->offered) {
      report.Fail("serve accounting: completed + shed != offered");
    }
    return stats;
  };

  // Offline replay of the whole trace: the per-batch embedding stages.
  const std::vector<pim::DpuStats> before = SnapshotStats(*subject);
  auto offline = subject->sharded != nullptr
                     ? subject->sharded->RunAll(nullptr)
                     : subject->flat->RunAll(nullptr);
  if (!offline.ok()) return offline.status();
  const DpuWork work = DiffStats(before, SnapshotStats(*subject));
  const auto num_batches = static_cast<double>(offline->num_batches);

  // The knee: the highest rate whose p99 meets the SLO with nothing
  // shed and no backlog left growing.
  double sustainable_qps = 0.0;
  if (!traced) {
    Status knee_status = Status::Ok();
    sustainable_qps = BisectKnee(
        kKneeLoQps, kKneeHiQps, kKneeSteps, [&](double qps) {
          auto requests = Arrivals(spec, in.trace, qps, options.seed);
          if (!requests.ok()) {
            knee_status = requests.status();
            return false;
          }
          auto run = serve(*requests);
          if (!run.ok()) {
            knee_status = run.status();
            return false;
          }
          const double p99 = NearestRank(AfterWarmup(run->latency_ns), 99.0);
          return run->shed == 0 && p99 <= slo_ns &&
                 DrainsWithinSlo(requests->back().arrival_ns,
                                 run->makespan_ns, slo_ns);
        });
    UPDLRM_RETURN_IF_ERROR(knee_status);
  }

  // The two fixed rates.
  auto light = serve(in.light);
  if (!light.ok()) return light.status();
  auto heavy = serve(in.heavy);
  if (!heavy.ok()) return heavy.status();
  out.attempted = light->offered + heavy->offered;
  out.failed = light->shed + heavy->shed;
  out.sim_digest = SimDigest(heavy->latency_ns);

  // Simulated results: printed in both modes, so traced and untraced
  // runs can be compared metric by metric.
  const std::span<const Nanos> light_lat = AfterWarmup(light->latency_ns);
  const std::span<const Nanos> heavy_lat = AfterWarmup(heavy->latency_ns);
  report.Add("p50_us.light", NearestRank(light_lat, 50.0) / 1e3, "sim_us");
  report.Add("p99_us.light", NearestRank(light_lat, 99.0) / 1e3, "sim_us");
  report.Add("p50_us.heavy", NearestRank(heavy_lat, 50.0) / 1e3, "sim_us");
  report.Add("p99_us.heavy", NearestRank(heavy_lat, 99.0) / 1e3, "sim_us");
  report.Add("p999_us.heavy", NearestRank(heavy_lat, 99.9) / 1e3, "sim_us");
  report.Add("samples.light", static_cast<double>(light_lat.size()), "count");
  report.Add("samples.heavy", static_cast<double>(heavy_lat.size()), "count");
  report.Add("emb_batch_us", offline->AvgBatchEmbedding() / 1e3, "sim_us");

  const auto& stages = offline->stages;
  report.Add("pim.stage1_us", stages.cpu_to_dpu / num_batches / 1e3,
             "sim_us");
  report.Add("pim.stage2_us", stages.dpu_lookup / num_batches / 1e3,
             "sim_us");
  report.Add("pim.stage3_us", stages.dpu_to_cpu / num_batches / 1e3,
             "sim_us");
  report.Add("updlrm.aggregate_us", stages.cpu_aggregate / num_batches / 1e3,
             "sim_us");
  report.Add("pim.index_bytes_per_batch", work.index_bytes / num_batches,
             "B");
  report.Add("pim.kernel_imbalance", work.kernel_imbalance, "ratio");
  report.Add("pim.cache_read_share", work.cache_read_share, "ratio");
  report.Add("pim.mram_bytes_per_batch", work.mram_bytes / num_batches, "B");
  report.Add("serve.host_util.heavy", heavy->host_util, "ratio");
  report.Add("serve.dpu_util.heavy", heavy->dpu_util, "ratio");
  report.Add("serve.exec_wait_us.heavy", heavy->exec_wait_ns / 1e3,
             "sim_us");
  report.Add("serve.service_us.heavy", heavy->service_ns / 1e3, "sim_us");
  report.Add("serve.batch_size.heavy", heavy->avg_batch_size, "count");
  report.Add("serve.max_queue_depth.heavy",
             static_cast<double>(heavy->max_queue_depth), "count");
  report.Add("pipeline.dense_us", heavy->dense_ns / 1e3, "sim_us");
  report.Add("pipeline.host_mlp_util.heavy", heavy->host_mlp_util, "ratio");
  const FanOut fan_out = MeasureFanOut(*subject, in.trace);
  report.Add("scaleout.useful_fanout_frac", fan_out.useful_frac, "ratio");
  report.Add("scaleout.dram_lookup_share", fan_out.dram_share, "ratio");

  if (!traced) {
    report.Add("sustainable_qps", sustainable_qps, "req/s");
    report.Add("setup_s", median_of(&SetupTimes::total_s), "s");
  } else {
    report.Add("trace.profile_s", median_of(&SetupTimes::profile_s), "s");
    report.Add("updlrm.create_s", median_of(&SetupTimes::create_s), "s");
    report.Add("cache.mine_s", median_of(&SetupTimes::mine_s), "s");
    report.Add("cache.mine_rss_mb", setups.front().mine_rss_mb, "MB");
    report.Add("pipeline.tune_s", median_of(&SetupTimes::tune_s), "s");
    report.Add("scaleout.create_s",
               median_of(&SetupTimes::scaleout_create_s), "s");
    auto overhead = TracedPass(spec, in, options, out.sim_digest, subject,
                               serve, report);
    if (!overhead.ok()) return overhead.status();
    report.Add("telemetry.trace_overhead_frac", *overhead, "ratio");

    // Host cost of serving, on the engine rebuilt single-threaded: worker
    // wake-ups on a shared 4-vCPU host made a 4-thread serve run's wall
    // time vary 10-20% between runs, single-threaded runs a few percent.
    // It is a layer metric, not an end-to-end one: on the GoodReads
    // workloads RunSamples waits on DRAM, and other tenants' load moved
    // it by up to 1.9x for minutes at a time. The heavy run repeats for
    // the wall budget after one warm-up; every repeat must reproduce its
    // simulated latencies bit for bit. Each repeat's batches are then
    // replayed straight through RunSamples, timing the engine's share
    // interleaved with the loop's.
    subject->flat.reset();
    subject->sharded.reset();
    subject->system.reset();
    SetupTimes ignored;
    UPDLRM_RETURN_IF_ERROR(
        CreateEngine(spec, in, options, 1, *subject, ignored));
    std::vector<double> heavy_s;
    std::vector<double> replay_s;
    const auto budget_start = SteadyClock::now();
    const int min_repeats = options.smoke ? 1 : kMinTimedRepeats;
    for (int i = -1;
         i < min_repeats || SecondsSince(budget_start) < options.seconds;
         ++i) {
      const auto start = SteadyClock::now();
      auto h = serve(in.heavy);
      if (!h.ok()) return h.status();
      const double seconds = SecondsSince(start);
      if (SimDigest(h->latency_ns) != out.sim_digest) {
        report.Fail("a repeated heavy run changed its latencies");
      }
      auto replay = ReplaySeconds(*subject, heavy->batch_sizes);
      if (!replay.ok()) return replay.status();
      if (i >= 0) {  // i = -1 is the warm-up
        heavy_s.push_back(seconds);
        replay_s.push_back(*replay);
      }
    }
    const double requests = static_cast<double>(heavy->offered);
    const double replay = Median(replay_s);
    const auto batches = static_cast<double>(
        std::max<std::size_t>(1, heavy->batch_sizes.size()));
    report.Add("host_us_per_req", Median(heavy_s) * 1e6 / requests, "us");
    // The engine calls inside the heavy run vs the serve loop around
    // them.
    report.Add("updlrm.run_batch_us", replay * 1e6 / batches, "us");
    report.Add("serve.self_us_per_req",
               (Median(heavy_s) - replay) * 1e6 / requests, "us");
  }

  UPDLRM_RETURN_IF_ERROR(
      CheckReplica(spec, options, in, subject->plan, out.failures));
  if (!traced) {
    report.Add("rss_mb", rss_mb, "MB");
  } else {
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  return out;
}

}  // namespace updlrm::suite
