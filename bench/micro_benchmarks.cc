// Wall-clock microbenchmarks (google-benchmark) of the library's own
// hot paths: trace sampling, profiling, partitioning, cache mining and
// the engine's per-batch routing. These measure the *simulator's*
// execution cost, not the simulated latencies the fig* benches report.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "cache/grace.h"
#include "common/rng.h"
#include "common/simd.h"
#include "partition/cache_aware.h"
#include "partition/nonuniform.h"
#include "partition/uniform.h"
#include "trace/dataset.h"
#include "trace/generator.h"
#include "trace/profiler.h"
#include "updlrm/engine.h"

namespace updlrm {
namespace {

trace::DatasetSpec BenchSpec(std::uint64_t items = 200'000) {
  trace::DatasetSpec spec;
  spec.name = "micro";
  spec.num_items = items;
  spec.avg_reduction = 64.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.5;
  spec.num_hot_items = 2048;
  spec.seed = 11;
  return spec;
}

const trace::Trace& SharedTrace() {
  static const trace::Trace trace = [] {
    trace::TraceGeneratorOptions options;
    options.num_samples = 1'024;
    options.num_tables = 1;
    auto t = trace::TraceGenerator(BenchSpec()).Generate(options);
    UPDLRM_CHECK(t.ok());
    return std::move(t).value();
  }();
  return trace;
}

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(1'000'000, 1.05);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_TraceGeneration(benchmark::State& state) {
  const trace::TraceGenerator gen(BenchSpec(50'000));
  trace::TraceGeneratorOptions options;
  options.num_samples = static_cast<std::size_t>(state.range(0));
  options.num_tables = 1;
  for (auto _ : state) {
    auto t = gen.Generate(options);
    benchmark::DoNotOptimize(t.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(64)->Arg(256);

void BM_ItemFrequencies(benchmark::State& state) {
  const auto& trace = SharedTrace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::ItemFrequencies(trace.tables[0], trace.num_items));
  }
}
BENCHMARK(BM_ItemFrequencies);

void BM_NonUniformPartition(benchmark::State& state) {
  const auto& trace = SharedTrace();
  const auto freq =
      trace::ItemFrequencies(trace.tables[0], trace.num_items);
  auto geom = partition::GroupGeometry::Make(
      dlrm::TableShape{trace.num_items, 32}, 32, 8);
  UPDLRM_CHECK(geom.ok());
  for (auto _ : state) {
    auto plan = partition::NonUniformPartition(*geom, freq);
    benchmark::DoNotOptimize(plan.ok());
  }
  state.SetItemsProcessed(state.iterations() * trace.num_items);
}
BENCHMARK(BM_NonUniformPartition);

// The repo benchmark's two GoodReads mining shapes, each one "read"
// table mined on one thread: read-ca-poisson's window (the first 1,600
// samples, the default 16,384-item hot set) and one read-ca-shard4
// shard's table (all 12,800 samples, a 4,096-item hot set, nearly every
// sample at the 96-hot cap).
struct MineWindow {
  trace::TableTrace table;
  std::uint64_t num_items = 0;
  std::size_t num_hot = 0;
  std::uint64_t pairs = 0;  // hot pairs one Mine call counts
};

MineWindow MakeGoodReadsWindow(std::size_t samples, std::size_t num_hot) {
  auto spec = trace::FindDataset("read");
  UPDLRM_CHECK(spec.ok());
  trace::TraceGeneratorOptions options;
  options.num_samples = samples;
  options.num_tables = 1;
  auto t = trace::TraceGenerator(*spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  MineWindow w;
  w.table = std::move(t->tables[0]);
  w.num_items = spec->num_items;
  w.num_hot = num_hot;
  // Every sample counts the pairs of min(h, cap) of its hot items.
  const trace::TableProfile profile =
      trace::ProfileTable(w.table, w.num_items);
  std::vector<bool> hot(w.num_items, false);
  std::size_t hot_count = 0;
  for (std::uint32_t id : profile.by_freq) {
    if (hot_count >= num_hot || profile.freq[id] == 0) break;
    hot[id] = true;
    ++hot_count;
  }
  for (std::size_t s = 0; s < w.table.num_samples(); ++s) {
    std::uint64_t h = 0;
    for (std::uint32_t id : w.table.Sample(s)) h += hot[id];
    h = std::min<std::uint64_t>(h, cache::kMaxHotPerSample);
    if (h >= 2) w.pairs += h * (h - 1) / 2;
  }
  return w;
}

const MineWindow& GoodReadsMineWindow() {
  static const MineWindow window =
      MakeGoodReadsWindow(1'600, cache::GraceOptions{}.num_hot_items);
  return window;
}

const MineWindow& ShardMineWindow() {
  static const MineWindow window = MakeGoodReadsWindow(12'800, 4'096);
  return window;
}

void MineOnce(const MineWindow& w) {
  cache::GraceOptions options;
  options.num_hot_items = w.num_hot;
  options.num_threads = 1;
  auto res = cache::GraceMiner(options).Mine(w.table, w.num_items);
  UPDLRM_CHECK_MSG(res.ok(), res.status().ToString());
  benchmark::DoNotOptimize(res->lists.data());
}

// Arg 0: read-ca-poisson's window; arg 1: a read-ca-shard4 shard.
void BM_GraceMining(benchmark::State& state) {
  const MineWindow& w =
      state.range(0) == 0 ? GoodReadsMineWindow() : ShardMineWindow();
  for (auto _ : state) MineOnce(w);
  state.counters["pairs_per_s"] = benchmark::Counter(
      static_cast<double>(w.pairs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(state.range(0) == 0 ? "window" : "shard");
}
BENCHMARK(BM_GraceMining)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CacheAwarePartition(benchmark::State& state) {
  const auto& trace = SharedTrace();
  const auto freq =
      trace::ItemFrequencies(trace.tables[0], trace.num_items);
  auto mined = cache::GraceMiner().Mine(trace.tables[0], trace.num_items);
  UPDLRM_CHECK(mined.ok());
  auto geom = partition::GroupGeometry::Make(
      dlrm::TableShape{trace.num_items, 32}, 32, 8);
  UPDLRM_CHECK(geom.ok());
  partition::CacheAwareOptions options;
  options.capacity = partition::BinCapacity::FromMram(
      64 * kMiB, 8 * kMiB, 8 * kMiB);
  for (auto _ : state) {
    auto plan =
        partition::CacheAwarePartition(*geom, freq, *mined, options);
    benchmark::DoNotOptimize(plan.ok());
  }
  state.SetItemsProcessed(state.iterations() * trace.num_items);
}
BENCHMARK(BM_CacheAwarePartition);

void BM_EngineRunBatch(benchmark::State& state) {
  // One timing-only inference batch: routing + cost models.
  static const trace::Trace trace = [] {
    trace::TraceGeneratorOptions options;
    options.num_samples = 256;
    options.num_tables = 8;
    auto t = trace::TraceGenerator(BenchSpec()).Generate(options);
    UPDLRM_CHECK(t.ok());
    return std::move(t).value();
  }();
  dlrm::DlrmConfig config;
  config.num_tables = 8;
  config.rows_per_table = trace.num_items;
  config.embedding_dim = 32;
  pim::DpuSystemConfig sys;
  sys.functional = false;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  core::EngineOptions options;
  options.method = partition::Method::kCacheAware;
  options.nc = 8;
  auto engine = core::UpDlrmEngine::Create(nullptr, config, trace,
                                           system->get(), options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
  for (auto _ : state) {
    auto batch = (*engine)->RunBatch({0, 64}, nullptr);
    benchmark::DoNotOptimize(batch.ok());
  }
}
BENCHMARK(BM_EngineRunBatch);

// ---------------------------------------------------------------------
// Vectorized host-runtime kernels (common/simd.h): scalar vs dispatched
// throughput of the pooled-sum reduction and the cross-rank merge.
// state.range(0) toggles ForceScalar, so each pair of rows reads off
// the AVX2 speedup directly.
// ---------------------------------------------------------------------

constexpr std::size_t kSimdN = 1 << 16;

void BM_PooledSumAddI32(benchmark::State& state) {
  simd::ForceScalar(state.range(0) != 0);
  std::vector<std::int32_t> src(kSimdN);
  std::vector<std::int64_t> acc(kSimdN, 0);
  Rng rng(3);
  for (auto& v : src) v = static_cast<std::int32_t>(rng.NextU64());
  for (auto _ : state) {
    simd::AddI32ToI64(src.data(), acc.data(), kSimdN);
    benchmark::DoNotOptimize(acc.data());
  }
  simd::ForceScalar(false);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * kSimdN *
      (sizeof(std::int32_t) + sizeof(std::int64_t)));
  state.SetLabel(state.range(0) != 0 ? "scalar"
                                     : (simd::Avx2Available() ? "avx2"
                                                              : "scalar"));
}
BENCHMARK(BM_PooledSumAddI32)->Arg(0)->Arg(1);

void BM_CrossRankReduceAddI64(benchmark::State& state) {
  simd::ForceScalar(state.range(0) != 0);
  std::vector<std::int64_t> src(kSimdN);
  std::vector<std::int64_t> acc(kSimdN, 0);
  Rng rng(8);
  for (auto& v : src) v = static_cast<std::int64_t>(rng.NextU64());
  for (auto _ : state) {
    simd::AddI64ToI64(src.data(), acc.data(), kSimdN);
    benchmark::DoNotOptimize(acc.data());
  }
  simd::ForceScalar(false);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSimdN * 2 * sizeof(std::int64_t));
  state.SetLabel(state.range(0) != 0 ? "scalar"
                                     : (simd::Avx2Available() ? "avx2"
                                                              : "scalar"));
}
BENCHMARK(BM_CrossRankReduceAddI64)->Arg(0)->Arg(1);

// Timed outside google-benchmark so the results land in
// BENCH_host.json next to the fig* host timings. Runs of `run` per
// second: warm once, then time enough repetitions for ~50 ms.
double MeasureRunsPerSecond(void (*run)()) {
  using clock = std::chrono::steady_clock;
  run();
  std::size_t reps = 1;
  for (;;) {
    const auto start = clock::now();
    for (std::size_t i = 0; i < reps; ++i) run();
    const double s = std::chrono::duration<double>(clock::now() - start)
                         .count();
    if (s >= 0.05) return static_cast<double>(reps) / s;
    reps *= 4;
  }
}

// GB/s of one kernel run moving `bytes_per_run`.
double MeasureGbps(void (*run)(), std::uint64_t bytes_per_run) {
  return static_cast<double>(bytes_per_run) * MeasureRunsPerSecond(run) /
         1e9;
}

std::vector<std::int32_t>& SimdSrc() {
  static std::vector<std::int32_t> src = [] {
    std::vector<std::int32_t> v(kSimdN);
    Rng rng(5);
    for (auto& x : v) x = static_cast<std::int32_t>(rng.NextU64());
    return v;
  }();
  return src;
}
std::vector<std::int64_t>& SimdAcc() {
  static std::vector<std::int64_t> acc(kSimdN, 0);
  return acc;
}
void RunPooledSum() {
  simd::AddI32ToI64(SimdSrc().data(), SimdAcc().data(), kSimdN);
}

// Cross-shard merge kernel: the int64 lane addition the ShardedEngine
// folds every shard's pooled accumulators and DRAM-tier bags through
// (simd::AddI64ToI64).
std::vector<std::int64_t>& SimdRankSrc() {
  static std::vector<std::int64_t> src = [] {
    std::vector<std::int64_t> v(kSimdN);
    Rng rng(7);
    for (auto& x : v) x = static_cast<std::int64_t>(rng.NextU64());
    return v;
  }();
  return src;
}
void RunRankMerge() {
  static std::vector<std::int64_t> acc(kSimdN, 0);
  simd::AddI64ToI64(SimdRankSrc().data(), acc.data(), kSimdN);
  benchmark::DoNotOptimize(acc.data());
}

void RunGoodReadsMine() { MineOnce(GoodReadsMineWindow()); }
void RunShardMine() { MineOnce(ShardMineWindow()); }

}  // namespace

void WriteSimdThroughputRows() {
  constexpr std::uint64_t kPooledBytes =
      kSimdN * (sizeof(std::int32_t) + sizeof(std::int64_t));
  constexpr std::uint64_t kMergeBytes =
      kSimdN * 2 * sizeof(std::int64_t);  // read partial + read/write acc

  simd::ForceScalar(true);
  const double pooled_scalar = MeasureGbps(RunPooledSum, kPooledBytes);
  const double merge_scalar = MeasureGbps(RunRankMerge, kMergeBytes);
  simd::ForceScalar(false);
  const double pooled_simd = MeasureGbps(RunPooledSum, kPooledBytes);
  const double merge_simd = MeasureGbps(RunRankMerge, kMergeBytes);

  telemetry::JsonWriter payload;
  payload.BeginObject().Field("dispatch",
                              simd::UsingAvx2() ? "avx2" : "scalar");
  const auto kernel = [&payload](const char* name, double scalar_gbps,
                                 double simd_gbps) {
    payload.Key(name).BeginObject().Field("scalar", scalar_gbps);
    payload.Field("simd", simd_gbps).EndObject();
  };
  kernel("pooled_sum_gbps", pooled_scalar, pooled_simd);
  kernel("cross_rank_reduce_gbps", merge_scalar, merge_simd);
  payload.EndObject();
  bench::WriteBenchHostEntry("micro_simd_kernels", payload.str());
  std::printf("# simd kernels: pooled-sum %.2f -> %.2f GB/s, "
              "cross-rank reduce %.2f -> %.2f GB/s (scalar -> %s) "
              "-> BENCH_host.json\n",
              pooled_scalar, pooled_simd, merge_scalar, merge_simd,
              simd::UsingAvx2() ? "avx2" : "scalar");
}

// One BENCH_host.json entry per mining shape.
void WriteGraceMiningRow(const char* entry, const char* shape,
                         const MineWindow& w, void (*run)()) {
  const double mines_per_s = MeasureRunsPerSecond(run);
  const double pairs_per_s = static_cast<double>(w.pairs) * mines_per_s;
  telemetry::JsonWriter payload;
  payload.BeginObject().Field("samples", w.table.num_samples());
  payload.Field("hot_items", w.num_hot);
  payload.Field("pairs_per_mine", w.pairs).Field("mine_s", 1.0 / mines_per_s);
  payload.Field("pairs_per_s", pairs_per_s).EndObject();
  bench::WriteBenchHostEntry(entry, payload.str());
  std::printf("# grace mining (GoodReads %s, %zu samples, %zu hot): %.3f s "
              "per table, %.1f M pairs/s -> BENCH_host.json\n",
              shape, w.table.num_samples(), w.num_hot, 1.0 / mines_per_s,
              pairs_per_s / 1e6);
}

}  // namespace updlrm

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  updlrm::WriteSimdThroughputRows();
  updlrm::WriteGraceMiningRow("micro_grace_mining", "window",
                              updlrm::GoodReadsMineWindow(),
                              updlrm::RunGoodReadsMine);
  updlrm::WriteGraceMiningRow("micro_grace_mining_shard", "shard",
                              updlrm::ShardMineWindow(),
                              updlrm::RunShardMine);
  return 0;
}
