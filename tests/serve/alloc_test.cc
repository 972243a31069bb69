// Steady-state allocation accounting (the zero-alloc contract of
// DESIGN.md §"Host runtime"): once warm, the engine's per-batch host
// path and the request slab perform zero heap allocations. Global
// operator new/delete are replaced with counting wrappers, so this
// file must stay its own test binary (tests/CMakeLists.txt) — and the
// counters are compiled out under sanitizers, which interpose their
// own allocator.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "serve/batcher.h"
#include "serve/slab.h"
#include "trace/generator.h"
#include "updlrm/engine.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UPDLRM_ALLOC_COUNTING 0
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#undef UPDLRM_ALLOC_COUNTING
#define UPDLRM_ALLOC_COUNTING 0
#endif
#endif
#ifndef UPDLRM_ALLOC_COUNTING
#define UPDLRM_ALLOC_COUNTING 1
#endif

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

#if UPDLRM_ALLOC_COUNTING

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded > 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // UPDLRM_ALLOC_COUNTING

namespace updlrm {
namespace {

// Counts heap allocations across `fn`. Keep gtest assertions *outside*
// the counted window — they allocate message buffers.
template <typename Fn>
std::uint64_t CountAllocs(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(AllocTest, EngineBatchesAreAllocationFreeOnceWarm) {
#if !UPDLRM_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  dlrm::DlrmConfig config;
  config.num_tables = 2;
  config.rows_per_table = 600;
  config.embedding_dim = 8;
  config.dense_features = 5;
  config.bottom_hidden = {16};
  config.top_hidden = {16};
  config.seed = 11;

  trace::DatasetSpec spec;
  spec.name = "alloc";
  spec.num_items = 600;
  spec.avg_reduction = 12.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = 11;
  trace::TraceGeneratorOptions trace_options;
  trace_options.num_samples = 128;
  trace_options.num_tables = 2;
  trace_options.num_threads = 1;
  auto trace = trace::TraceGenerator(spec).Generate(trace_options);
  ASSERT_TRUE(trace.ok());

  // One rank (R = 1), and two ranks holding two model replicas, whose
  // per-bin deal keeps its scratch in members too.
  for (const std::uint32_t dpus_per_rank : {8U, 4U}) {
    pim::DpuSystemConfig sys;
    sys.num_dpus = 8;
    sys.dpus_per_rank = dpus_per_rank;
    sys.dpu.mram_bytes = 1 * kMiB;
    sys.functional = false;
    auto system = pim::DpuSystem::Create(sys);
    ASSERT_TRUE(system.ok());

    core::EngineOptions engine_options;
    engine_options.method = partition::Method::kCacheAware;
    engine_options.nc = 4;
    engine_options.batch_size = 16;
    engine_options.reserved_io_bytes = 128 * kKiB;
    engine_options.grace.num_hot_items = 96;
    engine_options.num_threads = 1;  // inline ParallelFor path
    auto engine = core::UpDlrmEngine::Create(nullptr, config, *trace,
                                             system->get(), engine_options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_EQ((*engine)->replicas(), 8 / dpus_per_rank);
    // The default WRAM tier is on: the batches below cover it.
    ASSERT_FALSE((*engine)->groups()[0].wram_pinned.empty());

    std::vector<std::size_t> samples(16);
    // Warmup: size every reused scratch buffer to its high-water mark
    // (including the thread-local arena). Covers the same sample windows
    // as the measured loop — scratch high-water marks are data-dependent.
    Status status = Status::Ok();
    for (std::size_t b = 0; b < 8; ++b) {
      std::iota(samples.begin(), samples.end(), b * 16);
      auto r = (*engine)->RunSamples(samples, nullptr);
      if (!r.ok()) status = r.status();
    }
    ASSERT_TRUE(status.ok()) << status.ToString();

    // Steady state: the per-batch host path must not touch the heap.
    Nanos checksum = 0.0;
    const std::uint64_t allocs = CountAllocs([&] {
      for (std::size_t b = 0; b < 8; ++b) {
        std::iota(samples.begin(), samples.end(), b * 16);
        auto r = (*engine)->RunSamples(samples, nullptr);
        if (r.ok()) checksum += r->total;
      }
    });
    EXPECT_EQ(allocs, 0u) << "per-batch heap allocations in steady state, "
                          << dpus_per_rank << " DPUs per rank";
    EXPECT_GT(checksum, 0.0);
  }
#endif
}

TEST(AllocTest, RequestSlabSteadyStateIsAllocationFree) {
#if !UPDLRM_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  serve::RequestSlab<serve::QueuedRequest> slab;
  std::vector<serve::QueuedRequest*> live;
  live.reserve(64);
  // Warm to the high-water depth once.
  for (std::uint64_t i = 0; i < 64; ++i) {
    live.push_back(slab.Insert(serve::QueuedRequest{}));
  }
  for (serve::QueuedRequest* p : live) slab.Erase(p);
  live.clear();

  const std::uint64_t allocs = CountAllocs([&] {
    // Churn at the warmed depth: every insert recycles a freed slot.
    for (int round = 0; round < 100; ++round) {
      for (std::uint64_t i = 0; i < 64; ++i) {
        live.push_back(slab.Insert(serve::QueuedRequest{}));
      }
      for (serve::QueuedRequest* p : live) slab.Erase(p);
      live.clear();
    }
  });
  EXPECT_EQ(allocs, 0u);
#endif
}

}  // namespace
}  // namespace updlrm
