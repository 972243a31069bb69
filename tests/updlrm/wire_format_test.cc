// The engine's stage-1 wire format (EngineOptions::packed_indices,
// pim/wire_format.h): per-DPU bytes per format and method, the per-call
// offset width at the 65,536-reference edge (priced and decoded), the
// agreement of the engine, the (Nc, R) estimator and the Eq. 1-3
// optimizer on a balanced trace, the MRAM reach of 3-byte slots, and
// the stage1.push trace span's wire args.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "partition/uniform.h"
#include "pim/wire_format.h"
#include "telemetry/tracer.h"
#include "trace/generator.h"
#include "updlrm/engine.h"

namespace updlrm::core {
namespace {

dlrm::DlrmConfig OneTableConfig(std::uint64_t rows) {
  dlrm::DlrmConfig config;
  config.num_tables = 1;
  config.rows_per_table = rows;
  config.embedding_dim = 8;
  config.dense_features = 5;
  config.bottom_hidden = {16};
  config.top_hidden = {16};
  config.seed = 61;
  return config;
}

std::unique_ptr<pim::DpuSystem> MakeSystem(std::uint32_t num_dpus,
                                           bool functional,
                                           std::uint64_t mram_bytes) {
  pim::DpuSystemConfig sys;
  sys.num_dpus = num_dpus;
  sys.dpus_per_rank = num_dpus;
  sys.dpu.mram_bytes = mram_bytes;
  sys.functional = functional;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  return std::move(system).value();
}

EngineOptions PinnedOptions(partition::Method method, bool packed) {
  EngineOptions options;
  options.method = method;
  options.nc = 8;
  options.replicas = 1;
  options.packed_indices = packed;
  return options;
}

TEST(WireFormatEngineTest, CachelessGroupsPushOneOffsetArray) {
  trace::DatasetSpec spec;
  spec.name = "wire";
  spec.num_items = 600;
  spec.avg_reduction = 12.0;
  spec.num_hot_items = 96;
  spec.clique_prob = 0.6;
  spec.seed = 61;
  trace::TraceGeneratorOptions generate;
  generate.num_samples = 64;
  generate.num_tables = 2;
  auto trace = trace::TraceGenerator(spec).Generate(generate);
  ASSERT_TRUE(trace.ok());
  dlrm::DlrmConfig config = OneTableConfig(600);
  config.num_tables = 2;

  for (const partition::Method method :
       {partition::Method::kUniform, partition::Method::kNonUniform,
        partition::Method::kCacheAware}) {
    for (const bool packed : {true, false}) {
      auto system = MakeSystem(8, /*functional=*/false, kMiB);
      EngineOptions options = PinnedOptions(method, packed);
      options.reserved_io_bytes = 128 * kKiB;
      options.grace.num_hot_items = 96;
      auto engine = UpDlrmEngine::Create(nullptr, config, *trace,
                                         system.get(), options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      const std::uint64_t n = 64;
      ASSERT_TRUE((*engine)->RunBatch({0, n}, nullptr).ok());
      const bool one_array =
          packed && method != partition::Method::kCacheAware;
      for (std::uint32_t d = 0; d < system->num_dpus(); ++d) {
        const pim::DpuStats& st = system->dpu(d).stats();
        const std::uint64_t refs = st.lookups + st.cache_reads + st.wram_hits;
        const std::uint64_t want =
            packed ? refs * 3 + (one_array ? 1 : 2) * (n + 1) * 2
                   : refs * 4 + 2 * (n + 1) * 4;
        EXPECT_EQ(st.index_bytes_pushed, want)
            << partition::MethodShortName(method) << " packed " << packed
            << " DPU " << d;
      }
    }
  }
}

// One table of 2^17 rows on one DPU whose samples each read every 128th
// row: a batch of 64 routes 65,536 references to the DPU, one of 63
// routes 64,512, and the slots reach 130,944, so all three bytes of a
// packed reference matter.
TEST(WireFormatEngineTest, LongListSwitchesTheCallToFourByteOffsets) {
  const dlrm::DlrmConfig config = OneTableConfig(1U << 17);
  auto model = dlrm::DlrmModel::Create(config);
  ASSERT_TRUE(model.ok());
  trace::Trace trace;
  trace.num_items = 1U << 17;
  trace.tables.resize(1);
  std::vector<std::uint32_t> rows(1024);
  for (std::uint32_t i = 0; i < rows.size(); ++i) rows[i] = i * 128;
  for (int s = 0; s < 64; ++s) trace.tables[0].AppendSample(rows);

  auto system = MakeSystem(1, /*functional=*/true, 8 * kMiB);
  EngineOptions options = PinnedOptions(partition::Method::kUniform, true);
  options.reserved_io_bytes = 512 * kKiB;
  auto engine =
      UpDlrmEngine::Create(&*model, config, trace, system.get(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<float> want(config.embedding_dim);
  for (const std::size_t n : {63U, 64U}) {
    auto batch = (*engine)->RunBatch({0, n}, nullptr);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    const std::uint64_t refs = 1024 * n;
    const std::uint32_t offset_bytes = refs > 65'535 ? 4 : 2;
    EXPECT_EQ(batch->index_wire.id_bytes, 3u);
    EXPECT_EQ(batch->index_wire.offset_bytes, offset_bytes) << n;
    // Priced at that width: one offset array (no cache).
    const std::uint64_t bytes = refs * 3 + (n + 1) * offset_bytes;
    EXPECT_EQ(batch->max_index_bytes, bytes) << n;
    EXPECT_EQ(batch->stages.cpu_to_dpu,
              system->transfer().PushTime(std::vector<std::uint64_t>{bytes},
                                          true));
    // And decoded at that width.
    for (std::size_t s = 0; s < n; ++s) {
      model->PooledEmbeddingsFixed(trace, s, want);
      for (std::size_t k = 0; k < want.size(); ++k) {
        ASSERT_EQ(batch->pooled[s * want.size() + k], want[k])
            << "batch " << n << " sample " << s << " lane " << k;
      }
    }
  }
}

// Four DPUs, each owning a 256-row uniform bin; every sample reads one
// row of every bin, so each DPU gets exactly one reference per sample:
// the §3.1 balanced-access assumption holds exactly.
TEST(WireFormatEngineTest, EngineAndOptimizersAgreeOnBalancedBytes) {
  const dlrm::DlrmConfig config = OneTableConfig(1024);
  trace::Trace trace;
  trace.num_items = 1024;
  trace.tables.resize(1);
  for (std::uint32_t s = 0; s < 64; ++s) {
    const std::uint32_t rows[] = {s, 256 + s, 512 + s, 768 + s};
    trace.tables[0].AppendSample(rows);
  }
  for (const bool packed : {true, false}) {
    auto system = MakeSystem(4, /*functional=*/false, 64 * kMiB);
    auto engine = UpDlrmEngine::Create(
        nullptr, config, trace, system.get(),
        PinnedOptions(partition::Method::kUniform, packed));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto batch = (*engine)->RunBatch({0, 64}, nullptr);
    ASSERT_TRUE(batch.ok());

    const std::uint32_t nc[] = {8};
    auto tile = partition::OptimizeTileShape(
        config.table_shape(), 4, 64, 4.0, *system, nc, 1, packed);
    ASSERT_TRUE(tile.ok()) << tile.status().ToString();
    ASSERT_EQ(tile->candidates.size(), 1u);
    // The (Nc, R) estimator prices through the same balanced batch.
    const partition::TileCandidate estimate =
        partition::PriceBalancedBatch(*system, 64, 64, 32, packed);
    EXPECT_EQ(tile->candidates[0].push_bytes, estimate.push_bytes);
    EXPECT_EQ(tile->candidates[0].stage1_ns, estimate.stage1_ns);
    if (packed) {
      EXPECT_EQ(batch->max_index_bytes, 64u * 3 + 65 * 2);
      EXPECT_EQ(batch->max_index_bytes, estimate.push_bytes);
      EXPECT_EQ(batch->stages.cpu_to_dpu, estimate.stage1_ns);
    } else {
      // The paper format's engine also pushes the cache offset array
      // the estimates leave out (no kernel reads it).
      EXPECT_EQ(estimate.push_bytes, 64u * 4 + 65 * 4);
      EXPECT_EQ(batch->max_index_bytes, estimate.push_bytes + 65 * 4);
    }
  }
}

TEST(WireFormatEngineTest, PackedSlotsMustReachAllOfMram) {
  const dlrm::DlrmConfig config = OneTableConfig(1024);
  trace::Trace trace;
  trace.num_items = 1024;
  trace.tables.resize(1);
  const std::uint32_t rows[] = {1, 2, 3};
  trace.tables[0].AppendSample(rows);
  // 256 MiB of 8-byte rows is 2^25 slots: beyond 3 bytes.
  for (const bool packed : {true, false}) {
    auto system = MakeSystem(4, /*functional=*/false, 256 * kMiB);
    EngineOptions options = PinnedOptions(partition::Method::kUniform, packed);
    options.nc = 2;
    auto engine =
        UpDlrmEngine::Create(nullptr, config, trace, system.get(), options);
    if (packed) {
      EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
    } else {
      EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    }
  }
}

TEST(WireFormatEngineTest, Stage1SpanRecordsTheWire) {
  const dlrm::DlrmConfig config = OneTableConfig(1024);
  trace::Trace trace;
  trace.num_items = 1024;
  trace.tables.resize(1);
  for (std::uint32_t s = 0; s < 64; ++s) {
    const std::uint32_t rows[] = {s, 256 + s, 512 + s, 768 + s};
    trace.tables[0].AppendSample(rows);
  }
  auto system = MakeSystem(4, /*functional=*/false, 64 * kMiB);
  auto engine = UpDlrmEngine::Create(
      nullptr, config, trace, system.get(),
      PinnedOptions(partition::Method::kUniform, true));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  telemetry::Tracer::Get().Enable();
  ASSERT_TRUE((*engine)->RunAll(nullptr).ok());
  telemetry::Tracer::Get().Disable();
  bool found = false;
  for (const telemetry::TraceEvent& e : telemetry::Tracer::Get().Snapshot()) {
    if (e.name == nullptr || std::strcmp(e.name, "stage1.push") != 0) {
      continue;
    }
    found = true;
    double id = 0, offset = 0, max_bytes = 0;
    for (int i = 0; i < telemetry::kMaxTraceArgs; ++i) {
      if (e.arg_name[i] == nullptr) continue;
      const std::string name = e.arg_name[i];
      if (name == "id_bytes") id = e.arg_value[i];
      if (name == "offset_bytes") offset = e.arg_value[i];
      if (name == "max_dpu_bytes") max_bytes = e.arg_value[i];
    }
    EXPECT_EQ(id, 3.0);
    EXPECT_EQ(offset, 2.0);
    EXPECT_EQ(max_bytes, 64.0 * 3 + 65 * 2);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace updlrm::core
