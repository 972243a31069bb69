// End-to-end checker integration: a functional engine with check_mode
// on must run the full trace with a clean report (the engine obeys its
// own hardware contract), the observer lifecycle must be precise
// (attach installs, detach removes only its own), and check-mode must
// not change simulated results.
#include "check/checker.h"

#include <gtest/gtest.h>

#include <memory>

#include "check/report.h"
#include "trace/generator.h"
#include "updlrm/engine.h"

namespace updlrm::check {
namespace {

struct Fixture {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
};

Fixture MakeFixture(bool functional = true, std::uint64_t seed = 31) {
  Fixture f;
  f.config.num_tables = 2;
  f.config.rows_per_table = 600;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  f.config.seed = seed;
  if (functional) {
    auto model = dlrm::DlrmModel::Create(f.config);
    UPDLRM_CHECK(model.ok());
    f.model = std::make_unique<dlrm::DlrmModel>(std::move(model).value());
  }

  trace::DatasetSpec spec;
  spec.name = "chk";
  spec.num_items = 600;
  spec.avg_reduction = 12.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = seed;
  trace::TraceGeneratorOptions options;
  options.num_samples = 96;
  options.num_tables = 2;
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  f.trace = std::move(t).value();

  pim::DpuSystemConfig sys;
  sys.num_dpus = 8;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = functional;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();
  return f;
}

core::EngineOptions CheckedOptions(partition::Method method,
                                   std::uint32_t nc = 4) {
  core::EngineOptions options;
  options.method = method;
  options.nc = nc;
  options.batch_size = 16;
  options.reserved_io_bytes = 128 * kKiB;
  options.grace.num_hot_items = 96;
  options.check_mode = true;
  return options;
}

TEST(CheckerTest, FunctionalEngineRunsCleanUnderAllMethods) {
  for (const partition::Method method :
       {partition::Method::kUniform, partition::Method::kNonUniform,
        partition::Method::kCacheAware}) {
    Fixture f = MakeFixture();
    auto engine =
        core::UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                   f.system.get(), CheckedOptions(method));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_NE((*engine)->check_report(), nullptr);
    auto report = (*engine)->RunAll(nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ((*engine)->check_violations(), 0u)
        << partition::MethodName(method) << "\n"
        << (*engine)->check_report()->ToString();
  }
}

TEST(CheckerTest, TimingOnlyEngineRunsClean) {
  // Timing-only mode skips functional MRAM traffic, but the plan,
  // transfer and model/sim audits still run.
  Fixture f = MakeFixture(false);
  auto engine = core::UpDlrmEngine::Create(
      nullptr, f.config, f.trace, f.system.get(),
      CheckedOptions(partition::Method::kCacheAware));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->RunAll(nullptr).ok());
  EXPECT_EQ((*engine)->check_violations(), 0u)
      << (*engine)->check_report()->ToString();
}

// The engine's defaults — optimizer-picked (Nc, R), the per-bin deal
// across replicas and the WRAM tier at its clamp — keep every rule clean,
// the kernel model/sim audit's band included.
TEST(CheckerTest, DefaultOptionsRunCleanAcrossReplicas) {
  for (const partition::Method method :
       {partition::Method::kUniform, partition::Method::kNonUniform,
        partition::Method::kCacheAware}) {
    Fixture f = MakeFixture();
    pim::DpuSystemConfig sys;
    sys.num_dpus = 16;
    sys.dpus_per_rank = 4;
    sys.dpu.mram_bytes = 1 * kMiB;
    sys.functional = true;
    auto system = pim::DpuSystem::Create(sys);
    ASSERT_TRUE(system.ok());
    core::EngineOptions options = CheckedOptions(method, /*nc=*/0);
    options.batch_size = 64;
    auto engine = core::UpDlrmEngine::Create(f.model.get(), f.config,
                                             f.trace, system->get(),
                                             options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_GT((*engine)->replicas(), 1u);
    EXPECT_FALSE((*engine)->groups()[0].wram_pinned.empty());
    ASSERT_TRUE((*engine)->RunAll(nullptr).ok());
    EXPECT_EQ((*engine)->check_violations(), 0u)
        << partition::MethodName(method) << "\n"
        << (*engine)->check_report()->ToString();
  }
}

TEST(CheckerTest, HotPathLeversRunClean) {
  Fixture f = MakeFixture();
  core::EngineOptions options =
      CheckedOptions(partition::Method::kCacheAware);
  options.wram_cache_rows = 32;
  auto engine = core::UpDlrmEngine::Create(f.model.get(), f.config,
                                           f.trace, f.system.get(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->RunAll(nullptr).ok());
  EXPECT_EQ((*engine)->check_violations(), 0u)
      << (*engine)->check_report()->ToString();
}

TEST(CheckerTest, CheckModeDoesNotChangeResults) {
  Fixture plain = MakeFixture();
  Fixture checked = MakeFixture();
  core::EngineOptions off = CheckedOptions(partition::Method::kCacheAware);
  off.check_mode = false;
  auto e1 = core::UpDlrmEngine::Create(plain.model.get(), plain.config,
                                       plain.trace, plain.system.get(), off);
  auto e2 = core::UpDlrmEngine::Create(
      checked.model.get(), checked.config, checked.trace,
      checked.system.get(), CheckedOptions(partition::Method::kCacheAware));
  ASSERT_TRUE(e1.ok() && e2.ok());
  EXPECT_EQ((*e1)->check_report(), nullptr);
  auto b1 = (*e1)->RunBatch({0, 16}, nullptr);
  auto b2 = (*e2)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(b1.ok() && b2.ok());
  ASSERT_EQ(b1->pooled.size(), b2->pooled.size());
  for (std::size_t i = 0; i < b1->pooled.size(); ++i) {
    ASSERT_EQ(b1->pooled[i], b2->pooled[i]) << i;
  }
  EXPECT_DOUBLE_EQ(b1->stages.cpu_to_dpu, b2->stages.cpu_to_dpu);
  EXPECT_DOUBLE_EQ(b1->stages.dpu_lookup, b2->stages.dpu_lookup);
  EXPECT_DOUBLE_EQ(b1->stages.dpu_to_cpu, b2->stages.dpu_to_cpu);
}

TEST(CheckerTest, AttachAndDetachManageOnlyOwnObservers) {
  pim::DpuSystemConfig sys;
  sys.num_dpus = 2;
  sys.dpus_per_rank = 2;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = true;
  auto system = pim::DpuSystem::Create(sys);
  ASSERT_TRUE(system.ok());

  Checker checker(sys);
  checker.Attach(**system);
  for (std::uint32_t d = 0; d < 2; ++d) {
    EXPECT_EQ((*system)->dpu(d).mram().observer(), checker.observer(d));
  }
  EXPECT_EQ(checker.observer(2), nullptr);

  // A foreign observer installed after ours must survive our Detach.
  class Nop final : public pim::MramObserver {
   public:
    void OnWrite(std::uint64_t, std::uint64_t) override {}
    void OnRead(std::uint64_t, std::uint64_t) override {}
  } foreign;
  (*system)->dpu(1).mram().set_observer(&foreign);
  checker.Detach(**system);
  EXPECT_EQ((*system)->dpu(0).mram().observer(), nullptr);
  EXPECT_EQ((*system)->dpu(1).mram().observer(), &foreign);
  (*system)->dpu(1).mram().set_observer(nullptr);
}

TEST(CheckerTest, ObserverFeedsShadowState) {
  pim::DpuSystemConfig sys;
  sys.num_dpus = 1;
  sys.dpus_per_rank = 1;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = true;
  auto system = pim::DpuSystem::Create(sys);
  ASSERT_TRUE(system.ok());
  Checker checker(sys);
  checker.Attach(**system);

  pim::Mram& mram = (*system)->dpu(0).mram();
  std::uint64_t payload = 0x1234;
  ASSERT_TRUE(
      mram.Write(0, {reinterpret_cast<const std::uint8_t*>(&payload),
                     sizeof(payload)})
          .ok());
  EXPECT_TRUE(checker.access().IsWritten(0, 0, 8));
  std::uint64_t readback = 0;
  ASSERT_TRUE(mram.Read(8, {reinterpret_cast<std::uint8_t*>(&readback),
                            sizeof(readback)})
                  .ok());
  EXPECT_EQ(checker.report().count(Rule::kUninitRead), 1u);
  checker.Detach(**system);
}

}  // namespace
}  // namespace updlrm::check
