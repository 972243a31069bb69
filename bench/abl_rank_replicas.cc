// Ablation: rank replicas (EngineOptions::replicas), the tile shape's
// third axis.
//
// R whole-rank copies of the model each serve ⌈batch/R⌉ samples of
// every bin, dealt per bin so the copies' loads balance, so every DPU
// pulls batch/R partial rows instead of batch rows: the stage-3 pull
// and the host aggregate shrink, while the per-DPU lookups and pushed
// indices stay put. The table reports, for
// every Table 1 dataset and partitioning method, the per-batch stage
// means at the paper's single copy (R = 1) and at the optimizer's
// (Nc, R), both with Nc chosen by the §3.1 optimizer.
//
// Gate: exits non-zero unless
//   * the optimizer's R lowers us/batch wherever it picks R > 1;
//   * stage 2 at the optimizer's R is no slower than at R = 1 on every
//     row (the per-bin deal keeps the slowest copy at its share);
//   * meta1 and meta2, whose copies do not fit MRAM at R = 4, get a
//     smaller R instead of a setup error;
//   * a small functional replica's pooled embeddings are bit-identical
//     at R = 1, 2 and 4 (and to DlrmModel's fixed-point reference).
//
// Emits BENCH_replicas.json: per dataset and method, the chosen R and
// Nc, and s1/s2/s3/aggregate and us/batch at both settings.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "telemetry/json.h"

namespace {

using namespace updlrm;

struct Measured {
  std::uint32_t replicas = 0;
  std::uint32_t nc = 0;
  double s1_us = 0.0;
  double s2_us = 0.0;
  double s3_us = 0.0;
  double aggregate_us = 0.0;
  double us_per_batch = 0.0;
};

Measured Run(const bench::Workload& w, partition::Method method,
             std::uint32_t replicas, const bench::BenchScale& scale,
             const std::vector<cache::CacheRes>& caches,
             const std::vector<trace::TableProfile>& profiles) {
  auto system = bench::MakePaperSystem();
  core::EngineOptions options = bench::PaperEngineOptions(method, 0, scale);
  options.replicas = replicas;
  options.premined_cache = &caches;
  options.preprofiled = &profiles;
  auto engine = core::UpDlrmEngine::Create(nullptr, w.config, w.trace,
                                           system.get(), options);
  UPDLRM_CHECK_MSG(engine.ok(), w.spec.name + "/" +
                                    std::string(partition::MethodShortName(
                                        method)) +
                                    ": " + engine.status().ToString());
  auto report = (*engine)->RunAll(nullptr);
  UPDLRM_CHECK_MSG(report.ok(), report.status().ToString());
  bench::AssertChecksClean(**engine, w.spec.name);
  const auto batches = static_cast<double>(report->num_batches);
  const core::StageBreakdown& st = report->stages;
  Measured m;
  m.replicas = (*engine)->replicas();
  m.nc = (*engine)->nc();
  m.s1_us = NanosToMicros(st.cpu_to_dpu) / batches;
  m.s2_us = NanosToMicros(st.dpu_lookup) / batches;
  m.s3_us = NanosToMicros(st.dpu_to_cpu) / batches;
  m.aggregate_us = NanosToMicros(st.cpu_aggregate) / batches;
  m.us_per_batch = NanosToMicros(report->AvgBatchEmbedding());
  return m;
}

void WriteMeasured(telemetry::JsonWriter& json, const char* key,
                   const Measured& m) {
  json.Key(key).BeginObject();
  json.Field("nc", m.nc);
  json.Field("s1_us", m.s1_us);
  json.Field("s2_us", m.s2_us);
  json.Field("s3_us", m.s3_us);
  json.Field("aggregate_us", m.aggregate_us);
  json.Field("us_per_batch", m.us_per_batch);
  json.EndObject();
}

// A scaled functional replica of one Table 1 dataset served at R = 1, 2
// and 4 on the 256-DPU system: true when every pooled embedding is
// bit-identical across R and to DlrmModel's fixed-point reference.
bool FunctionalBitExact(const bench::BenchScale& scale) {
  const bench::FunctionalReplica replica = bench::MakeFunctionalReplica(scale);
  const dlrm::DlrmConfig& config = replica.config;
  const dlrm::DlrmModel& model = replica.model;
  const trace::Trace& trace = replica.trace;

  const std::size_t width =
      static_cast<std::size_t>(config.num_tables) * config.embedding_dim;
  bool exact = true;
  for (const partition::Method method :
       {partition::Method::kUniform, partition::Method::kNonUniform,
        partition::Method::kCacheAware}) {
    std::vector<float> at_one;
    for (const std::uint32_t replicas : {1U, 2U, 4U}) {
      pim::DpuSystemConfig system_config;  // the Table 2 system
      system_config.functional = true;
      auto system = pim::DpuSystem::Create(system_config);
      UPDLRM_CHECK_MSG(system.ok(), system.status().ToString());
      core::EngineOptions options =
          bench::PaperEngineOptions(method, 0, scale);
      options.replicas = replicas;
      options.reserved_io_bytes = 256 * kKiB;
      auto engine = core::UpDlrmEngine::Create(&model, config, trace,
                                               system->get(), options);
      UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
      std::vector<float> pooled;
      for (const trace::BatchRange& range :
           trace::MakeBatches(trace.num_samples(), scale.batch_size)) {
        auto batch = (*engine)->RunBatch(range, nullptr);
        UPDLRM_CHECK_MSG(batch.ok(), batch.status().ToString());
        pooled.insert(pooled.end(), batch->pooled.begin(),
                      batch->pooled.end());
      }
      bench::AssertChecksClean(**engine, "functional replica");
      if (replicas == 1) {
        std::vector<float> want(width);
        for (std::size_t s = 0; s < trace.num_samples(); ++s) {
          model.PooledEmbeddingsFixed(trace, s, want);
          exact = exact && std::equal(want.begin(), want.end(),
                                      pooled.begin() + s * width);
        }
        at_one = std::move(pooled);
      } else {
        exact = exact && pooled == at_one;
      }
    }
  }
  return exact;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "== Ablation: rank replicas (Table 1 workloads, optimizer's Nc) "
      "==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);

  const partition::Method methods[] = {partition::Method::kUniform,
                                       partition::Method::kNonUniform,
                                       partition::Method::kCacheAware};

  TablePrinter out({"dataset", "method", "R", "Nc", "s2 R=1 (us)",
                    "s2 (us)", "s3 R=1 (us)", "s3 (us)", "agg R=1", "agg",
                    "R=1 (us/batch)", "us/batch", "vs R=1"});
  using Layout = telemetry::JsonWriter::Layout;
  telemetry::JsonWriter json;
  json.BeginObject(Layout::kLines).Field("samples", scale.num_samples);
  json.Field("batch_size", scale.batch_size).Key("datasets");
  json.BeginObject(Layout::kLines);

  std::vector<std::string> failures;
  for (const trace::DatasetSpec& spec : trace::Table1Workloads()) {
    const bench::Workload w = bench::PrepareWorkload(spec, scale);
    const std::vector<trace::TableProfile> profiles =
        bench::ProfileTables(w);
    const std::vector<cache::CacheRes> caches =
        bench::MineCaches(w, 0, &profiles);
    json.Key(spec.name).BeginObject(Layout::kLines);
    for (const partition::Method method : methods) {
      const std::string label =
          spec.name + "/" + std::string(partition::MethodShortName(method));
      const Measured one = Run(w, method, 1, scale, caches, profiles);
      const Measured best = Run(w, method, 0, scale, caches, profiles);
      if (best.replicas > 1 && best.us_per_batch >= one.us_per_batch) {
        failures.push_back(label + ": R = " +
                           std::to_string(best.replicas) +
                           " does not lower us/batch");
      }
      if (best.s2_us > one.s2_us) {
        failures.push_back(label + ": s2 at R = " +
                           std::to_string(best.replicas) + " (" +
                           TablePrinter::Fmt(best.s2_us, 1) +
                           " us) exceeds s2 at R = 1 (" +
                           TablePrinter::Fmt(one.s2_us, 1) + " us)");
      }
      const bool too_big_for_four =
          spec.name == "meta1" || spec.name == "meta2";
      if (too_big_for_four && best.replicas >= 4) {
        failures.push_back(label + ": R = 4 should not fit MRAM");
      }
      out.AddRow({spec.name, std::string(partition::MethodShortName(method)),
                  std::to_string(best.replicas), std::to_string(best.nc),
                  TablePrinter::Fmt(one.s2_us, 1),
                  TablePrinter::Fmt(best.s2_us, 1),
                  TablePrinter::Fmt(one.s3_us, 1),
                  TablePrinter::Fmt(best.s3_us, 1),
                  TablePrinter::Fmt(one.aggregate_us, 1),
                  TablePrinter::Fmt(best.aggregate_us, 1),
                  TablePrinter::Fmt(one.us_per_batch, 1),
                  TablePrinter::Fmt(best.us_per_batch, 1),
                  TablePrinter::Fmt(one.us_per_batch / best.us_per_batch,
                                    2) +
                      "x"});
      json.Key(partition::MethodShortName(method)).BeginObject();
      json.Field("replicas", best.replicas);
      WriteMeasured(json, "r1", one);
      WriteMeasured(json, "optimized", best);
      json.EndObject();
    }
    json.EndObject();
  }
  out.Print(std::cout);

  const bool bit_exact = FunctionalBitExact(scale);
  if (!bit_exact) {
    failures.push_back("functional replica: pooled outputs differ by R");
  }
  json.EndObject().Field("functional_bit_exact", bit_exact);
  json.EndObject().Newline();
  const Status written =
      telemetry::WriteTextFile("BENCH_replicas.json", json.str());
  UPDLRM_CHECK_MSG(written.ok(), written.ToString());

  std::printf(
      "\nR = whole-rank model copies the optimizer picked (largest that "
      "fits MRAM); s2 = DPU stage 2; s3 = stage-3 pull; agg = host "
      "aggregate; functional "
      "replica bit-exact at R = 1, 2, 4: %s -> BENCH_replicas.json\n",
      bit_exact ? "yes" : "NO");
  for (const std::string& f : failures) {
    std::printf("FAIL %s\n", f.c_str());
  }
  return failures.empty() ? 0 : 1;
}
