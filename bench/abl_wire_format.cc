// Ablation: the stage-1 wire format (EngineOptions::packed_indices).
//
// The paper format pushes every routed reference as a 4-byte index and
// every DPU two arrays of 4-byte per-sample offsets. The packed format
// pushes 3-byte slot references, 2-byte offsets where the call's
// longest per-DPU list allows, and no cache offset array for groups
// without a cache; the DPU pays a per-index decode in stage 2
// (pim/wire_format.h). The table reports, for every Table 1 dataset
// and partitioning method at the optimizer's (Nc, R), the stage-1 bytes
// per batch, s1, s2 and us/batch in both formats.
//
// Gate: exits non-zero unless
//   * s1 falls on every row;
//   * s2 rises by at most 1% on every row (the decode's price);
//   * a small functional replica's pooled embeddings and CTRs are
//     bit-identical across the two formats at R = 1 and 4 (and to
//     DlrmModel's fixed-point reference).
//
// Emits BENCH_wire.json: per dataset and method, per format, the chosen
// Nc and R, push bytes per batch, s1, s2 and us/batch.
#include <algorithm>
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
  std::uint32_t nc = 0;
  std::uint32_t replicas = 0;
  double push_bytes = 0.0;  // all DPUs' stage-1 bytes per batch
  double s1_us = 0.0;
  double s2_us = 0.0;
  double us_per_batch = 0.0;
};

Measured Run(const bench::Workload& w, partition::Method method,
             bool packed, const bench::BenchScale& scale,
             const std::vector<cache::CacheRes>& caches,
             const std::vector<trace::TableProfile>& profiles) {
  auto system = bench::MakePaperSystem();
  core::EngineOptions options = bench::PaperEngineOptions(method, 0, scale);
  options.replicas = 0;  // the optimizer's R, as the default engine
  options.packed_indices = packed;
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
  std::uint64_t pushed = 0;
  for (std::uint32_t d = 0; d < system->num_dpus(); ++d) {
    pushed += system->dpu(d).stats().index_bytes_pushed;
  }
  Measured m;
  m.nc = (*engine)->nc();
  m.replicas = (*engine)->replicas();
  m.push_bytes = static_cast<double>(pushed) / batches;
  m.s1_us = NanosToMicros(report->stages.cpu_to_dpu) / batches;
  m.s2_us = NanosToMicros(report->stages.dpu_lookup) / batches;
  m.us_per_batch = NanosToMicros(report->AvgBatchEmbedding());
  return m;
}

void WriteMeasured(telemetry::JsonWriter& json, const char* key,
                   const Measured& m) {
  json.Key(key).BeginObject();
  json.Field("nc", m.nc);
  json.Field("replicas", m.replicas);
  json.Field("push_bytes_per_batch", m.push_bytes);
  json.Field("s1_us", m.s1_us);
  json.Field("s2_us", m.s2_us);
  json.Field("us_per_batch", m.us_per_batch);
  json.EndObject();
}

// The functional replica served in both formats at R = 1 and 4: true
// when pooled embeddings and CTRs are bit-identical across formats and
// the pooled embeddings match DlrmModel's fixed-point reference.
bool FunctionalBitExact(const bench::BenchScale& scale) {
  const bench::FunctionalReplica replica = bench::MakeFunctionalReplica(scale);
  const std::size_t width = static_cast<std::size_t>(
                                replica.config.num_tables) *
                            replica.config.embedding_dim;
  bool exact = true;
  for (const partition::Method method :
       {partition::Method::kUniform, partition::Method::kNonUniform,
        partition::Method::kCacheAware}) {
    for (const std::uint32_t replicas : {1U, 4U}) {
      std::vector<float> pooled[2];
      std::vector<float> ctr[2];
      for (const bool packed : {false, true}) {
        pim::DpuSystemConfig system_config;  // the Table 2 system
        system_config.functional = true;
        auto system = pim::DpuSystem::Create(system_config);
        UPDLRM_CHECK_MSG(system.ok(), system.status().ToString());
        core::EngineOptions options =
            bench::PaperEngineOptions(method, 0, scale);
        options.replicas = replicas;
        options.packed_indices = packed;
        options.reserved_io_bytes = 256 * kKiB;
        auto engine = core::UpDlrmEngine::Create(
            &replica.model, replica.config, replica.trace, system->get(),
            options);
        UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
        for (const trace::BatchRange& range : trace::MakeBatches(
                 replica.trace.num_samples(), scale.batch_size)) {
          auto batch = (*engine)->RunBatch(range, &replica.dense);
          UPDLRM_CHECK_MSG(batch.ok(), batch.status().ToString());
          pooled[packed].insert(pooled[packed].end(), batch->pooled.begin(),
                                batch->pooled.end());
          ctr[packed].insert(ctr[packed].end(), batch->ctr.begin(),
                             batch->ctr.end());
        }
        bench::AssertChecksClean(**engine, "functional replica");
      }
      exact = exact && pooled[0] == pooled[1] && ctr[0] == ctr[1];
      std::vector<float> want(width);
      for (std::size_t s = 0; s < replica.trace.num_samples(); ++s) {
        replica.model.PooledEmbeddingsFixed(replica.trace, s, want);
        exact = exact && std::equal(want.begin(), want.end(),
                                    pooled[1].begin() + s * width);
      }
    }
  }
  return exact;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "== Ablation: stage-1 wire format (Table 1 workloads, optimizer's "
      "Nc and R) ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);

  const partition::Method methods[] = {partition::Method::kUniform,
                                       partition::Method::kNonUniform,
                                       partition::Method::kCacheAware};

  TablePrinter out({"dataset", "method", "Nc", "R", "push KB paper",
                    "push KB packed", "s1 paper", "s1 packed", "s2 paper",
                    "s2 packed", "paper (us/batch)", "packed (us/batch)",
                    "vs paper"});
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
      const Measured paper = Run(w, method, false, scale, caches, profiles);
      const Measured packed = Run(w, method, true, scale, caches, profiles);
      if (packed.s1_us >= paper.s1_us) {
        failures.push_back(label + ": packed s1 does not fall");
      }
      if (packed.s2_us > 1.01 * paper.s2_us) {
        failures.push_back(label + ": packed s2 rises by more than 1%");
      }
      const std::string shape =
          paper.nc == packed.nc ? std::to_string(packed.nc)
                                : std::to_string(paper.nc) + "/" +
                                      std::to_string(packed.nc);
      const std::string copies =
          paper.replicas == packed.replicas
              ? std::to_string(packed.replicas)
              : std::to_string(paper.replicas) + "/" +
                    std::to_string(packed.replicas);
      out.AddRow({spec.name, std::string(partition::MethodShortName(method)),
                  shape, copies, TablePrinter::Fmt(paper.push_bytes / 1e3, 1),
                  TablePrinter::Fmt(packed.push_bytes / 1e3, 1),
                  TablePrinter::Fmt(paper.s1_us, 1),
                  TablePrinter::Fmt(packed.s1_us, 1),
                  TablePrinter::Fmt(paper.s2_us, 1),
                  TablePrinter::Fmt(packed.s2_us, 1),
                  TablePrinter::Fmt(paper.us_per_batch, 1),
                  TablePrinter::Fmt(packed.us_per_batch, 1),
                  TablePrinter::Fmt(paper.us_per_batch / packed.us_per_batch,
                                    3) +
                      "x"});
      json.Key(partition::MethodShortName(method)).BeginObject();
      WriteMeasured(json, "paper", paper);
      WriteMeasured(json, "packed", packed);
      json.EndObject();
    }
    json.EndObject();
  }
  out.Print(std::cout);

  const bool bit_exact = FunctionalBitExact(scale);
  if (!bit_exact) {
    failures.push_back(
        "functional replica: pooled outputs or CTRs differ by format");
  }
  json.EndObject().Field("functional_bit_exact", bit_exact);
  json.EndObject().Newline();
  const Status written =
      telemetry::WriteTextFile("BENCH_wire.json", json.str());
  UPDLRM_CHECK_MSG(written.ok(), written.ToString());

  std::printf(
      "\npush KB = all DPUs' stage-1 bytes per batch; s1/s2 in us per "
      "batch; Nc and R show paper/packed where the optimizer's picks "
      "differ; functional replica bit-exact across formats at R = 1, 4: "
      "%s -> BENCH_wire.json\n",
      bit_exact ? "yes" : "NO");
  for (const std::string& f : failures) {
    std::printf("FAIL %s\n", f.c_str());
  }
  return failures.empty() ? 0 : 1;
}
