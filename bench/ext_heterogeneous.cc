// Extension: heterogeneous tables and DPU allocation policies.
//
// The paper's evaluation duplicates one dataset into 8 identical EMTs
// and splits the 256 DPUs evenly. Production DLRMs mix table sizes and
// pooling factors by orders of magnitude; this bench builds such a
// model (the six Table-1 datasets plus the two trace-study catalogs as
// eight *distinct* tables) and compares DPU allocation policies: the
// paper's even split vs traffic-proportional groups. Exits non-zero
// unless traffic-proportional groups beat the even split on embedding
// us/batch.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "pim/stats_summary.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf(
      "== Extension: heterogeneous tables x DPU allocation policy "
      "==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);

  // Eight genuinely different tables.
  std::vector<trace::DatasetSpec> specs(trace::Table1Workloads().begin(),
                                        trace::Table1Workloads().end());
  auto movie = trace::FindDataset("movie");
  auto twitch = trace::FindDataset("twitch");
  UPDLRM_CHECK(movie.ok() && twitch.ok());
  specs.push_back(*movie);
  specs.push_back(*twitch);

  dlrm::DlrmConfig config;
  config.num_tables = static_cast<std::uint32_t>(specs.size());
  config.embedding_dim = 32;
  config.dense_features = 13;
  for (const auto& spec : specs) {
    config.table_rows.push_back(spec.num_items);
  }

  trace::TraceGeneratorOptions options;
  options.num_samples = scale.num_samples;
  options.seed_override = scale.seed;  // 0 keeps each spec's own seed
  auto trace = trace::GenerateHeterogeneousTrace(specs, options);
  UPDLRM_CHECK_MSG(trace.ok(), trace.status().ToString());

  std::printf("tables: ");
  for (std::uint32_t t = 0; t < config.num_tables; ++t) {
    std::printf("%s(%.1fM rows, red %.0f) ", specs[t].name.c_str(),
                static_cast<double>(specs[t].num_items) / 1e6,
                trace->tables[t].MeasuredAvgReduction());
  }
  std::printf("\n\n");

  struct Policy {
    const char* name;
    partition::DpuAllocationPolicy policy;
  };
  const Policy policies[] = {
      {"equal (paper setup)", partition::DpuAllocationPolicy::kEqual},
      {"proportional to traffic",
       partition::DpuAllocationPolicy::kProportionalTraffic},
  };

  TablePrinter out({"allocation policy", "Nc*", "largest group",
                    "smallest group", "stage2 (us/batch)",
                    "stage2 imbalance", "embedding (us/batch)"});
  double equal_emb = 0.0;
  double traffic_emb = 0.0;
  for (const Policy& policy : policies) {
    auto system = bench::MakePaperSystem();
    core::EngineOptions engine_options = bench::PaperEngineOptions(
        partition::Method::kNonUniform, 0, scale);
    engine_options.allocation = policy.policy;
    auto engine = core::UpDlrmEngine::Create(nullptr, config, *trace,
                                             system.get(), engine_options);
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
    auto report = (*engine)->RunAll(nullptr);
    UPDLRM_CHECK_MSG(report.ok(), report.status().ToString());

    std::uint32_t largest = 0;
    std::uint32_t smallest = ~0u;
    for (const auto& group : (*engine)->groups()) {
      largest = std::max(largest, group.plan.geom.dpus_per_table);
      smallest = std::min(smallest, group.plan.geom.dpus_per_table);
    }
    const auto batches = static_cast<double>(report->num_batches);
    const auto summary = pim::SummarizeStats(*system);
    const double emb = report->EmbeddingTotal() / batches;
    if (policy.policy == partition::DpuAllocationPolicy::kEqual) {
      equal_emb = emb;
    } else {
      traffic_emb = emb;
    }
    out.AddRow({policy.name, std::to_string((*engine)->nc()),
                std::to_string(largest) + " DPUs",
                std::to_string(smallest) + " DPUs",
                TablePrinter::FmtMicros(
                    report->stages.dpu_lookup / batches, 0),
                TablePrinter::Fmt(summary.cycle_imbalance, 2),
                TablePrinter::FmtMicros(emb, 0) + " (" +
                    TablePrinter::FmtSpeedup(equal_emb / emb) + ")"});
  }
  out.Print(std::cout);
  std::printf(
      "\nwith mixed tables the even split leaves the hottest table's "
      "group as the stage-2 straggler; traffic-proportional groups "
      "equalize per-DPU work across tables\n");
  if (traffic_emb >= equal_emb) {
    std::printf("FAIL traffic-proportional groups do not beat the even "
                "split on embedding us/batch\n");
    return 1;
  }
  return 0;
}
