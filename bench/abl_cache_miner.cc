// Ablation: cache-list generators (the "any caching technique" claim).
//
// §5: "although we adopt GRACE to generate cache lists in this paper,
// UpDLRM does not rely on GRACE and can work with any other caching
// technique." This ablation swaps the generator and measures what the
// cache-aware pipeline gets out of each on GoodReads:
//   * GRACE-style co-occurrence mining (the paper's choice);
//   * frequency-rank pairing (popularity only, no co-occurrence);
//   * no caching (non-uniform partitioning).
// Exits non-zero unless embedding us/batch is ordered
// GRACE < frequency pairs < none.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "cache/freq_pairs.h"
#include "cache/grace.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf(
      "== Ablation: cache-list generator (GoodReads, CA, Nc=8) ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);

  auto spec = trace::FindDataset("read");
  UPDLRM_CHECK(spec.ok());
  const bench::Workload w = bench::PrepareWorkload(*spec, scale);

  auto run = [&](const char* /*name*/,
                 const std::vector<cache::CacheRes>* premined,
                 partition::Method method) {
    auto system = bench::MakePaperSystem();
    core::EngineOptions options =
        bench::PaperEngineOptions(method, 8, scale);
    options.premined_cache = premined;
    auto engine = core::UpDlrmEngine::Create(nullptr, w.config, w.trace,
                                             system.get(), options);
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
    auto report = (*engine)->RunAll(nullptr);
    UPDLRM_CHECK_MSG(report.ok(), report.status().ToString());
    std::size_t lists = 0;
    for (const auto& group : (*engine)->groups()) {
      lists += group.plan.cache.lists.size();
    }
    return std::make_tuple(
        report->stages.dpu_lookup /
            static_cast<double>(report->num_batches),
        report->EmbeddingTotal() /
            static_cast<double>(report->num_batches),
        lists);
  };

  // Mine both generators once per table.
  std::vector<cache::CacheRes> grace_lists;
  std::vector<cache::CacheRes> pair_lists;
  cache::GraceMiner grace;
  cache::FreqPairMiner pairs;
  for (std::uint32_t t = 0; t < w.config.num_tables; ++t) {
    auto g = grace.Mine(w.trace.tables[t], w.config.rows_per_table);
    auto p = pairs.Mine(w.trace.tables[t], w.config.rows_per_table);
    UPDLRM_CHECK(g.ok() && p.ok());
    grace_lists.push_back(std::move(g).value());
    pair_lists.push_back(std::move(p).value());
  }

  const auto [nu_lookup, nu_emb, nu_lists] =
      run("none", nullptr, partition::Method::kNonUniform);
  const auto [pair_lookup, pair_emb, pair_count] =
      run("pairs", &pair_lists, partition::Method::kCacheAware);
  const auto [grace_lookup, grace_emb, grace_count] =
      run("grace", &grace_lists, partition::Method::kCacheAware);

  TablePrinter out({"cache-list generator", "lists (8 tables)",
                    "lookup (us/batch)", "lookup cut",
                    "embedding (us/batch)"});
  out.AddRow({"none (NU)", "0", TablePrinter::FmtMicros(nu_lookup, 0),
              "-", TablePrinter::FmtMicros(nu_emb, 0)});
  out.AddRow({"frequency pairs (popularity only)",
              TablePrinter::Fmt(static_cast<std::uint64_t>(pair_count)),
              TablePrinter::FmtMicros(pair_lookup, 0),
              TablePrinter::FmtPercent(1.0 - pair_lookup / nu_lookup, 1),
              TablePrinter::FmtMicros(pair_emb, 0)});
  out.AddRow({"GRACE-style co-occurrence",
              TablePrinter::Fmt(static_cast<std::uint64_t>(grace_count)),
              TablePrinter::FmtMicros(grace_lookup, 0),
              TablePrinter::FmtPercent(1.0 - grace_lookup / nu_lookup, 1),
              TablePrinter::FmtMicros(grace_emb, 0)});
  out.Print(std::cout);
  std::printf(
      "\nany generator plugs into Algorithm 1 via CacheRes; "
      "co-occurrence awareness is what makes the partial sums hit\n");
  if (!(grace_emb < pair_emb && pair_emb < nu_emb)) {
    std::printf("FAIL embedding us/batch is not ordered GRACE < "
                "frequency pairs < none\n");
    return 1;
  }
  return 0;
}
