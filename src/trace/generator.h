// Synthetic trace generation.
//
// Produces multi-hot access traces whose statistics match a DatasetSpec:
//   * per-sample reduction ~ Poisson(avg_reduction), clamped to >= 1;
//   * item popularity Zipf(zipf_alpha) over popularity *ranks*;
//   * ranks map to row ids through a "noisy-sort" permutation controlled
//     by rank_jitter, reproducing the id/popularity locality that makes
//     Fig. 5's row-block histogram skewed;
//   * popular items form cliques of 2-4 that co-occur within samples with
//     probability clique_prob — the structure GRACE-style caching mines.
//
// Everything is deterministic given (spec.seed, options).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "trace/dataset.h"
#include "trace/trace.h"

namespace updlrm::trace {

struct TraceGeneratorOptions {
  std::size_t num_samples = 12'800;  // the paper samples 12,800 inferences
  std::uint32_t num_tables = 8;      // the paper duplicates into 8 EMTs
  // When > 0, overrides spec.seed.
  std::uint64_t seed_override = 0;

  // Host threads for per-table generation (0 = default pool,
  // 1 = serial). Tables already draw from independent per-table seed
  // streams, so the generated trace is identical at any thread count.
  std::uint32_t num_threads = 0;
};

/// The planted co-occurrence structure: cliques of item ids (ground truth
/// for testing cache miners) plus the rank->id permutation head.
struct CliqueModel {
  // Each clique lists 2-4 item ids; cliques are disjoint.
  std::vector<std::vector<std::uint32_t>> cliques;
  // clique_of_rank[r] = clique index of popularity rank r, or -1.
  std::vector<std::int32_t> clique_of_rank;
};

/// Heterogeneous workloads: one DatasetSpec per table (real DLRMs mix
/// table sizes and skews; the paper's setup duplicates one dataset).
/// Each table is generated from its own spec with an independent seed
/// stream; options.num_tables is ignored (specs.size() tables).
Result<Trace> GenerateHeterogeneousTrace(
    std::span<const DatasetSpec> specs,
    const TraceGeneratorOptions& options);

class TraceGenerator {
 public:
  explicit TraceGenerator(DatasetSpec spec) : spec_(std::move(spec)) {}

  /// Generates the full trace. Fails if the spec is invalid.
  Result<Trace> Generate(const TraceGeneratorOptions& options) const;

  /// Rebuilds the planted clique model for table `table` (deterministic);
  /// exposed for tests and for the oracle cache generator.
  CliqueModel BuildCliqueModel(std::uint32_t table,
                               const TraceGeneratorOptions& options) const;

  const DatasetSpec& spec() const { return spec_; }

 private:
  // rank -> item id map for one table.
  std::vector<std::uint32_t> BuildRankToId(Rng& rng) const;

  // BuildCliqueModel against a rank map the caller already built (the
  // generator reuses one map per table instead of re-deriving it).
  CliqueModel BuildCliqueModelFromRanks(
      std::uint32_t table, std::uint64_t base_seed,
      std::span<const std::uint32_t> rank_to_id) const;

  DatasetSpec spec_;
};

}  // namespace updlrm::trace
