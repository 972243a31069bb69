#include "trace/generator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/radix_sort.h"
#include "common/thread_pool.h"

namespace updlrm::trace {

namespace {

// Independent, order-insensitive per-table / per-purpose seed streams.
std::uint64_t DeriveSeed(std::uint64_t base, std::uint32_t table,
                         std::uint64_t purpose) {
  std::uint64_t s = base ^ (0x9e3779b97f4a7c15ULL * (table + 1)) ^
                    (0xc2b2ae3d27d4eb4fULL * purpose);
  return SplitMix64(s);
}

constexpr std::uint64_t kPurposePerm = 1;
constexpr std::uint64_t kPurposeClique = 2;
constexpr std::uint64_t kPurposeSamples = 3;

}  // namespace

std::vector<std::uint32_t> TraceGenerator::BuildRankToId(Rng& rng) const {
  const std::uint64_t n = spec_.num_items;
  // "Noisy sort": sort ids by (id + jitter * n * U). jitter == 0 keeps the
  // identity map (ids exactly popularity-ordered); jitter == 1 approaches
  // a uniform random permutation.
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0U);
  if (spec_.rank_jitter <= 0.0) return ids;

  // Keys are non-negative, so their IEEE-754 bit patterns order exactly
  // like the doubles and the stable radix sort reproduces the
  // stable_sort permutation bit for bit (see common/radix_sort.h).
  std::vector<std::uint64_t> keys(n);
  const double noise_scale = spec_.rank_jitter * static_cast<double>(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    keys[i] = AscendingKeyFromNonNegativeDouble(
        static_cast<double>(i) + noise_scale * rng.NextDouble());
  }
  StableRadixSortIdsByKey(std::span<std::uint32_t>(ids),
                          std::span<std::uint64_t>(keys));
  return ids;
}

CliqueModel TraceGenerator::BuildCliqueModel(
    std::uint32_t table, const TraceGeneratorOptions& options) const {
  const std::uint64_t base_seed =
      options.seed_override != 0 ? options.seed_override : spec_.seed;
  Rng perm_rng(DeriveSeed(base_seed, table, kPurposePerm));
  const std::vector<std::uint32_t> rank_to_id = BuildRankToId(perm_rng);
  return BuildCliqueModelFromRanks(table, base_seed, rank_to_id);
}

CliqueModel TraceGenerator::BuildCliqueModelFromRanks(
    std::uint32_t table, std::uint64_t base_seed,
    std::span<const std::uint32_t> rank_to_id) const {
  CliqueModel model;
  const auto num_hot = static_cast<std::uint64_t>(
      std::min<std::uint64_t>(spec_.num_hot_items, spec_.num_items));
  model.clique_of_rank.assign(num_hot, -1);
  if (spec_.clique_prob <= 0.0 || num_hot < 2) return model;

  Rng clique_rng(DeriveSeed(base_seed, table, kPurposeClique));
  std::uint64_t rank = 0;
  while (rank + 1 < num_hot) {
    const std::uint64_t size =
        std::min<std::uint64_t>(2 + clique_rng.NextBounded(3),  // 2..4
                                num_hot - rank);
    if (size < 2) break;
    std::vector<std::uint32_t> clique;
    clique.reserve(size);
    for (std::uint64_t i = 0; i < size; ++i) {
      model.clique_of_rank[rank + i] =
          static_cast<std::int32_t>(model.cliques.size());
      clique.push_back(rank_to_id[rank + i]);
    }
    model.cliques.push_back(std::move(clique));
    rank += size;
  }
  return model;
}

Result<Trace> GenerateHeterogeneousTrace(
    std::span<const DatasetSpec> specs,
    const TraceGeneratorOptions& options) {
  if (specs.empty()) {
    return Status::InvalidArgument("need at least one DatasetSpec");
  }
  // Each spec already owns an independent seed stream, so tables
  // generate in parallel and land in their own slot; results are
  // identical at any thread count.
  std::vector<Status> statuses(specs.size());
  std::vector<Trace> per_spec(specs.size());
  ParallelFor(
      specs.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          TraceGeneratorOptions per_table = options;
          per_table.num_tables = 1;
          // Independent per-table seed streams even when specs share a
          // seed.
          std::uint64_t seed =
              (options.seed_override != 0 ? options.seed_override
                                          : specs[t].seed) ^
              (0xd1b54a32d192ed03ULL * (t + 1));
          per_table.seed_override = SplitMix64(seed);
          if (per_table.seed_override == 0) per_table.seed_override = 1;
          auto one = TraceGenerator(specs[t]).Generate(per_table);
          if (!one.ok()) {
            statuses[t] = one.status();
            continue;
          }
          per_spec[t] = std::move(one).value();
        }
      },
      options.num_threads);

  Trace trace;
  trace.items_per_table.reserve(specs.size());
  for (std::size_t t = 0; t < specs.size(); ++t) {
    UPDLRM_RETURN_IF_ERROR(statuses[t]);
    trace.tables.push_back(std::move(per_spec[t].tables[0]));
    trace.items_per_table.push_back(specs[t].num_items);
  }
  trace.num_items = 0;
  UPDLRM_RETURN_IF_ERROR(trace.Validate());
  return trace;
}

Result<Trace> TraceGenerator::Generate(
    const TraceGeneratorOptions& options) const {
  UPDLRM_RETURN_IF_ERROR(spec_.Validate());
  if (options.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be > 0");
  }
  if (options.num_tables == 0) {
    return Status::InvalidArgument("num_tables must be > 0");
  }
  const std::uint64_t base_seed =
      options.seed_override != 0 ? options.seed_override : spec_.seed;
  const std::uint64_t n = spec_.num_items;
  const ZipfSampler zipf(n, spec_.zipf_alpha);

  Trace trace;
  trace.num_items = n;
  trace.tables.resize(options.num_tables);

  // Tables draw from independent per-table seed streams (DeriveSeed),
  // so they generate in parallel into disjoint slots with a
  // thread-count-invariant result.
  ParallelFor(
      options.num_tables,
      [&](std::size_t table_begin, std::size_t table_end) {
  for (std::uint32_t t = static_cast<std::uint32_t>(table_begin);
       t < table_end; ++t) {
    Rng perm_rng(DeriveSeed(base_seed, t, kPurposePerm));
    const std::vector<std::uint32_t> rank_to_id = BuildRankToId(perm_rng);
    // Reuse the rank map just built — BuildCliqueModel would re-derive
    // the identical permutation from the same seed stream.
    const CliqueModel cliques =
        BuildCliqueModelFromRanks(t, base_seed, rank_to_id);
    Rng rng(DeriveSeed(base_seed, t, kPurposeSamples));

    // clique index -> its member *ranks*.
    std::vector<std::vector<std::uint32_t>> clique_ranks(
        cliques.cliques.size());
    for (std::uint32_t r = 0; r < cliques.clique_of_rank.size(); ++r) {
      if (cliques.clique_of_rank[r] >= 0) {
        clique_ranks[cliques.clique_of_rank[r]].push_back(r);
      }
    }

    std::vector<std::uint32_t> items;
    for (std::size_t s = 0; s < options.num_samples; ++s) {
      std::uint64_t target =
          std::max<std::uint64_t>(1, rng.NextPoisson(spec_.avg_reduction));
      target = std::min(target, n);

      items.clear();
      // Draw in rounds; sort+unique between rounds keeps multi-hot
      // semantics without per-insert set lookups.
      for (int round = 0; round < 6 && items.size() < target; ++round) {
        const std::size_t need = target - items.size();
        const std::size_t draws = need + need / 4 + 4;
        for (std::size_t d = 0; d < draws && items.size() < target + 8;
             ++d) {
          const std::uint64_t rank = zipf.Sample(rng);
          const bool in_clique =
              rank < cliques.clique_of_rank.size() &&
              cliques.clique_of_rank[rank] >= 0;
          if (in_clique && rng.NextBernoulli(spec_.clique_prob)) {
            for (std::uint32_t member_rank :
                 clique_ranks[cliques.clique_of_rank[rank]]) {
              items.push_back(rank_to_id[member_rank]);
            }
          } else {
            items.push_back(rank_to_id[rank]);
          }
        }
        std::sort(items.begin(), items.end());
        items.erase(std::unique(items.begin(), items.end()), items.end());
      }
      trace.tables[t].AppendSample(items);
    }
  }
      },
      options.num_threads);
  UPDLRM_RETURN_IF_ERROR(trace.Validate());
  return trace;
}

}  // namespace updlrm::trace
