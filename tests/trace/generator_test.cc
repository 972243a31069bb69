#include "trace/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "trace/profiler.h"

namespace updlrm::trace {
namespace {

DatasetSpec SmallSpec() {
  DatasetSpec spec;
  spec.name = "small";
  spec.full_name = "small test dataset";
  spec.num_items = 10'000;
  spec.avg_reduction = 20.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.5;
  spec.num_hot_items = 256;
  spec.seed = 99;
  return spec;
}

TraceGeneratorOptions SmallOptions() {
  TraceGeneratorOptions options;
  options.num_samples = 600;
  options.num_tables = 2;
  return options;
}

TEST(GeneratorTest, ProducesValidTrace) {
  TraceGenerator gen(SmallSpec());
  auto trace = gen.Generate(SmallOptions());
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace->Validate().ok());
  EXPECT_EQ(trace->num_samples(), 600u);
  EXPECT_EQ(trace->num_tables(), 2u);
  EXPECT_EQ(trace->num_items, 10'000u);
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  TraceGenerator gen(SmallSpec());
  auto a = gen.Generate(SmallOptions());
  auto b = gen.Generate(SmallOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  for (std::uint32_t t = 0; t < 2; ++t) {
    ASSERT_EQ(a->tables[t].num_lookups(), b->tables[t].num_lookups());
    EXPECT_TRUE(std::equal(a->tables[t].indices().begin(),
                           a->tables[t].indices().end(),
                           b->tables[t].indices().begin()));
  }
}

TEST(GeneratorTest, SeedOverrideChangesTrace) {
  TraceGenerator gen(SmallSpec());
  auto a = gen.Generate(SmallOptions());
  TraceGeneratorOptions other = SmallOptions();
  other.seed_override = 12345;
  auto b = gen.Generate(other);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->tables[0].num_lookups(), b->tables[0].num_lookups());
}

TEST(GeneratorTest, TablesAreIndependent) {
  TraceGenerator gen(SmallSpec());
  auto trace = gen.Generate(SmallOptions());
  ASSERT_TRUE(trace.ok());
  EXPECT_FALSE(std::equal(trace->tables[0].indices().begin(),
                          trace->tables[0].indices().end(),
                          trace->tables[1].indices().begin(),
                          trace->tables[1].indices().end()));
}

TEST(GeneratorTest, AvgReductionNearTarget) {
  TraceGenerator gen(SmallSpec());
  auto trace = gen.Generate(SmallOptions());
  ASSERT_TRUE(trace.ok());
  const double measured = trace->tables[0].MeasuredAvgReduction();
  EXPECT_NEAR(measured, 20.0, 20.0 * 0.25);
}

TEST(GeneratorTest, SamplesAreSortedUnique) {
  TraceGenerator gen(SmallSpec());
  auto trace = gen.Generate(SmallOptions());
  ASSERT_TRUE(trace.ok());
  for (std::size_t s = 0; s < 50; ++s) {
    const auto sample = trace->tables[0].Sample(s);
    EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
    EXPECT_EQ(std::adjacent_find(sample.begin(), sample.end()),
              sample.end());
  }
}

TEST(GeneratorTest, SkewedSpecProducesSkewedFrequencies) {
  DatasetSpec spec = SmallSpec();
  spec.zipf_alpha = 1.1;
  spec.rank_jitter = 0.05;
  TraceGenerator gen(spec);
  auto trace = gen.Generate(SmallOptions());
  ASSERT_TRUE(trace.ok());
  const auto freq = ItemFrequencies(trace->tables[0], spec.num_items);
  const auto blocks = RowBlockCounts(freq, 8);
  const auto skew = AnalyzeSkew(blocks);
  EXPECT_GT(skew.imbalance, 2.0);
}

TEST(GeneratorTest, BalancedSyntheticIsFlat) {
  const DatasetSpec spec = MakeBalancedSyntheticSpec(10'000, 30.0);
  TraceGenerator gen(spec);
  TraceGeneratorOptions options;
  options.num_samples = 2'000;
  options.num_tables = 1;
  auto trace = gen.Generate(options);
  ASSERT_TRUE(trace.ok());
  const auto freq = ItemFrequencies(trace->tables[0], spec.num_items);
  const auto blocks = RowBlockCounts(freq, 8);
  const auto skew = AnalyzeSkew(blocks);
  EXPECT_LT(skew.imbalance, 1.1);
  EXPECT_LT(skew.max_min_ratio, 1.2);
}

TEST(GeneratorTest, DuplicateRateMatchesZipfSkew) {
  // The WRAM hot-row tier's payoff rides on cross-sample duplication,
  // so the generator must reproduce the duplication a Zipf(α) stream
  // implies. With cliques and jitter off, a sample of m distinct items
  // behaves like independent Zipf draws repeated until m distinct
  // values appear (duplicates within a sample are redrawn). Solve
  // Σ_r (1 − (1 − p_r)^D) = m for the effective per-sample draw count
  // D, then the expected distinct-item count over S samples is
  // Σ_r (1 − (1 − p_r)^(S·D)).
  for (double alpha : {0.8, 1.0, 1.2}) {
    DatasetSpec spec = SmallSpec();
    spec.num_items = 2'000;
    spec.avg_reduction = 10.0;
    spec.zipf_alpha = alpha;
    spec.rank_jitter = 0.0;
    spec.clique_prob = 0.0;
    TraceGenerator gen(spec);
    TraceGeneratorOptions options;
    options.num_samples = 400;
    options.num_tables = 1;
    auto trace = gen.Generate(options);
    ASSERT_TRUE(trace.ok());

    const auto freq = ItemFrequencies(trace->tables[0], spec.num_items);
    const double refs =
        static_cast<double>(trace->tables[0].num_lookups());
    const double measured_unique = static_cast<double>(
        std::count_if(freq.begin(), freq.end(),
                      [](std::uint64_t f) { return f > 0; }));

    const ZipfSampler zipf(spec.num_items, alpha);
    const auto expected_distinct = [&](double draws) {
      double sum = 0.0;
      for (std::uint64_t r = 0; r < spec.num_items; ++r) {
        sum += 1.0 - std::pow(1.0 - zipf.Probability(r), draws);
      }
      return sum;
    };
    // Effective independent draws per sample: binary search D so that
    // E[distinct after D draws] equals the mean sample size.
    const double mean_m = refs / static_cast<double>(options.num_samples);
    double lo = mean_m, hi = 64.0 * mean_m;
    for (int it = 0; it < 60; ++it) {
      const double mid = 0.5 * (lo + hi);
      (expected_distinct(mid) < mean_m ? lo : hi) = mid;
    }
    const double expected_unique =
        expected_distinct(0.5 * (lo + hi) *
                          static_cast<double>(options.num_samples));
    EXPECT_NEAR(measured_unique, expected_unique, expected_unique * 0.15)
        << "alpha " << alpha;
  }
}

TEST(GeneratorTest, DuplicateRateGrowsWithSkew) {
  // More skew concentrates references on fewer rows: the cross-sample
  // duplicate share 1 - unique/refs must rise monotonically with α.
  double prev_dup_rate = -1.0;
  for (double alpha : {0.4, 0.9, 1.4}) {
    DatasetSpec spec = SmallSpec();
    spec.num_items = 2'000;
    spec.avg_reduction = 10.0;
    spec.zipf_alpha = alpha;
    spec.rank_jitter = 0.0;
    spec.clique_prob = 0.0;
    TraceGenerator gen(spec);
    TraceGeneratorOptions options;
    options.num_samples = 400;
    options.num_tables = 1;
    auto trace = gen.Generate(options);
    ASSERT_TRUE(trace.ok());
    const auto freq = ItemFrequencies(trace->tables[0], spec.num_items);
    const double refs =
        static_cast<double>(trace->tables[0].num_lookups());
    const double unique = static_cast<double>(
        std::count_if(freq.begin(), freq.end(),
                      [](std::uint64_t f) { return f > 0; }));
    const double dup_rate = 1.0 - unique / refs;
    EXPECT_GT(dup_rate, prev_dup_rate) << "alpha " << alpha;
    prev_dup_rate = dup_rate;
  }
}

TEST(GeneratorTest, CliqueModelDeterministicAndDisjoint) {
  TraceGenerator gen(SmallSpec());
  const CliqueModel a = gen.BuildCliqueModel(0, SmallOptions());
  const CliqueModel b = gen.BuildCliqueModel(0, SmallOptions());
  ASSERT_EQ(a.cliques.size(), b.cliques.size());
  ASSERT_FALSE(a.cliques.empty());
  std::vector<std::uint32_t> all;
  for (std::size_t i = 0; i < a.cliques.size(); ++i) {
    EXPECT_EQ(a.cliques[i], b.cliques[i]);
    EXPECT_GE(a.cliques[i].size(), 2u);
    EXPECT_LE(a.cliques[i].size(), 4u);
    all.insert(all.end(), a.cliques[i].begin(), a.cliques[i].end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

TEST(GeneratorTest, CliquesActuallyCoOccur) {
  // Planted cliques must appear together far more often than chance:
  // count samples containing every member of some clique.
  DatasetSpec spec = SmallSpec();
  spec.clique_prob = 0.7;
  TraceGenerator gen(spec);
  auto trace = gen.Generate(SmallOptions());
  ASSERT_TRUE(trace.ok());
  const CliqueModel model = gen.BuildCliqueModel(0, SmallOptions());
  ASSERT_FALSE(model.cliques.empty());
  const auto& clique = model.cliques.front();  // hottest clique
  std::size_t together = 0;
  for (std::size_t s = 0; s < trace->num_samples(); ++s) {
    const auto sample = trace->tables[0].Sample(s);
    bool all = true;
    for (std::uint32_t item : clique) {
      if (!std::binary_search(sample.begin(), sample.end(), item)) {
        all = false;
        break;
      }
    }
    if (all) ++together;
  }
  EXPECT_GT(together, trace->num_samples() / 20);
}

TEST(GeneratorTest, RejectsInvalidOptions) {
  TraceGenerator gen(SmallSpec());
  TraceGeneratorOptions options;
  options.num_samples = 0;
  EXPECT_FALSE(gen.Generate(options).ok());
  options.num_samples = 10;
  options.num_tables = 0;
  EXPECT_FALSE(gen.Generate(options).ok());
}

TEST(GeneratorTest, RejectsInvalidSpec) {
  DatasetSpec spec = SmallSpec();
  spec.avg_reduction = 0.0;
  TraceGenerator gen(spec);
  EXPECT_FALSE(gen.Generate(SmallOptions()).ok());
}

TEST(GeneratorTest, TinySupportClampsReduction) {
  DatasetSpec spec = SmallSpec();
  spec.num_items = 8;  // fewer items than avg_reduction
  spec.num_hot_items = 4;
  TraceGenerator gen(spec);
  TraceGeneratorOptions options;
  options.num_samples = 50;
  options.num_tables = 1;
  auto trace = gen.Generate(options);
  ASSERT_TRUE(trace.ok());
  for (std::size_t s = 0; s < trace->num_samples(); ++s) {
    EXPECT_LE(trace->tables[0].Sample(s).size(), 8u);
    EXPECT_GE(trace->tables[0].Sample(s).size(), 1u);
  }
}

}  // namespace
}  // namespace updlrm::trace
