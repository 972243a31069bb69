// Randomized property tests for the vectorized host-runtime kernels
// (common/simd.h): the AVX2 and scalar paths must produce identical
// bytes on identical inputs — the bit-exactness contract that lets the
// engine vectorize its pooled-sum and scan loops without perturbing
// determinism_test. Also pins the radix sorts (common/radix_sort.h)
// against their std::stable_sort / std::sort references, including the
// 16-bit-digit path engaged above 64 Ki elements.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/radix_sort.h"
#include "common/rng.h"
#include "common/simd.h"

namespace updlrm {
namespace {

// Sizes straddling every vector-width boundary: empty, sub-lane, exact
// multiples, one-over, and a large tail-heavy case.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                              31, 32, 33, 63, 64, 65, 100, 1000, 4097};

// Runs `fn` once on the scalar path and once on the dispatched (AVX2
// when available) path. When the build or CPU is scalar-only both runs
// take the same path and the comparison is vacuous but harmless.
template <typename Fn>
void OnBothPaths(Fn&& fn) {
  simd::ForceScalar(true);
  ASSERT_FALSE(simd::UsingAvx2());
  fn(/*scalar=*/true);
  simd::ForceScalar(false);
  fn(/*scalar=*/false);
}

class SimdTest : public ::testing::Test {
 protected:
  // Every test restores CPUID dispatch regardless of outcome.
  void TearDown() override { simd::ForceScalar(false); }
};

TEST_F(SimdTest, ForceScalarOverridesDispatch) {
  const bool avx2 = simd::Avx2Available();
  EXPECT_EQ(simd::UsingAvx2(), avx2);
  simd::ForceScalar(true);
  EXPECT_FALSE(simd::UsingAvx2());
  EXPECT_EQ(simd::Avx2Available(), avx2);  // availability is static
  simd::ForceScalar(false);
  EXPECT_EQ(simd::UsingAvx2(), avx2);
}

TEST_F(SimdTest, AddI32ToI64MatchesScalar) {
  Rng rng(1);
  for (const std::size_t n : kSizes) {
    std::vector<std::int32_t> src(n);
    std::vector<std::int64_t> init(n);
    for (std::size_t i = 0; i < n; ++i) {
      src[i] = static_cast<std::int32_t>(rng.NextU64());
      init[i] = static_cast<std::int64_t>(rng.NextU64());
    }
    std::vector<std::int64_t> scalar = init;
    std::vector<std::int64_t> vec = init;
    simd::ForceScalar(true);
    simd::AddI32ToI64(src.data(), scalar.data(), n);
    simd::ForceScalar(false);
    simd::AddI32ToI64(src.data(), vec.data(), n);
    ASSERT_EQ(scalar, vec) << "n=" << n;
  }
}

TEST_F(SimdTest, AddScaledF32BitExactAcrossPaths) {
  // The batched-MLP axpy: both legs must produce identical float bits
  // (one un-fused mul + add per lane — the dlrm/batched.h contract).
  Rng rng(7);
  for (const std::size_t n : kSizes) {
    std::vector<float> col(n);
    std::vector<float> init(n);
    for (std::size_t i = 0; i < n; ++i) {
      col[i] = static_cast<float>(rng.NextDouble()) * 4.0f - 2.0f;
      init[i] = static_cast<float>(rng.NextDouble()) * 4.0f - 2.0f;
    }
    const float x = static_cast<float>(rng.NextDouble()) * 2.0f - 1.0f;
    std::vector<float> scalar = init;
    std::vector<float> vec = init;
    simd::ForceScalar(true);
    simd::AddScaledF32(col.data(), x, scalar.data(), n);
    simd::ForceScalar(false);
    simd::AddScaledF32(col.data(), x, vec.data(), n);
    // An empty vector's data() may be null, which memcmp must not see.
    if (n > 0) {
      ASSERT_EQ(0, std::memcmp(scalar.data(), vec.data(), n * sizeof(float)))
          << "n=" << n;
    }
    // And against the literal reference loop.
    for (std::size_t i = 0; i < n; ++i) {
      const float expect = init[i] + col[i] * x;
      ASSERT_EQ(scalar[i], expect) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(SimdTest, ScanKernelsMatchScalar) {
  Rng rng(3);
  for (const std::size_t n : kSizes) {
    std::vector<std::uint64_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix of zeros, repeats of one value, and arbitrary magnitudes —
      // the shapes the transfer scans actually see.
      switch (rng.NextU64() % 4) {
        case 0: v[i] = 0; break;
        case 1: v[i] = 4096; break;
        case 2: v[i] = rng.NextU64() % 100; break;
        default: v[i] = rng.NextU64(); break;
      }
    }
    std::uint64_t ref_max = 0, ref_sum = 0;
    for (const std::uint64_t x : v) {
      ref_max = std::max(ref_max, x);
      ref_sum += x;  // wrapping, same as the kernel
    }
    OnBothPaths([&](bool scalar) {
      ASSERT_EQ(simd::MaxU64(v.data(), n), ref_max)
          << "n=" << n << " scalar=" << scalar;
      ASSERT_EQ(simd::SumU64(v.data(), n), ref_sum)
          << "n=" << n << " scalar=" << scalar;
      for (const std::uint64_t probe : {std::uint64_t{0},
                                        std::uint64_t{4096}, ref_max}) {
        bool ref_eq = true;
        for (const std::uint64_t x : v) {
          ref_eq = ref_eq && (x == 0 || x == probe);
        }
        ASSERT_EQ(simd::AllZeroOrEqualU64(v.data(), n, probe), ref_eq)
            << "n=" << n << " probe=" << probe << " scalar=" << scalar;
      }
    });
  }
}

TEST_F(SimdTest, PackPaddedMatchesScalar) {
  Rng rng(4);
  for (const std::size_t src_bytes : kSizes) {
    for (const std::size_t pad : {std::size_t{0}, std::size_t{1},
                                  std::size_t{13}, std::size_t{64}}) {
      const std::size_t dst_bytes = src_bytes + pad;
      std::vector<std::uint8_t> src(src_bytes);
      for (auto& b : src) b = static_cast<std::uint8_t>(rng.NextU64());
      // Poisoned destinations: stale bytes must be fully overwritten.
      std::vector<std::uint8_t> scalar(dst_bytes, 0xAB);
      std::vector<std::uint8_t> vec(dst_bytes, 0xCD);
      simd::ForceScalar(true);
      simd::PackPadded(src.data(), src_bytes, scalar.data(), dst_bytes);
      simd::ForceScalar(false);
      simd::PackPadded(src.data(), src_bytes, vec.data(), dst_bytes);
      ASSERT_EQ(scalar, vec) << src_bytes << "+" << pad;
      ASSERT_TRUE(std::equal(src.begin(), src.end(), scalar.begin()));
      for (std::size_t i = src_bytes; i < dst_bytes; ++i) {
        ASSERT_EQ(scalar[i], 0u) << "pad byte " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Radix sorts vs the std references they replaced.
// ---------------------------------------------------------------------

TEST(RadixSortTest, KeyMappingsPreserveOrder) {
  // Non-negative doubles: IEEE-754 bit patterns order like the values.
  const double doubles[] = {0.0, 1e-300, 0.25, 0.5, 1.0, 3.14, 1e300};
  for (std::size_t i = 0; i + 1 < std::size(doubles); ++i) {
    EXPECT_LT(AscendingKeyFromNonNegativeDouble(doubles[i]),
              AscendingKeyFromNonNegativeDouble(doubles[i + 1]));
  }
  // Descending u64: complement flips the order.
  EXPECT_LT(AscendingKeyFromDescendingU64(10), AscendingKeyFromDescendingU64(3));
  EXPECT_EQ(AscendingKeyFromDescendingU64(AscendingKeyFromDescendingU64(7)),
            std::uint64_t{7});
}

TEST(RadixSortTest, MatchesStableSortBothDigitWidths) {
  // 100 exercises the 8-bit-digit path, 70'000 the 16-bit path (the
  // kWideDigitThreshold = 64 Ki switch).
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{100}, std::size_t{70'000}}) {
    Rng rng(5);
    std::vector<std::uint64_t> keys(n);
    for (auto& k : keys) {
      // Few distinct values: heavy ties make stability observable, and
      // constant high digits exercise the skip-pass fast path.
      k = rng.NextU64() % 97;
    }
    std::vector<std::uint32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);

    std::vector<std::uint32_t> expected = ids;
    const std::vector<std::uint64_t> original_keys = keys;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return original_keys[a] < original_keys[b];
                     });

    StableRadixSortIdsByKey(std::span<std::uint32_t>(ids),
                            std::span<std::uint64_t>(keys));
    ASSERT_EQ(ids, expected) << "n=" << n;
  }
}

TEST(RadixSortTest, FullWidthRandomKeys) {
  // Every digit varies, so no pass is skipped.
  Rng rng(6);
  std::vector<std::uint64_t> keys(4096);
  for (auto& k : keys) k = rng.NextU64();
  std::vector<std::uint32_t> ids(keys.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<std::uint32_t> expected = ids;
  const std::vector<std::uint64_t> original_keys = keys;
  std::sort(expected.begin(), expected.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return original_keys[a] < original_keys[b];
            });
  StableRadixSortIdsByKey(std::span<std::uint32_t>(ids),
                          std::span<std::uint64_t>(keys));
  EXPECT_EQ(ids, expected);
}

}  // namespace
}  // namespace updlrm
