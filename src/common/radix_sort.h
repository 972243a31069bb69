// Stable LSD radix sort for the host runtime's index-sort hot spots.
//
// The setup phase sorts large index arrays by numeric keys
// (trace/generator.cc's rank shuffle, trace/profiler.cc's
// frequency-descending item order, cache/grace.cc's edge order). All
// of them are stable sorts of ids by a 64-bit key, which an LSD radix
// sort reproduces *exactly*: radix by ascending key with stable
// per-digit scatter yields the same permutation as std::stable_sort
// with the corresponding comparator (pinned by
// tests/common/simd_test.cc), while running in O(n) passes instead of
// O(n log n) comparisons.
//
// Key transforms (total orders mapped onto ascending u64):
//   * non-negative doubles: the IEEE-754 bit pattern of d >= 0.0 is
//     monotone in d, so bit_cast<u64>(d) sorts ascending-by-value;
//   * descending u64: ~v sorts ascending exactly where v sorts
//     descending.
//
// Digit width adapts to n: large arrays use 16-bit digits (4 scatter
// passes over the data), small ones 8-bit digits (8 cheaper passes,
// 256-entry histograms). Passes whose digit is constant across all
// keys are skipped (one histogram scan detects them), so
// nearly-narrow keys pay only for the bytes that vary.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace updlrm {

inline std::uint64_t AscendingKeyFromNonNegativeDouble(double d) {
  return std::bit_cast<std::uint64_t>(d);
}

inline std::uint64_t AscendingKeyFromDescendingU64(std::uint64_t v) {
  return ~v;
}

namespace radix_internal {

// 16-bit digits pay one 256 KiB histogram zeroing up front; worth it
// from roughly this many elements (half the scatter passes of 8-bit).
constexpr std::size_t kWideDigitThreshold = 1u << 16;

// Scatter passes over a u64 key of kDigitBits-wide digits.
template <int kDigitBits>
constexpr std::size_t kPassCount = 64 / kDigitBits;

// Digit histograms for every pass in one scan. uint32 counters cap the
// sort at 2^32-1 elements — far above any table/trace here.
template <int kDigitBits>
void Histograms(const std::uint64_t* keys, std::size_t n,
                std::uint32_t* hist) {
  constexpr std::size_t kPasses = kPassCount<kDigitBits>;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr std::uint64_t kMask = kBuckets - 1;
  std::memset(hist, 0, kPasses * kBuckets * sizeof(std::uint32_t));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    for (std::size_t p = 0; p < kPasses; ++p) {
      ++hist[p * kBuckets + ((k >> (kDigitBits * p)) & kMask)];
    }
  }
}

// One stable counting-scatter pass per non-constant digit, permuting
// keys and ids together. Leaves the sorted ids in `ids`.
template <int kDigitBits, typename Index>
void Passes(std::uint64_t* keys, std::uint64_t* key_tmp, Index* ids,
            Index* id_tmp, std::size_t n, std::uint32_t* hist,
            std::uint32_t* offset) {
  constexpr std::size_t kPasses = kPassCount<kDigitBits>;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr std::uint64_t kMask = kBuckets - 1;
  std::uint64_t* src_k = keys;
  std::uint64_t* dst_k = key_tmp;
  Index* src_i = ids;
  Index* dst_i = id_tmp;
  for (std::size_t p = 0; p < kPasses; ++p) {
    const std::uint32_t* h = hist + p * kBuckets;
    // Constant digit: the pass is the identity permutation.
    bool trivial = false;
    for (std::size_t d = 0; d < kBuckets; ++d) {
      if (h[d] == n) {
        trivial = true;
        break;
      }
      if (h[d] != 0) break;
    }
    if (trivial) continue;

    std::uint32_t sum = 0;
    for (std::size_t d = 0; d < kBuckets; ++d) {
      offset[d] = sum;
      sum += h[d];
    }
    const std::size_t shift = kDigitBits * p;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = src_k[i];
      const std::uint32_t slot = offset[(k >> shift) & kMask]++;
      dst_k[slot] = k;
      dst_i[slot] = src_i[i];
    }
    std::swap(src_k, dst_k);
    std::swap(src_i, dst_i);
  }
  if (src_i != ids) std::memcpy(ids, src_i, n * sizeof(Index));
}

template <int kDigitBits, typename Index>
void SortImpl(std::uint64_t* keys, std::uint64_t* key_tmp, Index* ids,
              Index* id_tmp, std::size_t n) {
  constexpr std::size_t kPasses = kPassCount<kDigitBits>;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  std::vector<std::uint32_t> hist(kPasses * kBuckets);
  std::vector<std::uint32_t> offset(kBuckets);
  Histograms<kDigitBits>(keys, n, hist.data());
  Passes<kDigitBits>(keys, key_tmp, ids, id_tmp, n, hist.data(),
                     offset.data());
}

}  // namespace radix_internal

/// Stably sorts `ids` so that keys[i] (the key belonging to ids[i] at
/// call time) is ascending; equal keys keep their relative id order.
/// `keys` is consumed (left permuted, not necessarily sorted). Both
/// spans must have the same size.
template <typename Index>
void StableRadixSortIdsByKey(std::span<Index> ids,
                             std::span<std::uint64_t> keys) {
  const std::size_t n = ids.size();
  if (n < 2) return;
  std::vector<std::uint64_t> key_tmp(n);
  std::vector<Index> id_tmp(n);
  if (n >= radix_internal::kWideDigitThreshold) {
    radix_internal::SortImpl<16>(keys.data(), key_tmp.data(), ids.data(),
                                 id_tmp.data(), n);
  } else {
    radix_internal::SortImpl<8>(keys.data(), key_tmp.data(), ids.data(),
                                id_tmp.data(), n);
  }
}

}  // namespace updlrm
