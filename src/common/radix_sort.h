// Stable LSD radix sorts for the host runtime's index-sort hot spots.
//
// The setup phase sorts large index arrays by numeric keys
// (trace/generator.cc's rank shuffle, trace/profiler.cc's
// frequency-descending item order) and the GRACE miner sorts its pair
// keys (cache/grace.cc). All of them are stable sorts by a 64- or
// 32-bit key, which an LSD radix sort reproduces *exactly*: radix by
// ascending key with stable per-digit scatter yields the same
// permutation as std::stable_sort with the corresponding comparator
// (pinned by tests/common/simd_test.cc), while running in O(n) passes
// instead of O(n log n) comparisons.
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

// Scatter passes for a Key of kDigitBits-wide digits.
template <typename Key, int kDigitBits>
constexpr std::size_t kPassCount = sizeof(Key) * 8 / kDigitBits;

// Digit histograms for every pass in one scan. uint32 counters cap the
// sort at 2^32-1 elements — far above any table/trace here.
template <int kDigitBits, typename Key>
void Histograms(const Key* keys, std::size_t n, std::uint32_t* hist) {
  constexpr std::size_t kPasses = kPassCount<Key, kDigitBits>;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr Key kMask = kBuckets - 1;
  std::memset(hist, 0, kPasses * kBuckets * sizeof(std::uint32_t));
  for (std::size_t i = 0; i < n; ++i) {
    const Key k = keys[i];
    for (std::size_t p = 0; p < kPasses; ++p) {
      ++hist[p * kBuckets + ((k >> (kDigitBits * p)) & kMask)];
    }
  }
}

// One stable counting-scatter pass per non-constant digit. Payload may
// be null (bare value sort). Returns the buffer currently holding the
// sorted data (keys or key_tmp; ids mirrors the same side).
template <int kDigitBits, typename Key, typename Index>
Key* Passes(Key* keys, Key* key_tmp, Index* ids, Index* id_tmp,
            std::size_t n, std::uint32_t* hist, std::uint32_t* offset) {
  constexpr std::size_t kPasses = kPassCount<Key, kDigitBits>;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr Key kMask = kBuckets - 1;
  Key* src_k = keys;
  Key* dst_k = key_tmp;
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
    if (ids != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        const Key k = src_k[i];
        const std::uint32_t slot = offset[(k >> shift) & kMask]++;
        dst_k[slot] = k;
        dst_i[slot] = src_i[i];
      }
      std::swap(src_i, dst_i);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const Key k = src_k[i];
        dst_k[offset[(k >> shift) & kMask]++] = k;
      }
    }
    std::swap(src_k, dst_k);
  }
  if (ids != nullptr && src_i != ids) {
    std::memcpy(ids, src_i, n * sizeof(Index));
  }
  return src_k;
}

template <int kDigitBits, typename Key, typename Index>
void SortImpl(Key* keys, Key* key_tmp, Index* ids, Index* id_tmp,
              std::size_t n) {
  constexpr std::size_t kPasses = kPassCount<Key, kDigitBits>;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  std::vector<std::uint32_t> hist(kPasses * kBuckets);
  std::vector<std::uint32_t> offset(kBuckets);
  Histograms<kDigitBits>(keys, n, hist.data());
  Key* sorted = Passes<kDigitBits>(keys, key_tmp, ids, id_tmp, n,
                                   hist.data(), offset.data());
  if (sorted != keys) {
    std::memcpy(keys, sorted, n * sizeof(Key));
  }
}

template <typename Key, typename Index>
void Dispatch(Key* keys, Key* key_tmp, Index* ids, Index* id_tmp,
              std::size_t n) {
  if (n >= kWideDigitThreshold) {
    SortImpl<16>(keys, key_tmp, ids, id_tmp, n);
  } else {
    SortImpl<8>(keys, key_tmp, ids, id_tmp, n);
  }
}

}  // namespace radix_internal

/// Stably sorts `ids` so that keys[i] (the key belonging to ids[i] at
/// call time) is ascending; equal keys keep their relative id order.
/// `keys` is consumed (permuted alongside ids). Both spans must have
/// the same size.
template <typename Index>
void StableRadixSortIdsByKey(std::span<Index> ids,
                             std::span<std::uint64_t> keys) {
  const std::size_t n = ids.size();
  if (n < 2) return;
  std::vector<std::uint64_t> key_tmp(n);
  std::vector<Index> id_tmp(n);
  radix_internal::Dispatch(keys.data(), key_tmp.data(), ids.data(),
                           id_tmp.data(), n);
}

/// Sorts `keys` ascending in place (values, no payload). `scratch` is
/// resized as needed and reusable across calls — pass a persistent
/// buffer to amortize.
inline void RadixSortU64(std::span<std::uint64_t> keys,
                         std::vector<std::uint64_t>& scratch) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  if (scratch.size() < n) scratch.resize(n);
  radix_internal::Dispatch<std::uint64_t, std::uint32_t>(
      keys.data(), scratch.data(), nullptr, nullptr, n);
}

/// RadixSortU64 for 32-bit keys: half the bytes per pass, and half the
/// passes (2 with 16-bit digits, 4 with 8-bit).
inline void RadixSortU32(std::span<std::uint32_t> keys,
                         std::vector<std::uint32_t>& scratch) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  if (scratch.size() < n) scratch.resize(n);
  radix_internal::Dispatch<std::uint32_t, std::uint32_t>(
      keys.data(), scratch.data(), nullptr, nullptr, n);
}

}  // namespace updlrm
