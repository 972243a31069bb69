#include "common/simd.h"

#include <cstdlib>
#include <cstring>

#include "common/status.h"

#if defined(__x86_64__) && !defined(UPDLRM_DISABLE_AVX2)
#define UPDLRM_SIMD_AVX2_BUILD 1
#include <immintrin.h>
#else
#define UPDLRM_SIMD_AVX2_BUILD 0
#endif

namespace updlrm::simd {
namespace {

// ---------------------------------------------------------------------
// Scalar reference implementations. These define the semantics; the
// AVX2 variants must match them bit for bit (pinned by simd_test).
// ---------------------------------------------------------------------

void AddI32ToI64Scalar(const std::int32_t* src, std::int64_t* acc,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += src[i];
}

void AddI64ToI64Scalar(const std::int64_t* src, std::int64_t* acc,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += src[i];
}

void AddScaledF32Scalar(const float* col, float x, float* acc,
                        std::size_t n) {
  // Exactly one IEEE multiply then one IEEE add per element. Neither
  // leg may fuse them into an FMA (different rounding): this TU is
  // compiled for baseline x86-64 (no FMA ISA), and the AVX2 leg's
  // target("avx2") does not enable FMA either, so mul-then-add is what
  // both emit and the results match bit for bit.
  for (std::size_t i = 0; i < n; ++i) {
    const float p = col[i] * x;
    acc[i] = acc[i] + p;
  }
}

std::uint64_t MaxU64Scalar(const std::uint64_t* v, std::size_t n) {
  std::uint64_t m = 0;
  for (std::size_t i = 0; i < n; ++i) m = v[i] > m ? v[i] : m;
  return m;
}

std::uint64_t SumU64Scalar(const std::uint64_t* v, std::size_t n) {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < n; ++i) s += v[i];
  return s;
}

bool AllZeroOrEqualU64Scalar(const std::uint64_t* v, std::size_t n,
                             std::uint64_t value) {
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] != 0 && v[i] != value) return false;
  }
  return true;
}

void PackPaddedScalar(const std::uint8_t* src, std::size_t src_bytes,
                      std::uint8_t* dst, std::size_t dst_bytes) {
  if (src_bytes != 0) std::memcpy(dst, src, src_bytes);
  if (dst_bytes > src_bytes) {
    std::memset(dst + src_bytes, 0, dst_bytes - src_bytes);
  }
}

#if UPDLRM_SIMD_AVX2_BUILD
// ---------------------------------------------------------------------
// AVX2 variants. Compiled with per-function target attributes so the
// rest of the binary needs no -mavx2; reached only when CPUID reports
// AVX2 and no scalar override is active.
// ---------------------------------------------------------------------

__attribute__((target("avx2"))) void AddI32ToI64Avx2(
    const std::int32_t* src, std::int64_t* acc, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i s0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i s1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 4));
    __m256i a0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + 4));
    a0 = _mm256_add_epi64(a0, _mm256_cvtepi32_epi64(s0));
    a1 = _mm256_add_epi64(a1, _mm256_cvtepi32_epi64(s1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + 4), a1);
  }
  for (; i < n; ++i) acc[i] += src[i];
}

__attribute__((target("avx2"))) void AddI64ToI64Avx2(
    const std::int64_t* src, std::int64_t* acc, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i s0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4));
    __m256i a0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + 4));
    a0 = _mm256_add_epi64(a0, s0);
    a1 = _mm256_add_epi64(a1, s1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + 4), a1);
  }
  for (; i < n; ++i) acc[i] += src[i];
}

__attribute__((target("avx2"))) void AddScaledF32Avx2(
    const float* col, float x, float* acc, std::size_t n) {
  const __m256 vx = _mm256_set1_ps(x);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 c = _mm256_loadu_ps(col + i);
    const __m256 a = _mm256_loadu_ps(acc + i);
    // Separate mul + add (never _mm256_fmadd_ps): lane l computes
    // fl(acc[l] + fl(col[l] * x)), the scalar leg's exact sequence.
    _mm256_storeu_ps(acc + i,
                     _mm256_add_ps(a, _mm256_mul_ps(c, vx)));
  }
  for (; i < n; ++i) {
    const float p = col[i] * x;
    acc[i] = acc[i] + p;
  }
}

// Unsigned 64-bit lane max: flip the sign bit so signed compare orders
// unsigned values correctly.
__attribute__((target("avx2"))) inline __m256i MaxEpu64(__m256i a,
                                                        __m256i b) {
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  const __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                                        _mm256_xor_si256(b, bias));
  return _mm256_blendv_epi8(b, a, gt);
}

__attribute__((target("avx2"))) std::uint64_t MaxU64Avx2(
    const std::uint64_t* v, std::size_t n) {
  std::size_t i = 0;
  __m256i best = _mm256_setzero_si256();
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    best = MaxEpu64(best, x);
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
  std::uint64_t m = 0;
  for (const std::uint64_t lane : lanes) m = lane > m ? lane : m;
  for (; i < n; ++i) m = v[i] > m ? v[i] : m;
  return m;
}

__attribute__((target("avx2"))) std::uint64_t SumU64Avx2(
    const std::uint64_t* v, std::size_t n) {
  std::size_t i = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t s = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) s += v[i];
  return s;
}

__attribute__((target("avx2"))) bool AllZeroOrEqualU64Avx2(
    const std::uint64_t* v, std::size_t n, std::uint64_t value) {
  std::size_t i = 0;
  const __m256i val = _mm256_set1_epi64x(static_cast<long long>(value));
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i ok = _mm256_or_si256(
        _mm256_cmpeq_epi64(x, _mm256_setzero_si256()),
        _mm256_cmpeq_epi64(x, val));
    if (_mm256_movemask_pd(_mm256_castsi256_pd(ok)) != 0xf) return false;
  }
  for (; i < n; ++i) {
    if (v[i] != 0 && v[i] != value) return false;
  }
  return true;
}

__attribute__((target("avx2"))) void PackPaddedAvx2(
    const std::uint8_t* src, std::size_t src_bytes, std::uint8_t* dst,
    std::size_t dst_bytes) {
  std::size_t i = 0;
  for (; i + 32 <= src_bytes; i += 32) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
  }
  if (i < src_bytes) std::memcpy(dst + i, src + i, src_bytes - i);
  i = src_bytes;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 32 <= dst_bytes; i += 32) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), zero);
  }
  if (i < dst_bytes) std::memset(dst + i, 0, dst_bytes - i);
}
#endif  // UPDLRM_SIMD_AVX2_BUILD

// ---------------------------------------------------------------------
// Dispatch table. Chosen once at static init (this TU, top to bottom),
// swappable by ForceScalar; tests flip it single-threaded.
// ---------------------------------------------------------------------

struct Kernels {
  void (*add_i32_to_i64)(const std::int32_t*, std::int64_t*, std::size_t);
  void (*add_i64_to_i64)(const std::int64_t*, std::int64_t*, std::size_t);
  void (*add_scaled_f32)(const float*, float, float*, std::size_t);
  std::uint64_t (*max_u64)(const std::uint64_t*, std::size_t);
  std::uint64_t (*sum_u64)(const std::uint64_t*, std::size_t);
  bool (*all_zero_or_equal_u64)(const std::uint64_t*, std::size_t,
                                std::uint64_t);
  void (*pack_padded)(const std::uint8_t*, std::size_t, std::uint8_t*,
                      std::size_t);
};

constexpr Kernels kScalarKernels = {
    AddI32ToI64Scalar,      AddI64ToI64Scalar,
    AddScaledF32Scalar,
    MaxU64Scalar,           SumU64Scalar,
    AllZeroOrEqualU64Scalar,
    PackPaddedScalar,
};

#if UPDLRM_SIMD_AVX2_BUILD
const Kernels kAvx2Kernels = {
    AddI32ToI64Avx2,      AddI64ToI64Avx2,
    AddScaledF32Avx2,
    MaxU64Avx2,           SumU64Avx2,
    AllZeroOrEqualU64Avx2,
    PackPaddedAvx2,
};
#endif

bool DetectAvx2() {
#if UPDLRM_SIMD_AVX2_BUILD
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool EnvForcesScalar() {
  const char* env = std::getenv("UPDLRM_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

const bool g_avx2_available = DetectAvx2();

const Kernels* PickKernels(bool force_scalar) {
#if UPDLRM_SIMD_AVX2_BUILD
  if (g_avx2_available && !force_scalar) return &kAvx2Kernels;
#else
  (void)force_scalar;
#endif
  return &kScalarKernels;
}

const Kernels* g_active = PickKernels(EnvForcesScalar());

}  // namespace

bool Avx2Available() { return g_avx2_available; }

bool UsingAvx2() {
#if UPDLRM_SIMD_AVX2_BUILD
  return g_active == &kAvx2Kernels;
#else
  return false;
#endif
}

void ForceScalar(bool force) { g_active = PickKernels(force); }

void AddI32ToI64(const std::int32_t* src, std::int64_t* acc,
                 std::size_t n) {
  g_active->add_i32_to_i64(src, acc, n);
}

void AddI64ToI64(const std::int64_t* src, std::int64_t* acc,
                 std::size_t n) {
  g_active->add_i64_to_i64(src, acc, n);
}

void AddScaledF32(const float* col, float x, float* acc, std::size_t n) {
  g_active->add_scaled_f32(col, x, acc, n);
}

std::uint64_t MaxU64(const std::uint64_t* v, std::size_t n) {
  return g_active->max_u64(v, n);
}

std::uint64_t SumU64(const std::uint64_t* v, std::size_t n) {
  return g_active->sum_u64(v, n);
}

bool AllZeroOrEqualU64(const std::uint64_t* v, std::size_t n,
                       std::uint64_t value) {
  return g_active->all_zero_or_equal_u64(v, n, value);
}

void PackPadded(const std::uint8_t* src, std::size_t src_bytes,
                std::uint8_t* dst, std::size_t dst_bytes) {
  UPDLRM_CHECK(src_bytes <= dst_bytes);
  g_active->pack_padded(src, src_bytes, dst, dst_bytes);
}

}  // namespace updlrm::simd
