// Vectorized host-runtime kernels with runtime CPU-feature dispatch.
//
// The host side of the pipeline has a handful of flat loops that
// dominate its wall clock once the DPU fleet hides MRAM latency: the
// pooled-sum / partial-aggregation reduction of the functional engine
// and the byte-matrix scans + padded packing of the transfer layer.
// Each kernel here ships two implementations — a portable scalar loop
// and an AVX2 version — selected once at process start by CPUID and
// overridable at runtime.
//
// Bit-exactness contract: every kernel is integer-only (or pure byte
// movement), so the AVX2 and scalar paths produce identical bytes on
// identical inputs — vector lanes only reassociate *integer* adds,
// which are exactly commutative. Kernels must never reassociate
// floating-point math; float reductions stay in fixed summation order
// outside this layer (see DESIGN.md §"Host runtime"). A randomized
// property test (tests/common/simd_test.cc) pins AVX2 == scalar on
// every kernel.
//
// Dispatch order:
//   1. UPDLRM_DISABLE_AVX2 (compile time) — scalar-only build, the CI
//      "scalar leg"; AVX2 code is not even compiled.
//   2. UPDLRM_FORCE_SCALAR=1 (environment) or --force-scalar (bench
//      CLI) or simd::ForceScalar(true) — runtime opt-out.
//   3. CPUID: AVX2 used iff the CPU reports it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace updlrm::simd {

/// True when this build contains AVX2 code paths and the CPU supports
/// them (independent of the force-scalar override).
bool Avx2Available();

/// True when kernels currently dispatch to AVX2.
bool UsingAvx2();

/// Runtime override: true forces every kernel onto the scalar path
/// (also settable via the UPDLRM_FORCE_SCALAR=1 environment variable,
/// read once at process start). false restores CPUID dispatch.
void ForceScalar(bool force);

/// acc[i] += src[i] for i in [0, n) — the pooled-sum inner loop.
/// int32 terms into int64 accumulators: exact at any lane order.
void AddI32ToI64(const std::int32_t* src, std::int64_t* acc,
                 std::size_t n);

/// acc[i] += src[i] for i in [0, n), int64 into int64 — the
/// cross-shard merge step: two pooled accumulator buffers fold into
/// one. Exact at any lane order.
void AddI64ToI64(const std::int64_t* src, std::int64_t* acc,
                 std::size_t n);

/// acc[i] += col[i] * x for i in [0, n) — the axpy column update of
/// the batched MLP GEMV (dlrm/batched.h). The one float kernel in this
/// layer, and it keeps the bit-exactness contract *without* fixing a
/// summation order across lanes: each acc[i] receives exactly one
/// IEEE-754 multiply and one add per call, independently per lane, so
/// AVX2 and scalar produce identical bits. The AVX2 body uses separate
/// mul + add intrinsics (target("avx2") does not enable FMA, and the
/// intrinsics cannot be contracted), so no fused rounding sneaks in.
void AddScaledF32(const float* col, float x, float* acc, std::size_t n);

/// max over a byte-matrix row (0 for n == 0).
std::uint64_t MaxU64(const std::uint64_t* v, std::size_t n);

/// Wrapping sum (byte totals never approach 2^64 in practice; the
/// scalar loop wraps identically).
std::uint64_t SumU64(const std::uint64_t* v, std::size_t n);

/// True iff every entry is 0 or `value` — the "all participating
/// buffers equally sized" test that keeps the parallel transfer path.
bool AllZeroOrEqualU64(const std::uint64_t* v, std::size_t n,
                       std::uint64_t value);

/// Padded byte-packing: copy src[0, src_bytes) to dst and zero-fill
/// dst[src_bytes, dst_bytes). One ragged per-DPU buffer into its
/// padded slot of the transfer matrix. Requires src_bytes <= dst_bytes;
/// src and dst must not overlap.
void PackPadded(const std::uint8_t* src, std::size_t src_bytes,
                std::uint8_t* dst, std::size_t dst_bytes);

}  // namespace updlrm::simd
