// Stage-1 wire format: the bytes the host pushes to one DPU per call.
//
// A DPU's stage-1 index buffer holds its routed slot references (EMT
// rows, WRAM-pinned rows and cached partial sums alike, each an
// absolute MRAM slot = byte offset / row_bytes) followed by its
// per-sample offset arrays (samples + 1 prefix counts each). Two
// formats exist (DESIGN.md, "Stage-1 wire format"):
//
//   * paper  — 4-byte references, 4-byte offsets, and two offset
//              arrays (EMT and cache) on every DPU;
//   * packed — 3-byte little-endian references (a slot is below
//              mram_bytes / row_bytes <= 2^23 on the 64 MB, >= 8-byte
//              row hardware), 2-byte offsets whenever the call's longest
//              per-DPU list holds <= 65,535 references (4-byte
//              otherwise), and the cache offset array only for groups
//              that have a cache.
//
// Every site that prices or writes stage-1 bytes goes through this
// header, so the engine, its (Nc, R) estimator and the Eq. 1-3 tile
// optimizer cannot disagree on them.
#pragma once

#include <cstdint>

namespace updlrm::pim {

/// Widths of one stage-1 call.
struct IndexWire {
  std::uint32_t id_bytes = 4;      // per slot reference: 4 or 3
  std::uint32_t offset_bytes = 4;  // per per-sample offset: 4 or 2
};

/// Bytes of a packed slot reference.
inline constexpr std::uint32_t kPackedIdBytes = 3;
/// Slots a packed reference can name (slots 0 .. 2^24 - 1).
inline constexpr std::uint64_t kPackedSlotLimit = std::uint64_t{1} << 24;
/// Longest per-DPU list that 2-byte offsets can index.
inline constexpr std::uint64_t kMaxShortOffsetRefs = 0xffff;

/// Bytes per slot reference in the packed or the paper format.
inline std::uint32_t IdBytes(bool packed) {
  return packed ? kPackedIdBytes : 4;
}

/// The widths of one call: the paper format's 4/4, or the packed
/// format's 3-byte references with offsets just wide enough for
/// `max_list_refs`, the call's longest per-DPU list.
inline IndexWire ChooseWire(bool packed, std::uint64_t max_list_refs) {
  if (!packed) return IndexWire{};
  return IndexWire{IdBytes(true),
                   max_list_refs <= kMaxShortOffsetRefs ? 2U : 4U};
}

/// Offset arrays one DPU receives. The paper format always sends the
/// EMT and the cache array; the packed one drops the cache array where
/// the group has no cache, since no kernel reads it.
inline std::uint32_t OffsetArrays(bool packed, bool has_cache) {
  return packed && !has_cache ? 1 : 2;
}

/// Per-DPU stage-1 bytes: `refs` slot references plus `arrays` arrays
/// of `samples + 1` offsets.
inline std::uint64_t PushBytes(IndexWire wire, std::uint64_t refs,
                               std::uint64_t samples, std::uint32_t arrays) {
  return refs * wire.id_bytes +
         static_cast<std::uint64_t>(arrays) * (samples + 1) *
             wire.offset_bytes;
}

/// Writes the low `bytes` bytes of `value` little-endian at `out`.
inline void PutLE(std::uint32_t value, std::uint32_t bytes,
                  std::uint8_t* out) {
  for (std::uint32_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// Reads a `bytes`-wide little-endian value at `in`.
inline std::uint32_t GetLE(const std::uint8_t* in, std::uint32_t bytes) {
  std::uint32_t value = 0;
  for (std::uint32_t i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  }
  return value;
}

}  // namespace updlrm::pim
