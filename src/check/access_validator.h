// Shadow-state validator of simulated MRAM/WRAM/DMA accesses.
//
// Keeps, per DPU, (a) the registered MRAM region map (EMT, cache,
// index buffer, output buffer) and (b) an interval set of bytes
// ever written. Every intercepted access is checked against the UPMEM
// hardware contract: 8-byte alignment, DPU DMA transfers of 8..2048
// bytes, accesses within the 64 MB bank, reads only of written bytes,
// and pairwise-disjoint regions.
//
// Thread safety follows the engine's determinism contract: parallel
// tasks own disjoint DPU ranges, so per-DPU shadow state needs no
// locks; violations land in the shared CheckReport, whose counters are
// atomic.
#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "check/report.h"

namespace updlrm::check {

/// Hardware limits the validator enforces; defaults are the UPMEM
/// contract (8-byte aligned MRAM transfers, DPU DMA <= 2048 bytes).
struct AccessLimits {
  std::uint64_t bank_bytes = 0;
  std::uint64_t alignment = 8;
  std::uint64_t max_dma_bytes = 2048;
};

/// MRAM region kinds, mirroring core::MramLayout (the engine translates
/// its layout into RegisterRegion calls; check/ cannot depend on core).
enum class RegionKind : std::uint8_t {
  kEmt = 0,
  kCache,
  kIndex,
  kOutput,
};

std::string_view RegionKindName(RegionKind kind);

class AccessValidator {
 public:
  AccessValidator(std::uint32_t num_dpus, AccessLimits limits,
                  CheckReport* report);

  /// Registers region [base, base + bytes) on `dpu`. Flags kBankBounds
  /// when the region exceeds the bank and kRegionOverlap when it
  /// intersects an already-registered region of the same DPU. Zero-byte
  /// regions are legal and never overlap.
  void RegisterRegion(std::uint32_t dpu, RegionKind kind, std::uint64_t base,
                      std::uint64_t bytes);

  /// Functional-access hooks (wired to pim::MramObserver by the
  /// Checker). Writes extend the DPU's written-byte interval set; reads
  /// of any never-written byte flag kUninitRead.
  void OnWrite(std::uint32_t dpu, std::uint64_t offset, std::uint64_t bytes);
  void OnRead(std::uint32_t dpu, std::uint64_t offset, std::uint64_t bytes);

  /// Validates one modeled DPU-side DMA transfer shape (the engine
  /// reports each distinct per-item shape of a kernel launch once):
  /// alignment of offset and size, size in (0, max_dma_bytes], and bank
  /// bounds. Does not touch the written set — modeled transfers carry
  /// no functional data.
  void OnDma(std::uint32_t dpu, std::uint64_t offset, std::uint64_t bytes,
             bool is_write);

  /// Drops all regions and written intervals (report is left alone).
  void Reset();

  std::uint32_t num_dpus() const {
    return static_cast<std::uint32_t>(shadows_.size());
  }
  const AccessLimits& limits() const { return limits_; }

  /// True when every byte of [offset, offset + bytes) on `dpu` has been
  /// written. Exposed for tests.
  bool IsWritten(std::uint32_t dpu, std::uint64_t offset,
                 std::uint64_t bytes) const;

 private:
  struct Region {
    RegionKind kind;
    std::uint64_t base;
    std::uint64_t end;  // one past the last byte
  };
  struct DpuShadow {
    std::vector<Region> regions;
    /// Written-byte intervals, start -> end, non-adjacent and disjoint.
    std::map<std::uint64_t, std::uint64_t> written;
  };

  // Alignment + bank bounds shared by reads, writes and DMAs.
  void CheckBasics(std::uint32_t dpu, std::uint64_t offset,
                   std::uint64_t bytes, std::string_view what);

  AccessLimits limits_;
  CheckReport* report_;
  std::vector<DpuShadow> shadows_;
};

}  // namespace updlrm::check
