// Machine-readable violation report of the hardware-contract checker.
//
// Every auditor in src/check/ records violations here: one atomic
// counter per rule plus the first offender's human-readable context.
// Counters are plain sums, so totals are thread-count invariant under
// the engine's disjoint-DPU task contract; which offender is recorded
// *first* may vary across thread schedules and is diagnostic only.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace updlrm::check {

/// Hardware / model invariants the checker enforces. Adding a rule:
/// extend this enum (before kNumRules) and RuleName, record violations
/// via CheckReport::AddViolation from the relevant auditor, and add one
/// injected-fault test to tests/check/ proving the rule fires (see
/// DESIGN.md §7).
enum class Rule : std::uint32_t {
  kDmaAlignment = 0,    // MRAM access offset/size not 8-byte aligned
  kDmaSize,             // DPU DMA transfer of 0 or > 2048 bytes
  kBankBounds,          // access beyond the 64 MB MRAM bank
  kUninitRead,          // read of MRAM bytes never written
  kRegionOverlap,       // EMT/cache/index/output regions overlap
  kPlanCoverage,        // row coverage not exact / row with two homes
  kPlanCapacity,        // plan tiles exceed the bin's byte capacity
  kCacheColocation,     // cache list and its items not co-located
  kTileShape,           // Nc not even / > 8 under the §3.1 model claim
  kWramCapacity,        // pinned WRAM tier exceeds leftover WRAM
  kModelSimDivergence,  // kernel_cost vs kernel_sim outside tolerance
  kDataFlowShape,       // data-flow plan outside the legal space
  kDataFlowCapacity,    // in-flight pipeline buffers exceed reserved IO
  kStageOrdering,       // executed batch stages out of order / overlap
  kShardCoverage,       // cross-shard row ownership not exact
  kTierCapacity,        // tier plan exceeds a per-tier capacity clamp
  kReductionShape,      // reduction plan tree malformed
  kAtomicProtocol,      // lock-free protocol breaks a happens-before edge
  kNumRules,
};

inline constexpr std::size_t kNumCheckRules =
    static_cast<std::size_t>(Rule::kNumRules);

std::string_view RuleName(Rule rule);

class CheckReport {
 public:
  CheckReport() = default;
  CheckReport(const CheckReport&) = delete;
  CheckReport& operator=(const CheckReport&) = delete;

  /// Records one violation of `rule`; `context` describes the first
  /// offender (kept only for the rule's first violation).
  void AddViolation(Rule rule, std::string context);

  std::uint64_t count(Rule rule) const {
    return counts_[static_cast<std::size_t>(rule)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t total() const;
  bool clean() const { return total() == 0; }

  /// Context of the first recorded offender of `rule`; "" when none.
  std::string first_offender(Rule rule) const;

  /// Per-rule table of nonzero counts with first-offender context;
  /// "all checks passed" when clean.
  std::string ToString() const;
  /// {"total":N,"rules":{"<name>":{"count":N,"first":"..."}}}
  std::string ToJson() const;

  void Reset();

 private:
  std::array<std::atomic<std::uint64_t>, kNumCheckRules> counts_{};
  mutable Mutex mu_;
  std::array<std::string, kNumCheckRules> first_ GUARDED_BY(mu_);
};

}  // namespace updlrm::check
