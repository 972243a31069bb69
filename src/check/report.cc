#include "check/report.h"

#include <sstream>

#include "telemetry/json.h"

namespace updlrm::check {

std::string_view RuleName(Rule rule) {
  switch (rule) {
    case Rule::kDmaAlignment:
      return "dma-alignment";
    case Rule::kDmaSize:
      return "dma-size";
    case Rule::kBankBounds:
      return "bank-bounds";
    case Rule::kUninitRead:
      return "uninit-read";
    case Rule::kRegionOverlap:
      return "region-overlap";
    case Rule::kPlanCoverage:
      return "plan-coverage";
    case Rule::kPlanCapacity:
      return "plan-capacity";
    case Rule::kCacheColocation:
      return "cache-colocation";
    case Rule::kTileShape:
      return "tile-shape";
    case Rule::kWramCapacity:
      return "wram-capacity";
    case Rule::kModelSimDivergence:
      return "model-sim-divergence";
    case Rule::kDataFlowShape:
      return "dataflow-shape";
    case Rule::kDataFlowCapacity:
      return "dataflow-capacity";
    case Rule::kStageOrdering:
      return "stage-ordering";
    case Rule::kShardCoverage:
      return "shard-coverage";
    case Rule::kTierCapacity:
      return "tier-capacity";
    case Rule::kReductionShape:
      return "reduction-shape";
    case Rule::kAtomicProtocol:
      return "atomic-protocol";
    case Rule::kNumRules:
      break;
  }
  return "unknown";
}

void CheckReport::AddViolation(Rule rule, std::string context) {
  const auto i = static_cast<std::size_t>(rule);
  const std::uint64_t prior =
      counts_[i].fetch_add(1, std::memory_order_relaxed);
  if (prior == 0) {
    MutexLock lock(mu_);
    if (first_[i].empty()) first_[i] = std::move(context);
  }
}

std::uint64_t CheckReport::total() const {
  std::uint64_t sum = 0;
  for (const auto& c : counts_) sum += c.load(std::memory_order_relaxed);
  return sum;
}

std::string CheckReport::first_offender(Rule rule) const {
  MutexLock lock(mu_);
  return first_[static_cast<std::size_t>(rule)];
}

std::string CheckReport::ToString() const {
  if (clean()) return "check: all checks passed (0 violations)\n";
  std::ostringstream out;
  out << "check: " << total() << " violation(s)\n";
  for (std::size_t i = 0; i < kNumCheckRules; ++i) {
    const auto rule = static_cast<Rule>(i);
    const std::uint64_t n = count(rule);
    if (n == 0) continue;
    out << "  [" << RuleName(rule) << "] x" << n << ": "
        << first_offender(rule) << "\n";
  }
  return out.str();
}

std::string CheckReport::ToJson() const {
  telemetry::JsonWriter w;
  w.BeginObject().Field("total", total()).Key("rules").BeginObject();
  for (std::size_t i = 0; i < kNumCheckRules; ++i) {
    const auto rule = static_cast<Rule>(i);
    const std::uint64_t n = count(rule);
    if (n == 0) continue;
    w.Key(RuleName(rule)).BeginObject().Field("count", n);
    w.Field("first", first_offender(rule)).EndObject();
  }
  w.EndObject().EndObject();
  return w.str();
}

void CheckReport::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  MutexLock lock(mu_);
  for (auto& f : first_) f.clear();
}

}  // namespace updlrm::check
