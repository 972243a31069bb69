#include "check/access_validator.h"

#include <string>

namespace updlrm::check {

namespace {

std::string Where(std::uint32_t dpu, std::uint64_t offset,
                  std::uint64_t bytes, std::string_view what) {
  return std::string(what) + " of " + std::to_string(bytes) +
         " bytes at offset " + std::to_string(offset) + " on dpu " +
         std::to_string(dpu);
}

}  // namespace

std::string_view RegionKindName(RegionKind kind) {
  switch (kind) {
    case RegionKind::kEmt:
      return "emt";
    case RegionKind::kCache:
      return "cache";
    case RegionKind::kIndex:
      return "index";
    case RegionKind::kOutput:
      return "output";
  }
  return "unknown";
}

AccessValidator::AccessValidator(std::uint32_t num_dpus, AccessLimits limits,
                                 CheckReport* report)
    : limits_(limits), report_(report), shadows_(num_dpus) {}

void AccessValidator::CheckBasics(std::uint32_t dpu, std::uint64_t offset,
                                  std::uint64_t bytes,
                                  std::string_view what) {
  if (offset % limits_.alignment != 0) {
    report_->AddViolation(Rule::kDmaAlignment,
                          Where(dpu, offset, bytes, what) +
                              " (offset not " +
                              std::to_string(limits_.alignment) +
                              "-byte aligned)");
  }
  if (offset > limits_.bank_bytes || bytes > limits_.bank_bytes - offset) {
    report_->AddViolation(Rule::kBankBounds,
                          Where(dpu, offset, bytes, what) + " (bank is " +
                              std::to_string(limits_.bank_bytes) +
                              " bytes)");
  }
}

void AccessValidator::RegisterRegion(std::uint32_t dpu, RegionKind kind,
                                     std::uint64_t base,
                                     std::uint64_t bytes) {
  if (dpu >= shadows_.size()) return;
  if (base > limits_.bank_bytes || bytes > limits_.bank_bytes - base) {
    report_->AddViolation(
        Rule::kBankBounds,
        Where(dpu, base, bytes,
              std::string(RegionKindName(kind)) + " region") +
            " (bank is " + std::to_string(limits_.bank_bytes) + " bytes)");
  }
  const std::uint64_t end = base + bytes;
  if (bytes > 0) {
    for (const Region& r : shadows_[dpu].regions) {
      if (r.base < end && base < r.end) {
        report_->AddViolation(
            Rule::kRegionOverlap,
            std::string(RegionKindName(kind)) + " region [" +
                std::to_string(base) + ", " + std::to_string(end) +
                ") overlaps " + std::string(RegionKindName(r.kind)) +
                " region [" + std::to_string(r.base) + ", " +
                std::to_string(r.end) + ") on dpu " + std::to_string(dpu));
      }
    }
  }
  shadows_[dpu].regions.push_back(Region{kind, base, end});
}

void AccessValidator::OnWrite(std::uint32_t dpu, std::uint64_t offset,
                              std::uint64_t bytes) {
  if (dpu >= shadows_.size()) return;
  CheckBasics(dpu, offset, bytes, "write");
  if (bytes == 0) return;
  // Insert [offset, offset + bytes), merging adjacent/overlapping
  // intervals so the map stays canonical.
  auto& written = shadows_[dpu].written;
  std::uint64_t lo = offset;
  std::uint64_t hi = offset + bytes;
  auto it = written.upper_bound(lo);
  if (it != written.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= lo) {
      lo = prev->first;
      hi = std::max(hi, prev->second);
      it = written.erase(prev);
    }
  }
  while (it != written.end() && it->first <= hi) {
    hi = std::max(hi, it->second);
    it = written.erase(it);
  }
  written.emplace(lo, hi);
}

void AccessValidator::OnRead(std::uint32_t dpu, std::uint64_t offset,
                             std::uint64_t bytes) {
  if (dpu >= shadows_.size()) return;
  CheckBasics(dpu, offset, bytes, "read");
  if (bytes == 0) return;
  if (!IsWritten(dpu, offset, bytes)) {
    report_->AddViolation(Rule::kUninitRead,
                          Where(dpu, offset, bytes, "read") +
                              " touches bytes never written");
  }
}

void AccessValidator::OnDma(std::uint32_t dpu, std::uint64_t offset,
                            std::uint64_t bytes, bool is_write) {
  if (dpu >= shadows_.size()) return;
  const std::string_view what = is_write ? "dma-write" : "dma-read";
  CheckBasics(dpu, offset, bytes, what);
  if (bytes == 0 || bytes > limits_.max_dma_bytes) {
    report_->AddViolation(Rule::kDmaSize,
                          Where(dpu, offset, bytes, what) +
                              " (DPU DMA must move 1.." +
                              std::to_string(limits_.max_dma_bytes) +
                              " bytes)");
  } else if (bytes % limits_.alignment != 0) {
    report_->AddViolation(Rule::kDmaAlignment,
                          Where(dpu, offset, bytes, what) +
                              " (size not " +
                              std::to_string(limits_.alignment) +
                              "-byte aligned)");
  }
}

bool AccessValidator::IsWritten(std::uint32_t dpu, std::uint64_t offset,
                                std::uint64_t bytes) const {
  if (dpu >= shadows_.size()) return false;
  if (bytes == 0) return true;
  const auto& written = shadows_[dpu].written;
  auto it = written.upper_bound(offset);
  if (it == written.begin()) return false;
  const auto& interval = *std::prev(it);
  return interval.second >= offset + bytes;
}

void AccessValidator::Reset() {
  for (DpuShadow& shadow : shadows_) {
    shadow.regions.clear();
    shadow.written.clear();
  }
}

}  // namespace updlrm::check
