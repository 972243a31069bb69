#include "check/model_audit.h"

#include <array>
#include <string>

namespace updlrm::check {

ModelAudit::ModelAudit(pim::DpuConfig dpu,
                       pim::EmbeddingKernelCostParams params,
                       pim::MramTimingParams mram_timing,
                       ModelAuditTolerance tol, CheckReport* report)
    : dpu_(dpu),
      params_(params),
      mram_(mram_timing),
      tol_(tol),
      report_(report) {}

void ModelAudit::AuditKernel(const pim::EmbeddingKernelWork& work,
                             Cycles claimed) {
  if (work.num_lookups + work.num_cache_reads + work.num_samples +
          work.num_wram_hits == 0) {
    // An empty launch must be priced as free by both implementations.
    if (claimed != 0) {
      report_->AddViolation(Rule::kModelSimDivergence,
                            "empty kernel work claimed " +
                                std::to_string(claimed) + " cycles");
    }
    return;
  }
  const WorkKey key{work.num_lookups, work.num_cache_reads,
                    work.num_samples, work.row_bytes, work.num_wram_hits,
                    work.index_bytes};
  Cycles executed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      executed = it->second;
    } else {
      executed =
          pim::SimulateEmbeddingKernel(dpu_, mram_, params_, work).makespan;
      memo_.emplace(key, executed);
      ++simulated_;
    }
  }
  const double ratio = static_cast<double>(executed) /
                       static_cast<double>(claimed == 0 ? 1 : claimed);
  if (claimed == 0 || ratio < tol_.min_ratio || ratio > tol_.max_ratio) {
    report_->AddViolation(
        Rule::kModelSimDivergence,
        "work {lookups " + std::to_string(work.num_lookups) + ", cache " +
            std::to_string(work.num_cache_reads) + ", samples " +
            std::to_string(work.num_samples) + ", row_bytes " +
            std::to_string(work.row_bytes) + ", wram " +
            std::to_string(work.num_wram_hits) + ", index_bytes " +
            std::to_string(work.index_bytes) + "}: model claims " +
            std::to_string(claimed) + " cycles, sim executed " +
            std::to_string(executed) + " (ratio " + std::to_string(ratio) +
            " outside [" + std::to_string(tol_.min_ratio) + ", " +
            std::to_string(tol_.max_ratio) + "])");
  }
}

std::uint64_t ModelAudit::simulated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return simulated_;
}

}  // namespace updlrm::check
