#include "pim/system.h"

namespace updlrm::pim {

Status DpuSystemConfig::Validate() const {
  if (num_dpus == 0) {
    return Status::InvalidArgument("num_dpus must be >= 1");
  }
  if (dpus_per_rank == 0) {
    return Status::InvalidArgument("dpus_per_rank must be >= 1");
  }
  UPDLRM_RETURN_IF_ERROR(dpu.Validate());
  UPDLRM_RETURN_IF_ERROR(mram_timing.Validate());
  UPDLRM_RETURN_IF_ERROR(transfer.Validate());
  UPDLRM_RETURN_IF_ERROR(topology.Validate());
  UPDLRM_RETURN_IF_ERROR(kernel_cost.Validate());
  return Status::Ok();
}

DpuSystem::DpuSystem(DpuSystemConfig config)
    : config_(config),
      mram_timing_(config.mram_timing),
      transfer_(config.transfer, config.num_dpus, config.dpus_per_rank,
                config.topology),
      kernel_cost_(config.kernel_cost, config.dpu,
                   MramTimingModel(config.mram_timing)) {
  dpus_.reserve(config_.num_dpus);
  for (std::uint32_t i = 0; i < config_.num_dpus; ++i) {
    dpus_.emplace_back(i, config_.dpu);
  }
}

Result<std::unique_ptr<DpuSystem>> DpuSystem::Create(
    DpuSystemConfig config) {
  UPDLRM_RETURN_IF_ERROR(config.Validate());
  return std::unique_ptr<DpuSystem>(new DpuSystem(config));
}

void DpuSystem::ResetStats() {
  for (auto& dpu : dpus_) dpu.stats().Reset();
}

std::uint64_t DpuSystem::TotalHighWatermark() const {
  std::uint64_t total = 0;
  for (const auto& dpu : dpus_) total += dpu.mram().high_watermark();
  return total;
}

}  // namespace updlrm::pim
