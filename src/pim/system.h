// The full UPMEM system: DPU array + shared timing models.
//
// The paper's testbed is two UPMEM modules totalling 256 DPUs at
// 350 MHz, 14 tasklets each (Table 2); those are the defaults here.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "pim/dpu.h"
#include "pim/dpu_config.h"
#include "pim/kernel_cost.h"
#include "pim/mram_timing.h"
#include "pim/topology.h"
#include "pim/transfer.h"

namespace updlrm::pim {

struct DpuSystemConfig {
  std::uint32_t num_dpus = 256;
  std::uint32_t dpus_per_rank = 64;
  DpuConfig dpu;
  MramTimingParams mram_timing;
  HostTransferParams transfer;
  /// Rank/host hierarchy and per-hop pricing; the default places every
  /// rank on one host — the paper's flat testbed — under which all
  /// transfer times match the historical model bit for bit.
  FleetTopologyConfig topology;
  EmbeddingKernelCostParams kernel_cost;
  // When false, MRAM contents are never materialized (timing-only mode
  // for full-scale workloads; see DESIGN.md §2).
  bool functional = true;

  Status Validate() const;
};

class DpuSystem {
 public:
  /// Builds the system; fails on invalid configuration.
  static Result<std::unique_ptr<DpuSystem>> Create(DpuSystemConfig config);

  std::uint32_t num_dpus() const {
    return static_cast<std::uint32_t>(dpus_.size());
  }
  std::uint32_t num_ranks() const { return transfer_.num_ranks(); }

  DpuCore& dpu(std::uint32_t i) {
    UPDLRM_CHECK(i < dpus_.size());
    return dpus_[i];
  }
  const DpuCore& dpu(std::uint32_t i) const {
    UPDLRM_CHECK(i < dpus_.size());
    return dpus_[i];
  }

  const DpuSystemConfig& config() const { return config_; }
  const MramTimingModel& mram_timing() const { return mram_timing_; }
  const HostTransferModel& transfer() const { return transfer_; }
  /// The fleet's rank/host topology (owned by the transfer model).
  const FleetTopology& topology() const { return transfer_.topology(); }
  const EmbeddingKernelCostModel& kernel_cost() const {
    return kernel_cost_;
  }
  bool functional() const { return config_.functional; }

  /// Clears all per-DPU statistics.
  void ResetStats();

  /// Aggregate MRAM footprint actually materialized (bytes).
  std::uint64_t TotalHighWatermark() const;

 private:
  explicit DpuSystem(DpuSystemConfig config);

  DpuSystemConfig config_;
  MramTimingModel mram_timing_;
  HostTransferModel transfer_;
  EmbeddingKernelCostModel kernel_cost_;
  std::vector<DpuCore> dpus_;
};

}  // namespace updlrm::pim
