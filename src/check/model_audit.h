// Model/sim cross-audit: kernel_cost vs kernel_sim.
//
// The analytic cost model (EmbeddingKernelCostModel) and the
// event-driven simulator (SimulateEmbeddingKernel) are two independent
// implementations of the same DPU physics, sharing only the phase list
// (EmbeddingKernelPhases). This auditor re-executes every distinct
// kernel-work shape the engine prices and asserts the two agree within
// a declared band: the analytic makespan is a max of lower bounds, so
// the executed makespan may only sit slightly below (rounding) or a
// bounded factor above (tail effects, imperfect phase overlap) the
// claim. Silent drift in either implementation — a phase priced by one
// but not executed by the other, a changed instruction budget — lands
// outside the band and fires kModelSimDivergence.
//
// Simulation is memoized per distinct work shape, so check-mode batch
// loops pay the simulator once per shape, not once per launch.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>

#include "check/report.h"
#include "common/units.h"
#include "pim/dpu_config.h"
#include "pim/kernel_cost.h"
#include "pim/kernel_sim.h"
#include "pim/mram_timing.h"

namespace updlrm::check {

/// Accepted executed/claimed cycle ratio. The defaults bracket the
/// kernel_sim property-test band (0.98x..1.45x across the tested
/// tasklet/row-width/volume grid) with margin for untested mixes; see
/// DESIGN.md §7 for the tolerance policy.
struct ModelAuditTolerance {
  double min_ratio = 0.95;
  double max_ratio = 1.60;
};

class ModelAudit {
 public:
  ModelAudit(pim::DpuConfig dpu, pim::EmbeddingKernelCostParams params,
             pim::MramTimingParams mram_timing, ModelAuditTolerance tol,
             CheckReport* report);

  /// Audits one kernel launch: `claimed` is the cost model's
  /// KernelCycles for `work`; the executed makespan comes from the
  /// (memoized) simulator. Thread-safe.
  void AuditKernel(const pim::EmbeddingKernelWork& work, Cycles claimed);

  /// Distinct work shapes actually simulated (cache misses).
  std::uint64_t simulated() const;

  const ModelAuditTolerance& tolerance() const { return tol_; }

 private:
  using WorkKey = std::array<std::uint64_t, 6>;

  pim::DpuConfig dpu_;
  pim::EmbeddingKernelCostParams params_;
  pim::MramTimingModel mram_;
  ModelAuditTolerance tol_;
  CheckReport* report_;

  mutable std::mutex mu_;
  std::map<WorkKey, Cycles> memo_;
  std::uint64_t simulated_ = 0;
};

}  // namespace updlrm::check
