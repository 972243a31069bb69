#include "serve/loop.h"

#include "check/dataflow_audit.h"
#include "updlrm/scaleout.h"

namespace updlrm::serve {

Status ValidateServeLoop(const BatcherOptions& batcher, std::uint32_t depth) {
  if (batcher.max_batch_size == 0) {
    return Status::InvalidArgument("batcher max_batch_size must be >= 1");
  }
  if (!(batcher.max_queue_delay_ns >= 0.0)) {
    return Status::InvalidArgument(
        "batcher max_queue_delay_ns must be >= 0");
  }
  if (depth == 0) {
    return Status::InvalidArgument(
        "pipeline depth must be >= 1 buffer pair");
  }
  return Status::Ok();
}

void AuditSchedule(std::span<const ExecutedFlowBatch> schedule,
                   std::uint32_t depth, check::CheckReport* report) {
  std::vector<check::StageInstants> instants;
  instants.reserve(schedule.size());
  for (const ExecutedFlowBatch& b : schedule) {
    check::StageInstants t;
    t.cut_ns = b.cut_ns;
    t.bpre_start_ns = b.bpre_start_ns;
    t.bpre_end_ns = b.bpre_end_ns;
    t.fabric_start_ns = b.fabric_start_ns;
    t.fabric_end_ns = b.fabric_end_ns;
    t.s1_start_ns = b.s1_start_ns;
    t.s1_end_ns = b.s1_end_ns;
    t.s2_start_ns = b.s2_start_ns;
    t.s2_end_ns = b.s2_end_ns;
    t.s3_start_ns = b.s3_start_ns;
    t.pull_end_ns = b.pull_end_ns;
    t.s3_end_ns = b.s3_end_ns;
    t.bottom_done_ns = b.bottom_done_ns;
    t.top_start_ns = b.top_start_ns;
    t.top_end_ns = b.top_end_ns;
    instants.push_back(t);
  }
  check::AuditStageOrdering(instants, depth, report);
}

namespace {

// Kernel cycles plus index wire bytes (a stand-in for per-DPU transfer
// cycles — z-scores are scale-free, so the mix only needs to be
// consistent).
void AppendUnitWork(const pim::DpuSystem& system,
                    std::vector<std::uint64_t>& out) {
  for (std::uint32_t i = 0; i < system.num_dpus(); ++i) {
    const pim::DpuStats& stats = system.dpu(i).stats();
    out.push_back(stats.kernel_cycles + stats.index_bytes_pushed);
  }
}

}  // namespace

void SampleUnitWork(const core::UpDlrmEngine& engine,
                    std::vector<std::uint64_t>& out) {
  out.clear();
  AppendUnitWork(engine.dpu_system(), out);
}

// Global unit id = shard * shard_dpus + local dpu.
void SampleUnitWork(const core::ShardedEngine& engine,
                    std::vector<std::uint64_t>& out) {
  out.clear();
  for (std::uint32_t s = 0; s < engine.num_shards(); ++s) {
    AppendUnitWork(engine.shard(s).dpu_system(), out);
  }
}

}  // namespace updlrm::serve
