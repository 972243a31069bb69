#include "updlrm/timeline.h"

#include <algorithm>
#include <string>
#include <vector>

#include "pim/kernel_sim.h"
#include "telemetry/tracer.h"

namespace updlrm::core {

namespace {

using telemetry::Clock;
using telemetry::kDpuPid;
using telemetry::kRankPid;
using telemetry::kTaskletPid;
using telemetry::Tracer;

// Rank-level rollup track: one push / kernel / pull slice per rank per
// emitted batch, so a 4096-DPU fleet trace stays navigable without
// opening 4096 per-DPU rows. Transfer slices are byte-derived
// observations (actual per-rank bytes / the rank's aggregate
// bandwidth); the kernel slice spans the rank's slowest bin.
void EmitRankTrack(const pim::DpuSystem& system, const BatchDpuTrace& trace,
                   Nanos s2_start_ns, Nanos kernel_start) {
  if (trace.rank_push_bytes.empty()) return;
  Tracer& tracer = Tracer::Get();
  const double clock_hz = system.config().dpu.clock_hz;
  const std::uint32_t dpr = system.config().dpus_per_rank;
  const auto& params = system.transfer().params();
  const std::uint32_t ranks =
      static_cast<std::uint32_t>(trace.rank_push_bytes.size());
  std::vector<Cycles> rank_cycles(ranks, 0);
  for (const DpuTraceSlice& s : trace.slices) {
    const std::uint32_t r = s.first_dpu / dpr;
    if (r < ranks) rank_cycles[r] = std::max(rank_cycles[r], s.cycles);
  }
  const Nanos pull_start =
      kernel_start + CyclesToNanos(trace.max_cycles, clock_hz);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    if (trace.rank_push_bytes[r] == 0 && trace.rank_pull_bytes[r] == 0) {
      continue;
    }
    tracer.SetThreadName(kRankPid, static_cast<std::int32_t>(r),
                         "rank " + std::to_string(r) + " (host " +
                             std::to_string(system.topology().HostOfRank(r)) +
                             ")");
    if (trace.rank_push_bytes[r] > 0) {
      const Nanos dur = TransferNanos(trace.rank_push_bytes[r],
                                      params.push_bytes_per_sec_per_rank);
      tracer.Complete(kRankPid, static_cast<std::int32_t>(r), Clock::kSim,
                      "rank.push", s2_start_ns - dur, dur, "bytes",
                      static_cast<double>(trace.rank_push_bytes[r]));
    }
    if (rank_cycles[r] > 0) {
      tracer.Complete(kRankPid, static_cast<std::int32_t>(r), Clock::kSim,
                      "rank.kernel", kernel_start,
                      CyclesToNanos(rank_cycles[r], clock_hz), "cycles",
                      static_cast<double>(rank_cycles[r]));
    }
    if (trace.rank_pull_bytes[r] > 0) {
      const Nanos dur = TransferNanos(trace.rank_pull_bytes[r],
                                      params.pull_bytes_per_sec_per_rank);
      tracer.Complete(kRankPid, static_cast<std::int32_t>(r), Clock::kSim,
                      "rank.pull", pull_start, dur, "bytes",
                      static_cast<double>(trace.rank_pull_bytes[r]));
    }
  }
}

void EmitStragglerTasklets(const pim::DpuSystem& system,
                           const DpuTraceSlice& slice, Nanos kernel_start) {
  const double clock_hz = system.config().dpu.clock_hz;
  pim::KernelTimeline tl;
  (void)pim::SimulateEmbeddingKernel(system.config().dpu,
                                     system.mram_timing(),
                                     system.config().kernel_cost, slice.work,
                                     pim::PhaseEngine::kPeriodic, &tl);
  Tracer& tracer = Tracer::Get();
  tracer.SetThreadName(kTaskletPid, tl.tasklets, "phase summary");
  for (std::uint32_t t = 0; t < tl.tasklets; ++t) {
    tracer.SetThreadName(kTaskletPid, t, "tasklet " + std::to_string(t));
  }
  for (std::size_t p = 0; p < tl.phases.size(); ++p) {
    const pim::PhaseTrace& ph = tl.phases[p];
    if (ph.num_items == 0) continue;
    const char* name = p < pim::kEmbeddingKernelNumPhases
                           ? pim::kEmbeddingKernelPhaseNames[p]
                           : "phase";
    const Nanos start = kernel_start + CyclesToNanos(ph.start, clock_hz);
    // Phase-summary slice: the barrier-to-barrier span, with the DMA
    // engine's occupancy (the "MRAM DMA" share) as an arg.
    tracer.Complete(kTaskletPid, tl.tasklets, Clock::kSim, name, start,
                    CyclesToNanos(ph.makespan, clock_hz), "dma_busy_cycles",
                    static_cast<double>(ph.dma_busy), "items",
                    static_cast<double>(ph.num_items));
    for (std::uint32_t t = 0; t < tl.tasklets; ++t) {
      if (ph.tasklet_items[t] == 0) continue;
      tracer.Complete(kTaskletPid, t, Clock::kSim, name, start,
                      CyclesToNanos(ph.tasklet_finish[t], clock_hz),
                      "items", static_cast<double>(ph.tasklet_items[t]));
    }
  }
}

}  // namespace

void EmitBatchDpuTimeline(const pim::DpuSystem& system,
                          const BatchDpuTrace& trace,
                          std::uint64_t batch_index, Nanos s2_start_ns,
                          bool tasklet_detail) {
  Tracer& tracer = Tracer::Get();
  if (!telemetry::TraceEnabled() || trace.slices.empty()) return;
  const double clock_hz = system.config().dpu.clock_hz;
  const Nanos kernel_start =
      s2_start_ns + system.transfer().KernelLaunchOverhead();
  for (const DpuTraceSlice& s : trace.slices) {
    if (s.work.num_samples == 0) continue;  // an idle replica
    const Nanos dur = CyclesToNanos(s.cycles, clock_hz);
    tracer.Complete(kDpuPid, s.first_dpu, Clock::kSim, "kernel",
                    kernel_start, dur, "cycles",
                    static_cast<double>(s.cycles), "lookups",
                    static_cast<double>(s.work.num_lookups));
    if (s.work.num_wram_hits > 0) {
      tracer.InstantAt(kDpuPid, s.first_dpu, Clock::kSim, "wram_hits",
                       kernel_start, "hits",
                       static_cast<double>(s.work.num_wram_hits));
    }
  }
  EmitRankTrack(system, trace, s2_start_ns, kernel_start);
  const DpuTraceSlice& slow = trace.slices[trace.straggler];
  tracer.InstantAt(kDpuPid, slow.first_dpu, Clock::kSim, "straggler",
                   kernel_start + CyclesToNanos(slow.cycles, clock_hz),
                   "batch", static_cast<double>(batch_index));
  if (tasklet_detail) {
    EmitStragglerTasklets(system, slow, kernel_start);
  }
}

}  // namespace updlrm::core
