#include "pim/kernel_sim.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

namespace updlrm::pim {

namespace {

struct TaskletState {
  std::uint64_t items_left = 0;
  Cycles instr_left = 0;       // instructions left in the current item
  Cycles next_issue_ok = 0;    // revolver constraint
  bool waiting_dma = false;
  Cycles dma_done = 0;

  bool Active() const { return items_left > 0 || instr_left > 0; }
};

std::vector<TaskletState> InitialState(const KernelPhase& phase,
                                       std::uint32_t tasklets) {
  std::vector<TaskletState> state(tasklets);
  for (std::uint32_t t = 0; t < tasklets; ++t) {
    state[t].items_left = phase.num_items / tasklets +
                          (t < phase.num_items % tasklets ? 1 : 0);
    if (state[t].items_left > 0) {
      state[t].instr_left = phase.instr_per_item;
      --state[t].items_left;
    }
  }
  return state;
}

// The reference engine: one loop iteration per cycle, O(tasklets)
// wake/liveness scans. Obviously faithful; quadratic-ish on large
// phases. kPeriodic must match it cycle for cycle.
//
// `finish`, when non-null, records each tasklet's retirement cycle
// (already sized; observation only, never read back into the model).
Cycles RunPhaseExact(const KernelPhase& phase, std::uint32_t tasklets,
                     std::uint32_t revolver_depth,
                     std::uint64_t* instructions, std::uint64_t* dmas,
                     std::vector<Cycles>* finish) {
  if (phase.num_items == 0) return 0;
  UPDLRM_CHECK(phase.instr_per_item >= 1);

  std::vector<TaskletState> state = InitialState(phase, tasklets);

  Cycles cycle = 0;
  Cycles engine_free = 0;
  std::uint32_t rr = 0;
  auto any_active = [&] {
    for (const auto& s : state) {
      if (s.Active() || s.waiting_dma) return true;
    }
    return false;
  };

  while (any_active()) {
    // Wake tasklets whose DMA completed.
    for (std::uint32_t t = 0; t < tasklets; ++t) {
      TaskletState& s = state[t];
      if (s.waiting_dma && cycle >= s.dma_done) {
        s.waiting_dma = false;
        if (s.items_left > 0) {
          s.instr_left = phase.instr_per_item;
          --s.items_left;
        } else if (finish != nullptr) {
          // Last item retired when its DMA completed.
          (*finish)[t] = s.dma_done;
        }
      }
    }
    // Issue at most one instruction, round-robin from the last issuer.
    for (std::uint32_t i = 0; i < tasklets; ++i) {
      const std::uint32_t t = (rr + i) % tasklets;
      TaskletState& s = state[t];
      if (s.instr_left == 0 || s.waiting_dma || cycle < s.next_issue_ok) {
        continue;
      }
      ++*instructions;
      s.next_issue_ok = cycle + revolver_depth;
      if (--s.instr_left == 0) {
        // The item's compute is done; launch its DMA.
        if (phase.dma_latency > 0 || phase.dma_occupancy > 0) {
          const Cycles start = std::max(cycle + 1, engine_free);
          engine_free = start + phase.dma_occupancy;
          s.waiting_dma = true;
          s.dma_done = start + phase.dma_latency;
          ++*dmas;
        } else if (s.items_left > 0) {
          s.instr_left = phase.instr_per_item;
          --s.items_left;
        } else if (finish != nullptr) {
          // Last item retired as this instruction completes.
          (*finish)[t] = cycle + 1;
        }
      }
      rr = t + 1;
      break;
    }
    ++cycle;
  }
  return std::max(cycle, engine_free);
}

// --- kPeriodic engine ------------------------------------------------
//
// Same state machine as RunPhaseExact with three optimizations, each
// preserving the reference cycle count exactly:
//
//  1. Liveness is a counter (`live`), decremented on the two death
//     transitions (item completes with nothing left; DMA wake with
//     nothing left), instead of an O(tasklets) scan per cycle.
//  2. Wakes and idle gaps are event-ordered: the wake scan runs only
//     when `cycle` reaches the tracked minimum dma_done, and when no
//     tasklet can issue, `cycle` jumps straight to the next wake or
//     revolver-release time. Skipped cycles are exactly the reference
//     loop's no-op iterations.
//  3. Steady-state periods are jumped analytically. A phase is
//     homogeneous (every item costs the same), so after a warmup the
//     simulator state repeats up to a time shift. We snapshot the
//     *relative* state each iteration — per-tasklet (instr_left,
//     next_issue_ok - cycle, waiting, dma_done - cycle, items_left>0),
//     the round-robin cursor and engine_free - cycle — and on a repeat
//     with period P advance k whole periods at once: absolute times
//     += k*P, items_left -= k*d_t, counters += k*delta. k is capped at
//     min_t floor(items_left[t] / d_t) so every item-availability test
//     inside the replayed periods keeps its recorded truth value; the
//     drain tail past that runs cycle-exact. Relative clamps are
//     behavior-equivalent: a next_issue_ok or dma_done in the past
//     only ever compares `cycle >= x`, and a DMA start is
//     max(cycle + 1, engine_free), so engine_free <= cycle + 1
//     normalizes to cycle + 1.
constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

struct PeriodSnapshot {
  std::vector<std::uint64_t> key;
  Cycles cycle = 0;
  std::vector<std::uint64_t> items;
  std::uint64_t instructions = 0;
  std::uint64_t dmas = 0;
};

Cycles RunPhaseFast(const KernelPhase& phase, std::uint32_t tasklets,
                    std::uint32_t revolver_depth,
                    std::uint64_t* instructions, std::uint64_t* dmas,
                    std::vector<Cycles>* finish) {
  if (phase.num_items == 0) return 0;
  UPDLRM_CHECK(phase.instr_per_item >= 1);
  const bool has_dma = phase.dma_latency > 0 || phase.dma_occupancy > 0;

  std::vector<TaskletState> state = InitialState(phase, tasklets);
  std::uint32_t live = 0;
  for (const TaskletState& s : state) {
    if (s.instr_left > 0) ++live;
  }

  Cycles cycle = 0;
  Cycles engine_free = 0;
  std::uint32_t rr = 0;
  std::uint32_t num_waiting = 0;
  Cycles next_wake = kNever;

  // Aperiodic phases can't happen here (homogeneous items), but the
  // detector degrades gracefully: past the cap it switches itself off
  // and the loop stays event-driven.
  bool detect = true;
  constexpr std::size_t kMaxSnapshots = std::size_t{1} << 14;
  std::unordered_map<std::uint64_t, PeriodSnapshot> snapshots;
  std::vector<std::uint64_t> key;

  while (live > 0) {
    if (detect) {
      key.clear();
      key.push_back(rr % tasklets);
      key.push_back(std::max(engine_free, cycle + 1) - cycle);
      for (const TaskletState& s : state) {
        key.push_back(s.instr_left);
        key.push_back(s.next_issue_ok > cycle ? s.next_issue_ok - cycle : 0);
        key.push_back(s.waiting_dma ? s.dma_done - cycle : kNever);
        key.push_back(s.items_left > 0 ? 1 : 0);
      }
      std::uint64_t hash = 0xcbf29ce484222325ULL;
      for (std::uint64_t word : key) {
        hash = (hash ^ word) * 0x100000001b3ULL;
      }
      auto [it, inserted] = snapshots.try_emplace(hash);
      PeriodSnapshot& snap = it->second;
      if (!inserted && snap.key == key) {
        const Cycles period = cycle - snap.cycle;
        std::uint64_t k = kNever;
        for (std::uint32_t t = 0; t < tasklets; ++t) {
          const std::uint64_t d = snap.items[t] - state[t].items_left;
          if (d > 0) k = std::min(k, state[t].items_left / d);
        }
        if (period > 0 && k != kNever && k >= 1) {
          cycle += k * period;
          engine_free += k * period;
          if (next_wake != kNever) next_wake += k * period;
          for (std::uint32_t t = 0; t < tasklets; ++t) {
            state[t].next_issue_ok += k * period;
            if (state[t].waiting_dma) state[t].dma_done += k * period;
            state[t].items_left -= k * (snap.items[t] - state[t].items_left);
          }
          *instructions += k * (*instructions - snap.instructions);
          *dmas += k * (*dmas - snap.dmas);
        }
      }
      // (Re)record this hash slot at the current point in time, so the
      // next recurrence measures a fresh period. Hash collisions just
      // overwrite and delay detection; correctness needs the full-key
      // equality above.
      snap.key = key;
      snap.cycle = cycle;
      snap.items.resize(tasklets);
      for (std::uint32_t t = 0; t < tasklets; ++t) {
        snap.items[t] = state[t].items_left;
      }
      snap.instructions = *instructions;
      snap.dmas = *dmas;
      if (snapshots.size() > kMaxSnapshots) {
        snapshots.clear();
        detect = false;
      }
    }

    if (num_waiting > 0 && cycle >= next_wake) {
      next_wake = kNever;
      for (std::uint32_t t = 0; t < tasklets; ++t) {
        TaskletState& s = state[t];
        if (!s.waiting_dma) continue;
        if (cycle >= s.dma_done) {
          s.waiting_dma = false;
          --num_waiting;
          if (s.items_left > 0) {
            s.instr_left = phase.instr_per_item;
            --s.items_left;
          } else {
            --live;
            // Retirement transition; never replayed inside a period
            // jump (the jump cap preserves item-availability truth
            // values), so dma_done here equals the reference engine's.
            if (finish != nullptr) (*finish)[t] = s.dma_done;
          }
        } else {
          next_wake = std::min(next_wake, s.dma_done);
        }
      }
    }

    bool issued = false;
    for (std::uint32_t i = 0; i < tasklets; ++i) {
      const std::uint32_t t = (rr + i) % tasklets;
      TaskletState& s = state[t];
      if (s.instr_left == 0 || s.waiting_dma || cycle < s.next_issue_ok) {
        continue;
      }
      ++*instructions;
      s.next_issue_ok = cycle + revolver_depth;
      if (--s.instr_left == 0) {
        if (has_dma) {
          const Cycles start = std::max(cycle + 1, engine_free);
          engine_free = start + phase.dma_occupancy;
          s.waiting_dma = true;
          ++num_waiting;
          s.dma_done = start + phase.dma_latency;
          next_wake = std::min(next_wake, s.dma_done);
          ++*dmas;
        } else if (s.items_left > 0) {
          s.instr_left = phase.instr_per_item;
          --s.items_left;
        } else {
          --live;
          if (finish != nullptr) (*finish)[t] = cycle + 1;
        }
      }
      rr = t + 1;
      issued = true;
      break;
    }

    if (issued) {
      ++cycle;
    } else {
      // Nothing can happen before the next DMA completion or revolver
      // release; jump there. (Both are > cycle, else we would have
      // woken or issued above.)
      Cycles next = next_wake;
      for (const TaskletState& s : state) {
        if (s.instr_left > 0 && !s.waiting_dma) {
          next = std::min(next, s.next_issue_ok);
        }
      }
      cycle = next == kNever ? cycle + 1 : std::max(cycle + 1, next);
    }
  }
  return std::max(cycle, engine_free);
}

}  // namespace

Cycles SimulatePhase(const KernelPhase& phase, std::uint32_t tasklets,
                     std::uint32_t revolver_depth, PhaseEngine engine,
                     std::uint64_t* instructions, std::uint64_t* dmas,
                     std::vector<Cycles>* tasklet_finish) {
  if (tasklet_finish != nullptr) tasklet_finish->assign(tasklets, 0);
  if (engine == PhaseEngine::kExactCycle) {
    return RunPhaseExact(phase, tasklets, revolver_depth, instructions,
                         dmas, tasklet_finish);
  }
  return RunPhaseFast(phase, tasklets, revolver_depth, instructions, dmas,
                      tasklet_finish);
}

KernelSimResult SimulateEmbeddingKernel(
    const DpuConfig& dpu, const MramTimingModel& mram,
    const EmbeddingKernelCostParams& params,
    const EmbeddingKernelWork& work, PhaseEngine engine,
    KernelTimeline* timeline) {
  UPDLRM_CHECK_MSG(dpu.Validate().ok(), "invalid DpuConfig");
  KernelSimResult result;
  if (timeline != nullptr) {
    timeline->boot_cycles = params.boot_cycles;
    timeline->tasklets = dpu.num_tasklets;
    timeline->phases.clear();
  }
  if (work.num_lookups + work.num_cache_reads + work.num_samples +
          work.num_wram_hits == 0) {
    return result;
  }
  // The phase list comes from the same builder the analytic model
  // prices (EmbeddingKernelPhases), so model and simulator execute the
  // identical kernel structure; only the physics differ.
  Cycles makespan = params.boot_cycles;
  for (const KernelWorkload& w : EmbeddingKernelPhases(params, mram, work)) {
    const KernelPhase phase{w.num_items, w.instr_cycles_per_item,
                            w.dma_latency_per_item, w.dma_occupancy_per_item};
    PhaseTrace* pt = nullptr;
    if (timeline != nullptr) {
      timeline->phases.emplace_back();
      pt = &timeline->phases.back();
      pt->start = makespan;
      pt->num_items = phase.num_items;
    }
    const std::uint64_t dmas_before = result.dma_transfers;
    const Cycles span = SimulatePhase(
        phase, dpu.num_tasklets, dpu.revolver_depth, engine,
        &result.instructions_issued, &result.dma_transfers,
        pt != nullptr ? &pt->tasklet_finish : nullptr);
    makespan += span;
    if (pt != nullptr) {
      pt->makespan = span;
      pt->dma_busy =
          (result.dma_transfers - dmas_before) * phase.dma_occupancy;
      pt->tasklet_items.resize(dpu.num_tasklets);
      for (std::uint32_t t = 0; t < dpu.num_tasklets; ++t) {
        pt->tasklet_items[t] =
            phase.num_items / dpu.num_tasklets +
            (t < phase.num_items % dpu.num_tasklets ? 1 : 0);
      }
    }
  }
  result.makespan = makespan;
  result.issue_utilization =
      makespan == 0 ? 0.0
                    : static_cast<double>(result.instructions_issued) /
                          static_cast<double>(makespan);
  return result;
}

}  // namespace updlrm::pim
