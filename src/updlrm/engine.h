// The UpDLRM inference engine (Fig. 4).
//
// Pre-process stage (Create): profile the trace, mine cache lists
// (cache-aware method), choose the tile shape (Nc, R) (Eq. 1-3 optimizer
// unless overridden), partition every EMT onto its DPU group, and place
// the quantized table slices + cached partial sums into MRAM — once per
// replica: R whole-rank copies of the same table-group layout.
//
// Forward stage (RunBatch): route every sample's multi-hot indices to
// the owning bins (stage 1), deal each bin's per-sample reference lists
// across the replicas so that every copy of the bin carries an even
// load, execute the lookup/reduce kernel on every DPU (stage 2), pull
// back per-DPU partial sums (stage 3), aggregate them on the CPU into
// pooled embeddings, and run the MLP stacks. The bottom MLP overlaps
// the embedding pipeline; interaction + top MLP follow.
//
// Two execution modes share all control flow:
//   * functional — MRAM holds real quantized data, kernels produce
//     bit-exact pooled embeddings (validated against DlrmModel);
//   * timing-only — no MRAM contents; only the per-DPU work counts that
//     drive the calibrated timing models (full-scale benchmarks).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/grace.h"
#include "check/checker.h"
#include "common/status.h"
#include "dlrm/model.h"
#include "host/cpu_model.h"
#include "partition/allocation.h"
#include "partition/cache_aware.h"
#include "partition/nonuniform.h"
#include "partition/uniform.h"
#include "pim/system.h"
#include "trace/profiler.h"
#include "trace/trace.h"
#include "updlrm/placement.h"
#include "updlrm/report.h"

namespace updlrm::core {

/// EngineOptions::wram_cache_rows value that pins as many rows per DPU
/// as its WRAM holds (EmbeddingKernelCostModel::MaxWramCacheRows).
inline constexpr std::uint32_t kWramRowsAsFit = 0xffffffffU;

struct EngineOptions {
  partition::Method method = partition::Method::kCacheAware;
  /// Columns per tile; 0 = pick automatically with the §3.1 optimizer.
  std::uint32_t nc = 0;
  /// Whole-rank model replicas R (the tile shape's third axis): R
  /// copies of every table group on disjoint rank groups, each serving
  /// ⌈batch/R⌉ samples of every bin, dealt per bin so the copies' loads
  /// balance (DESIGN.md §6g). 0 = pick automatically with
  /// the §3.1 optimizer (the largest R whose copy fits MRAM); >= 1 pins
  /// R. R must divide the rank count and leave every copy at least one
  /// DPU per table. Non-equal allocations run R = 1.
  std::uint32_t replicas = 0;
  /// Fraction of the mined cache lists' storage requirement to actually
  /// provision (§3.3: 40% / 70% / 100%). Cache-aware method only.
  double cache_capacity_fraction = 1.0;
  std::size_t batch_size = 64;
  /// MRAM reserved per DPU for the stage-1/stage-3 I/O buffers.
  std::uint64_t reserved_io_bytes = 8 * kMiB;
  /// Pad ragged stage-1/3 buffers to the max size so transfers take the
  /// parallel path (§2.2); disabling falls back to sequential transfers.
  bool pad_transfers = true;
  /// Stage-1 wire format (pim/wire_format.h): true pushes 3-byte slot
  /// references, 2-byte offsets where the call's lists allow, and no
  /// cache offset array for cacheless groups, with the DPU's decode
  /// priced in stage 2; false pushes the paper's 4-byte indices and
  /// offsets, both offset arrays on every DPU.
  bool packed_indices = true;
  /// WRAM hot-row tier (DESIGN.md §6e): pin the top-K hottest
  /// EMT-resident rows of every bin into the DPU's WRAM at setup;
  /// lookups hitting them skip the MRAM DMA. Clamped to the WRAM space
  /// left over by the kernel's working buffers, so the default pins as
  /// many rows as fit. 0 disables the tier (the paper's kernel);
  /// pooled outputs are bit-identical either way.
  std::uint32_t wram_cache_rows = kWramRowsAsFit;
  /// Also emit the pooled embeddings as raw Q15.16 int64 accumulators
  /// (BatchResult::pooled_fixed) — the sharded scale-out engine merges
  /// shards in integer space before the single float conversion.
  bool emit_fixed_pooled = false;
  /// Extension: how DPUs are split across tables. The paper's setup is
  /// an even split of identical tables; heterogeneous models benefit
  /// from traffic-proportional groups (partition/allocation.h).
  partition::DpuAllocationPolicy allocation =
      partition::DpuAllocationPolicy::kEqual;
  cache::GraceOptions grace;
  host::CpuModelParams cpu;
  /// Optional pre-mined cache lists, one CacheRes per table (e.g. shared
  /// across engine configurations to avoid re-mining the same trace).
  /// Used by the cache-aware method only; must outlive the engine.
  const std::vector<cache::CacheRes>* premined_cache = nullptr;
  /// Optional pre-computed trace profiles, one TableProfile per table
  /// (freq histogram + descending-frequency order). Same sharing story
  /// as premined_cache: one profiling pass serves every engine built
  /// from the same trace, instead of a full radix sort of every table
  /// row per engine. Must outlive the engine.
  const std::vector<trace::TableProfile>* preprofiled = nullptr;
  /// Host worker threads for setup and per-batch fan-out (wall-clock
  /// only; functional outputs and simulated times are thread-count
  /// invariant, see DESIGN.md §"Host execution backend"). 0 = the
  /// process-wide default pool width, 1 = serial.
  std::uint32_t num_threads = 0;
  /// Hardware-contract checker (DESIGN.md §7): shadow-state validation
  /// of every MRAM/DMA access, static plan audits at Setup, and the
  /// kernel_cost-vs-kernel_sim cross-audit on every launch. Violations
  /// accumulate in check_report(); simulated results are unchanged.
  /// Off (the default) compiles to no-ops on the hot path.
  bool check_mode = false;
};

/// Prices one batch's dense stages for the whole model on `cpu`: the
/// bottom MLP, and the interaction + top MLP with its feature stream.
/// Sets out->bottom_mlp and out->interaction_top, then out->total from
/// them and out->stages. The flat and sharded engines share it, so a
/// fleet prices the full model's dense work once, not each shard's
/// sub-model.
void PriceDenseStages(const host::CpuTimingModel& cpu,
                      const dlrm::DlrmConfig& config, std::size_t batch,
                      BatchResult* out);

class UpDlrmEngine {
 public:
  /// `model` == nullptr selects timing-only mode (config supplies the
  /// shapes); otherwise the system must be functional and the engine
  /// places real data. `trace` doubles as the profiling trace
  /// (obj_freq / cache mining) and the serving workload, like the
  /// paper's historical-trace profiling; it must outlive the engine.
  static Result<std::unique_ptr<UpDlrmEngine>> Create(
      const dlrm::DlrmModel* model, const dlrm::DlrmConfig& config,
      const trace::Trace& trace, pim::DpuSystem* system,
      EngineOptions options);

  /// Runs one batch; `dense` may be null (skips CTR computation, still
  /// accounts MLP time).
  Result<BatchResult> RunBatch(trace::BatchRange range,
                               const dlrm::DenseInputs* dense);

  /// Runs one batch over an explicit (not necessarily contiguous) list
  /// of trace sample ids — the serving layer's dynamic batcher coalesces
  /// whatever requests are queued, and admission control can punch holes
  /// into the arrival order. Sample ids index both the trace and
  /// `dense`. Equivalent to RunBatch for a contiguous ascending list.
  /// Fails with InvalidArgument on a sample outside the trace or, in
  /// functional mode, on a `dense` whose feature count differs from
  /// config.dense_features or that lacks a requested sample.
  Result<BatchResult> RunSamples(std::span<const std::size_t> samples,
                                 const dlrm::DenseInputs* dense);

  /// Runs the whole trace in batches of options.batch_size.
  Result<InferenceReport> RunAll(const dlrm::DenseInputs* dense);

  std::uint32_t nc() const { return nc_; }
  /// Whole-rank model replicas R in use (1 = the paper's single copy).
  std::uint32_t replicas() const { return replicas_; }
  /// One group per table, shared by every replica (ReplicaDpu maps a
  /// group's DPU to each copy's global id).
  const std::vector<TableGroup>& groups() const { return groups_; }
  /// The DPU system this engine runs on (for telemetry emission and
  /// the straggler report).
  const pim::DpuSystem& dpu_system() const { return *system_; }

  /// Inverse of ReplicaDpu: which (replica, table, bin, column shard) a
  /// global DPU id serves; nullopt for DPUs no group uses.
  struct DpuLocation {
    std::uint32_t replica = 0;
    std::uint32_t table = 0;
    std::uint32_t bin = 0;
    std::uint32_t col = 0;
  };
  std::optional<DpuLocation> LocateDpu(std::uint32_t dpu) const;
  /// Global id of replica `replica`'s DPU (bin, col_shard) of `group`.
  std::uint32_t ReplicaDpu(std::uint32_t replica, const TableGroup& group,
                           std::uint32_t bin, std::uint32_t col_shard) const {
    return replica * replica_dpus_ + group.GlobalDpu(bin, col_shard);
  }
  /// Present when Nc or R was chosen automatically; `best` is the
  /// candidate Setup built (the first one, in ascending cost, whose
  /// plans fit MRAM).
  const std::optional<partition::TileOptimizerResult>& tile_optimization()
      const {
    return tile_result_;
  }
  const EngineOptions& options() const { return options_; }
  bool functional() const { return model_ != nullptr; }
  /// The reference model (null in timing-only mode). The full-path
  /// serving pipeline builds its batched MLP stacks from it.
  const dlrm::DlrmModel* model() const { return model_; }
  const trace::Trace& trace() const { return trace_; }
  const dlrm::DlrmConfig& config() const { return config_; }
  /// Calibrated host timing model (the data-flow tuner prices MLP /
  /// interaction placement candidates with the same model the engine
  /// charges).
  const host::CpuTimingModel& cpu_model() const { return cpu_; }

  /// Violation report of the hardware-contract checker; null unless
  /// options.check_mode.
  const check::CheckReport* check_report() const {
    return checker_ != nullptr ? &checker_->report() : nullptr;
  }
  /// The same report, for a serving layer that audits the schedule it
  /// runs on this engine; null unless options.check_mode.
  check::CheckReport* mutable_check_report() {
    return checker_ != nullptr ? &checker_->report() : nullptr;
  }
  /// Total violations recorded so far (0 when checks are off).
  std::uint64_t check_violations() const {
    return checker_ != nullptr ? checker_->report().total() : 0;
  }

  ~UpDlrmEngine();

 private:
  UpDlrmEngine(const dlrm::DlrmModel* model, dlrm::DlrmConfig config,
               const trace::Trace& trace, pim::DpuSystem* system,
               EngineOptions options);

  Status Setup();
  // Builds every table's group at the current (nc_, replicas_,
  // dpus_per_table_) into groups_; no MRAM writes.
  Status BuildGroups();
  Result<partition::PartitionPlan> BuildPlan(
      std::uint32_t table, const trace::TableProfile& profile) const;

  // Check-mode Setup pass over one built group: static plan audit,
  // WRAM-tier capacity audit, and MRAM region registration of every
  // replica's copy for the shadow-state access validator.
  void AuditGroup(const TableGroup& group);

  // options_.wram_cache_rows clamped to the WRAM left over by the
  // kernel's per-tasklet working buffers at this row width.
  std::uint32_t EffectiveWramRows(std::uint32_t row_bytes) const;

  // One bin's stage-1 list, reused across batches: the whole batch's
  // routed references, or the share one replica was dealt. Functional
  // mode builds the wire image: slot references encoded at the format's
  // id width with per-sample prefix counts into them, then (once the
  // call's offset width is known) the encoded offset arrays.
  struct BinRoute {
    std::vector<std::uint8_t> emt_ids;    // functional only
    std::vector<std::uint8_t> cache_ids;  // functional only
    // Per-sample prefix counts (functional only), encoded into
    // `offsets` at the call's width.
    std::vector<std::uint32_t> emt_offsets;
    std::vector<std::uint32_t> cache_offsets;
    std::vector<std::uint8_t> offsets;
    std::uint64_t emt_count = 0;
    std::uint64_t cache_count = 0;
    /// References served by the bin's pinned WRAM tier (timing split of
    /// what was historically emt_count; functional slots are unchanged).
    std::uint64_t wram_count = 0;
    std::uint64_t refs() const { return emt_count + wram_count + cache_count; }
    // Empties the list; functional mode opens both prefix arrays at 0.
    void Clear(bool functional);
    // Writes `offsets`: the EMT array, then the cache array when
    // `arrays` == 2, each offset `bytes` wide.
    void EncodeOffsets(std::uint32_t arrays, std::uint32_t bytes);
  };

  // One sample's references to one bin, by serving tier.
  struct SampleRefs {
    std::uint32_t emt = 0;
    std::uint32_t wram = 0;
    std::uint32_t cache = 0;
  };

  // Routing and deal scratch for one group, reused across batches. Each
  // group owns its scratch, so routing and the deal fan out per group
  // with no shared mutable state.
  struct GroupScratch {
    std::vector<BinRoute> routed;   // per bin, the whole batch
    std::vector<SampleRefs> refs;   // [batch position * bins + bin]
    std::vector<std::uint32_t> list_mask;
    std::vector<std::uint32_t> touched_lists;
    // The deal of one bin: samples keyed heaviest first, each one's
    // copy, and every copy's load and room.
    std::vector<std::uint64_t> order;
    std::vector<std::uint32_t> owner;
    std::vector<std::uint64_t> load;
    std::vector<std::size_t> room;
  };

  // Stage 1 for group g: route the batch's indices to bins (and, in
  // functional mode, to absolute MRAM slots) in `scratch`, then deal
  // each bin's samples across the replicas into `copy_routes_` and
  // `deal_slots_`. `chunk` is ⌈batch / R⌉, the samples a full copy
  // takes.
  void RouteGroup(std::size_t g, std::span<const std::size_t> samples,
                  std::size_t chunk, GroupScratch& scratch);

  // Cost of one batch at tile width `nc` with `replicas` copies, each
  // split across tables by `alloc` (the (Nc, R) search for
  // heterogeneous / non-equal allocations).
  Nanos EstimateBatchCost(std::uint32_t nc, std::uint32_t replicas,
                          std::span<const std::uint32_t> alloc) const;

  const dlrm::DlrmModel* model_;  // null in timing-only mode
  dlrm::DlrmConfig config_;
  const trace::Trace& trace_;
  pim::DpuSystem* system_;
  EngineOptions options_;
  host::CpuTimingModel cpu_;

  std::vector<std::uint32_t> dpus_per_table_;
  std::vector<std::uint32_t> first_dpu_;
  std::uint32_t nc_ = 0;
  std::uint32_t replicas_ = 1;
  // DPUs per replica: the global-id stride between copies.
  std::uint32_t replica_dpus_ = 0;
  std::optional<partition::TileOptimizerResult> tile_result_;
  std::vector<TableGroup> groups_;

  // Scratch reused across batches: one per group, and one stage-1 list
  // per stage-2 task (replica, group, bin), at the task's id.
  std::vector<GroupScratch> scratch_;
  std::vector<BinRoute> copy_routes_;
  // The call's slot table: entry task * chunk + p is the batch position
  // of the p-th sample that stage-2 task's bin was dealt.
  std::vector<std::uint32_t> deal_slots_;
  // Sample-id scratch for the RunBatch(range) -> RunSamples adapter.
  std::vector<std::size_t> range_samples_;
  // Per-batch buffers reused across RunSamples calls, assign()ed each
  // batch (capacity persists: zero heap allocations per batch once
  // warm, asserted by tests/serve/alloc_test.cc). Per-task accumulator
  // scratch lives in the per-worker ThreadArena instead.
  std::vector<std::uint64_t> push_bytes_;
  std::vector<std::uint64_t> pull_bytes_;
  std::vector<Cycles> bin_cycles_;
  std::vector<Status> bin_status_;
  std::vector<std::int64_t> pooled_acc_;
  std::vector<std::int32_t> wires_;
  // Per-rank stage-3 byte totals (the aggregation price's input).
  std::vector<std::uint64_t> rank_bytes_;
  std::vector<Status> fn_status_;
  // Flattened fan-out offsets within one replica: task id ranges for
  // the per-(group, bin) stage-2 tasks and the per-(group, bin, col)
  // functional tasks. Replica r's tasks follow replica r - 1's.
  std::vector<std::size_t> bin_task_start_;  // size groups + 1
  std::vector<std::size_t> fn_task_start_;   // size groups + 1

  // Hardware-contract checker; null unless options_.check_mode. Its
  // observers hook system_'s banks, so the destructor detaches them.
  std::unique_ptr<check::Checker> checker_;
};

}  // namespace updlrm::core
