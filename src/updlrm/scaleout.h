// Fleet-scale sharded serving: one engine per PIM shard, table-group
// placement, statistical tiering, and a cross-shard merge that
// preserves bit-exactness.
//
// A shard is a group of ranks running a complete UpDlrmEngine over the
// tables and rows the tiering plan (partition/tiering.h) assigned to
// it. Tables are placed in groups: with G = gcd(tables, shards), a
// shard serves only its group's T/G tables, and each of those tables'
// PIM rows are dealt over the group's S/G shards. So 4 shards over 8
// tables serve 2 whole tables each; 16 shards over 8 tables split each
// table over 2 shards; coprime counts deal every table over every shard
// (the row-wise layout). Per batch:
//
//   1. fan-out — each shard runs the batch against its sub-trace (the
//      original samples of its tables with only shard-owned indices,
//      remapped to dense local row ids);
//   2. merge on pull — shards return raw Q15.16 int64 pooled
//      accumulators for their tables (EngineOptions::emit_fixed_pooled);
//      the host adds each into its tables' global slots, folds in the
//      host-DRAM tier's contributions (rows gathered from the reference
//      tables at CPU cost), and converts to float once. Integer lane
//      addition is exactly associative, so the merged pooled output is
//      bit-identical to a flat engine over the whole model — and on the
//      degenerate 1-shard plan with no DRAM spill, the whole path IS
//      the flat path.
//
// The host-DRAM tier holds only rows PIM cannot: zero-frequency rows
// and rows past tiering.pim_capacity_rows_per_shard. Serving a lookup
// from PIM costs the host its 4-byte index in the stage-1 push; a
// random DRAM gather of the row costs many times more. So Setup
// hands the planner a zero spill budget and tiering.dram_epsilon is
// not applied; tier_plan().options records the budget used.
//
// Timing composes as: per-stage max across shards (shards execute
// concurrently on disjoint rank groups; a remote shard's stage-1 push
// pays cross-host ingress inside its own transfer model via
// FleetTopologyConfig::host_offset, while its stage-3 pull and reduce
// run on its own host), then the cross-shard merge priced with
// pim::PlanReduction, with the DRAM-tier gather overlapping the reduce
// on the front-end host. The merge sums only where it must: a table
// group's S/G shards sum their row slices of its tables in a tree of
// ceil(log2(S/G)) levels (all groups concurrently, each level moving
// one group slice of batch x T/G x dim x 8 B), then every other
// group's merged slice crosses to the front end once in a single
// gather. G = 1 is the all-shard tree at the full pooled buffer, and
// G = S a gather of S - 1 slices. BatchResult::aggregate_parts carries
// the three parts of the host aggregate: max(shard reduce, DRAM
// gather) + merge. The dense stages are priced once, for all tables,
// on the front end.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "check/report.h"
#include "common/status.h"
#include "dlrm/model.h"
#include "host/cpu_model.h"
#include "partition/tiering.h"
#include "pim/system.h"
#include "trace/trace.h"
#include "updlrm/engine.h"
#include "updlrm/report.h"

namespace updlrm::core {

struct ShardedEngineConfig {
  /// Tiering/sharding knobs; tiering.num_shards is the shard count.
  /// tiering.dram_epsilon is not applied (accessed rows stay on PIM).
  partition::TieringOptions tiering;
  /// Template for each shard's DPU slice (num_dpus, dpus_per_rank,
  /// timing params, functional flag). Each shard's topology is derived
  /// from `fleet_topology` with the shard's host offset filled in.
  pim::DpuSystemConfig shard_system;
  /// Whole-fleet rank/host layout: the ranks of shard s are fleet ranks
  /// [s * R, (s + 1) * R) where R = shard_system ranks. Prices the
  /// cross-shard merge and each remote shard's push ingress.
  pim::FleetTopologyConfig fleet_topology;

  Status Validate() const;
};

class ShardedEngine {
 public:
  /// `model` == nullptr selects timing-only mode, exactly as for
  /// UpDlrmEngine. `trace` profiles the tiering plan and serves as the
  /// workload; both must outlive the engine. `options` configures every
  /// per-shard engine (emit_fixed_pooled is forced on; preprofiled /
  /// premined_cache are cleared — they describe the unsharded trace).
  /// options.replicas applies per shard: each shard's engine copies its
  /// sub-model over its own ranks.
  static Result<std::unique_ptr<ShardedEngine>> Create(
      const dlrm::DlrmModel* model, const dlrm::DlrmConfig& config,
      const trace::Trace& trace, ShardedEngineConfig fleet,
      EngineOptions options);

  /// Batch over explicit sample ids (the serving fan-out path).
  Result<BatchResult> RunSamples(std::span<const std::size_t> samples,
                                 const dlrm::DenseInputs* dense);

  /// Contiguous-range adapter, mirroring UpDlrmEngine::RunBatch.
  Result<BatchResult> RunBatch(trace::BatchRange range,
                               const dlrm::DenseInputs* dense);

  /// Runs the whole trace in batches of options.batch_size.
  Result<InferenceReport> RunAll(const dlrm::DenseInputs* dense);

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  const UpDlrmEngine& shard(std::uint32_t s) const {
    UPDLRM_CHECK(s < shards_.size());
    return *shards_[s];
  }
  /// Shard 0's system (serve-loop telemetry anchor: all shards share
  /// the clock and launch constants).
  const pim::DpuSystem& dpu_system() const { return *systems_.front(); }
  const partition::TierShardingPlan& tier_plan() const { return plan_; }
  const ShardedEngineConfig& fleet() const { return fleet_; }
  const trace::Trace& trace() const { return trace_; }
  bool functional() const { return model_ != nullptr; }
  const dlrm::DlrmModel* model() const { return model_; }

  /// Fleet-level audit report (shard coverage, tier capacity, fleet
  /// reduction shape); per-shard engine reports live in shard(s).
  const check::CheckReport& fleet_check_report() const { return report_; }
  /// The fleet report, for a serving layer that audits the schedule it
  /// runs on this fleet; null unless options.check_mode.
  check::CheckReport* mutable_fleet_check_report() {
    return options_.check_mode ? &report_ : nullptr;
  }
  /// Total violations: fleet-level plus every shard engine's.
  std::uint64_t check_violations() const;

 private:
  ShardedEngine(const dlrm::DlrmModel* model, dlrm::DlrmConfig config,
                const trace::Trace& trace, ShardedEngineConfig fleet,
                EngineOptions options);

  Status Setup();
  Status BuildShardInputs();

  const dlrm::DlrmModel* model_;  // null in timing-only mode
  dlrm::DlrmConfig config_;
  const trace::Trace& trace_;
  ShardedEngineConfig fleet_;
  EngineOptions options_;
  host::CpuTimingModel cpu_;

  // plan_.groups.TablesOfShard(s) is the one list of the global tables
  // shard s serves, in local table order.
  partition::TierShardingPlan plan_;
  // Per-shard sub-workloads over the shard's tables: sub-trace (local
  // row ids), sub-config (shard table shapes), sub-model (extracted
  // rows; empty when timing-only). Kept alive for the shard engines'
  // lifetime.
  std::vector<trace::Trace> sub_traces_;
  std::vector<dlrm::DlrmConfig> sub_configs_;
  std::vector<dlrm::DlrmModel> sub_models_;
  // Host-DRAM tier: per-table CSR of each sample's DRAM-tier indices
  // (global row ids into the reference tables), and the bytes of the
  // DRAM rows those lookups touch (the gather's working set).
  std::vector<trace::TableTrace> dram_traces_;
  std::uint64_t dram_working_set_bytes_ = 0;

  std::vector<std::unique_ptr<pim::DpuSystem>> systems_;
  std::vector<std::unique_ptr<UpDlrmEngine>> shards_;

  // Merge scratch, reused across batches.
  std::vector<std::int64_t> merged_acc_;
  std::vector<std::int64_t> dram_bag_;
  std::vector<std::uint64_t> shard_partial_bytes_;
  std::vector<std::size_t> range_samples_;

  check::CheckReport report_;
};

}  // namespace updlrm::core
