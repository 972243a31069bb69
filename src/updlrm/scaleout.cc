#include "updlrm/scaleout.h"

#include <algorithm>
#include <string>
#include <utility>

#include "check/scaleout_audit.h"
#include "common/fixed_point.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "pim/reduction.h"
#include "telemetry/tracer.h"
#include "trace/profiler.h"

namespace updlrm::core {

namespace {

std::uint32_t RanksPerShard(const pim::DpuSystemConfig& shard_system) {
  return static_cast<std::uint32_t>(
      CeilDiv(shard_system.num_dpus, shard_system.dpus_per_rank));
}

}  // namespace

Status ShardedEngineConfig::Validate() const {
  UPDLRM_RETURN_IF_ERROR(tiering.Validate());
  UPDLRM_RETURN_IF_ERROR(shard_system.Validate());
  UPDLRM_RETURN_IF_ERROR(fleet_topology.Validate());
  const std::uint32_t ranks = RanksPerShard(shard_system);
  const std::uint32_t rph = fleet_topology.ranks_per_host;
  if (rph > 0 && rph % ranks != 0 && ranks % rph != 0) {
    return Status::InvalidArgument(
        "shards must align to host boundaries: ranks_per_host and the "
        "per-shard rank count must divide one another");
  }
  if (fleet_topology.host_offset != 0) {
    return Status::InvalidArgument(
        "fleet_topology.host_offset is derived per shard; leave it 0");
  }
  return Status::Ok();
}

ShardedEngine::ShardedEngine(const dlrm::DlrmModel* model,
                             dlrm::DlrmConfig config,
                             const trace::Trace& trace,
                             ShardedEngineConfig fleet,
                             EngineOptions options)
    : model_(model),
      config_(std::move(config)),
      trace_(trace),
      fleet_(std::move(fleet)),
      options_(std::move(options)),
      cpu_(options_.cpu) {}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const dlrm::DlrmModel* model, const dlrm::DlrmConfig& config,
    const trace::Trace& trace, ShardedEngineConfig fleet,
    EngineOptions options) {
  UPDLRM_RETURN_IF_ERROR(config.Validate());
  UPDLRM_RETURN_IF_ERROR(fleet.Validate());
  UPDLRM_RETURN_IF_ERROR(trace.Validate());
  if (trace.num_tables() != config.num_tables) {
    return Status::InvalidArgument("trace/table-count mismatch");
  }
  auto engine = std::unique_ptr<ShardedEngine>(new ShardedEngine(
      model, config, trace, std::move(fleet), std::move(options)));
  UPDLRM_RETURN_IF_ERROR(engine->Setup());
  return engine;
}

Status ShardedEngine::BuildShardInputs() {
  const std::uint32_t shards = fleet_.tiering.num_shards;
  const std::uint32_t tables = config_.num_tables;
  const std::uint32_t dim = config_.embedding_dim;
  const std::size_t samples = trace_.num_samples();
  const partition::ShardGroups& groups = plan_.groups;

  // Shard s serves only its group's tables: its local table j is global
  // table groups.TablesOfShard(s).begin + j in the sub-config, the
  // sub-trace and the sub-model alike.
  sub_configs_.assign(shards, config_);
  sub_traces_.assign(shards, trace::Trace());
  for (std::uint32_t s = 0; s < shards; ++s) {
    const partition::IdRange owned = groups.TablesOfShard(s);
    dlrm::DlrmConfig& sub = sub_configs_[s];
    sub.num_tables = owned.size();
    // Extracted shard tables never share a backing store — every shard
    // slice of every table is distinct row content.
    sub.share_table_content = false;
    sub.table_rows.clear();
    for (std::uint32_t t = owned.begin; t < owned.end; ++t) {
      // A table whose every row spilled keeps one zero row: an engine
      // table cannot be empty, and no lookup reaches it.
      sub.table_rows.push_back(
          std::max<std::uint64_t>(1, plan_.tables[t].shard_rows[s]));
    }
    sub_traces_[s].items_per_table = sub.table_rows;
    sub_traces_[s].tables.resize(owned.size());
  }

  // Sub-traces: each sample keeps only the shard's rows, remapped to
  // dense local ids. Locals ascend with global row order per owner, so
  // the remap is strictly monotone and AppendSample's sorted-unique
  // contract is preserved. Tables run in parallel: table t writes only
  // its own sub-trace slots and DRAM trace, and the working-set sum is
  // taken in table order afterwards.
  dram_traces_.assign(tables, trace::TableTrace());
  std::vector<std::uint64_t> touched_rows(tables, 0);
  ParallelFor(
      tables,
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint32_t> remapped;
        std::vector<bool> dram_touched;
        for (std::size_t t = begin; t < end; ++t) {
          const partition::TableTierPlan& tiers = plan_.tables[t];
          const partition::IdRange owners =
              groups.ShardsOfTable(static_cast<std::uint32_t>(t));
          // The gather's working set is the DRAM rows lookups actually
          // touch; zero-frequency rows sit in the tier but never reach
          // the cache.
          dram_touched.assign(tiers.num_rows(), false);
          for (std::size_t i = 0; i < samples; ++i) {
            const auto idx = trace_.tables[t].Sample(i);
            for (std::uint32_t s = owners.begin; s < owners.end; ++s) {
              remapped.clear();
              for (const std::uint32_t r : idx) {
                if (tiers.owner[r] == s) remapped.push_back(tiers.local[r]);
              }
              sub_traces_[s]
                  .tables[t - groups.TablesOfShard(s).begin]
                  .AppendSample(remapped);
            }
            remapped.clear();
            for (const std::uint32_t r : idx) {
              if (tiers.owner[r] == partition::kHostDramShard) {
                remapped.push_back(r);  // global ids: served by the reference
                if (!dram_touched[r]) {
                  dram_touched[r] = true;
                  ++touched_rows[t];
                }
              }
            }
            dram_traces_[t].AppendSample(remapped);
          }
        }
      },
      options_.num_threads);
  for (const std::uint64_t rows : touched_rows) {
    dram_working_set_bytes_ += rows * dim * 4ULL;
  }

  // Sub-models: extract each shard's owned rows (ascending global id ==
  // ascending local id) into a dense table with identical contents.
  if (model_ != nullptr) {
    sub_models_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      const partition::IdRange owned = groups.TablesOfShard(s);
      std::vector<std::shared_ptr<const dlrm::EmbeddingTable>> sub_tables;
      sub_tables.reserve(owned.size());
      for (std::uint32_t t = owned.begin; t < owned.end; ++t) {
        const partition::TableTierPlan& tiers = plan_.tables[t];
        const dlrm::EmbeddingTable& ref = model_->table(t);
        const std::uint64_t rows =
            sub_configs_[s].table_rows[t - owned.begin];
        std::vector<float> data;
        data.reserve(rows * dim);
        for (std::uint64_t r = 0; r < tiers.owner.size(); ++r) {
          if (tiers.owner[r] != s) continue;
          const auto row = ref.Row(r);
          data.insert(data.end(), row.begin(), row.end());
        }
        if (data.empty()) data.assign(dim, 0.0f);  // the one zero row
        auto table = dlrm::EmbeddingTable::FromData(rows, dim,
                                                    std::move(data));
        if (!table.ok()) return table.status();
        sub_tables.push_back(std::make_shared<const dlrm::EmbeddingTable>(
            std::move(table).value()));
      }
      auto sub_model = dlrm::DlrmModel::CreateWithTables(
          sub_configs_[s], std::move(sub_tables));
      if (!sub_model.ok()) return sub_model.status();
      sub_models_.push_back(std::move(sub_model).value());
    }
  }
  return Status::Ok();
}

Status ShardedEngine::Setup() {
  const std::uint32_t shards = fleet_.tiering.num_shards;
  const std::uint32_t tables = config_.num_tables;

  {
    telemetry::TraceSpan span("scaleout.plan", "scaleout");
    // Tiering plan from the access profiles (shared ones when provided
    // — they describe the unsharded trace, which is exactly what the
    // tiering planner consumes).
    std::vector<trace::TableProfile> local_profiles;
    std::span<const trace::TableProfile> profiles;
    if (options_.preprofiled != nullptr &&
        options_.preprofiled->size() == tables) {
      profiles = *options_.preprofiled;
    } else {
      local_profiles.reserve(tables);
      for (std::uint32_t t = 0; t < tables; ++t) {
        local_profiles.push_back(trace::ProfileTable(
            trace_.tables[t], trace_.ItemsInTable(t)));
      }
      profiles = local_profiles;
    }
    // Accessed rows stay on PIM: a random host-DRAM gather of a row
    // costs the host many times more than pushing its 4-byte index in
    // stage 1. The planner gets a zero spill budget, so only
    // zero-frequency rows and rows past pim_capacity_rows_per_shard
    // land in DRAM.
    partition::TieringOptions tiering = fleet_.tiering;
    tiering.dram_epsilon = 0.0;
    auto plan = partition::BuildTierShardingPlan(profiles, tiering);
    if (!plan.ok()) return plan.status();
    plan_ = std::move(plan).value();
  }

  if (options_.check_mode) {
    const partition::ShardGroups groups{tables, shards};
    for (std::uint32_t t = 0; t < tables; ++t) {
      check::AuditShardCoverage(t, plan_.tables[t], groups, &report_);
      check::AuditTierCapacity(t, plan_.tables[t], plan_.options, &report_);
    }
  }

  {
    telemetry::TraceSpan span("scaleout.inputs", "scaleout");
    UPDLRM_RETURN_IF_ERROR(BuildShardInputs());
  }

  // Per-shard systems and engines, built concurrently (each shard's
  // engine owns disjoint inputs); errors report in shard order. Shard s
  // owns fleet ranks [s * R, (s + 1) * R); its transfer model prices
  // its pushes' cross-host ingress itself via the host offset of its
  // first rank.
  const std::uint32_t ranks = RanksPerShard(fleet_.shard_system);
  const std::uint32_t rph = fleet_.fleet_topology.ranks_per_host;
  systems_.resize(shards);
  shards_.resize(shards);
  std::vector<Status> built(shards);
  auto build_shard = [&](std::uint32_t s) -> Status {
    pim::DpuSystemConfig sc = fleet_.shard_system;
    sc.topology = fleet_.fleet_topology;
    sc.topology.host_offset =
        rph == 0 ? 0 : (static_cast<std::uint64_t>(s) * ranks) / rph;
    auto system = pim::DpuSystem::Create(sc);
    if (!system.ok()) return system.status();
    systems_[s] = std::move(system).value();

    EngineOptions sub = options_;
    sub.emit_fixed_pooled = true;  // shards return int64 accumulators
    sub.preprofiled = nullptr;     // profiles describe the full trace
    sub.premined_cache = nullptr;
    auto engine = UpDlrmEngine::Create(
        model_ != nullptr ? &sub_models_[s] : nullptr, sub_configs_[s],
        sub_traces_[s], systems_[s].get(), std::move(sub));
    if (!engine.ok()) return engine.status();
    shards_[s] = std::move(engine).value();
    return Status::Ok();
  };
  ParallelFor(
      shards,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          built[s] = build_shard(static_cast<std::uint32_t>(s));
        }
      },
      options_.num_threads);
  for (const Status& status : built) UPDLRM_RETURN_IF_ERROR(status);
  return Status::Ok();
}

Result<BatchResult> ShardedEngine::RunSamples(
    std::span<const std::size_t> samples, const dlrm::DenseInputs* dense) {
  if (samples.empty()) {
    return Status::InvalidArgument("empty sample batch");
  }
  const std::size_t batch = samples.size();
  const std::uint32_t tables = config_.num_tables;
  const std::uint32_t dim = config_.embedding_dim;
  const std::uint32_t shards = num_shards();
  const bool fn = functional();
  const std::size_t pooled_size =
      batch * static_cast<std::size_t>(tables) * dim;

  BatchResult out;
  shard_partial_bytes_.assign(shards, 0);
  if (fn) merged_acc_.assign(pooled_size, 0);

  // Fan-out: every shard runs the batch against its slice. Shards
  // execute concurrently on disjoint rank groups, so the merged stage
  // times are per-stage maxima; the int64 shard accumulators merge in
  // fixed shard order (exactly associative, so the order is cosmetic).
  // The fabric share of stage 1 is what the slowest shard's push adds
  // over the slowest bus part, so bus part + ingress == stage 1.
  Nanos bus_push = 0.0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    auto r = shards_[s]->RunSamples(samples, nullptr);
    if (!r.ok()) return r.status();
    out.stages.cpu_to_dpu =
        std::max(out.stages.cpu_to_dpu, r->stages.cpu_to_dpu);
    bus_push = std::max(bus_push, r->stages.cpu_to_dpu - r->stages.ingress);
    out.stages.dpu_lookup =
        std::max(out.stages.dpu_lookup, r->stages.dpu_lookup);
    out.stages.dpu_to_cpu =
        std::max(out.stages.dpu_to_cpu, r->stages.dpu_to_cpu);
    // Every shard launches and pulls once per batch, concurrently.
    out.stages.lookup_fixed =
        std::max(out.stages.lookup_fixed, r->stages.lookup_fixed);
    out.stages.pull_fixed =
        std::max(out.stages.pull_fixed, r->stages.pull_fixed);
    out.stages.cpu_aggregate =
        std::max(out.stages.cpu_aggregate, r->stages.cpu_aggregate);
    out.max_index_bytes = std::max(out.max_index_bytes, r->max_index_bytes);
    // Each shard picks its call's widths; report the widest.
    if (s == 0) out.index_wire = r->index_wire;
    out.index_wire.id_bytes =
        std::max(out.index_wire.id_bytes, r->index_wire.id_bytes);
    out.index_wire.offset_bytes = std::max(out.index_wire.offset_bytes,
                                           r->index_wire.offset_bytes);
    out.max_output_bytes =
        std::max(out.max_output_bytes, r->max_output_bytes);
    shard_partial_bytes_[s] = r->partial_bytes;
    out.partial_bytes += r->partial_bytes;
    if (s == 0) out.dpu_trace = r->dpu_trace;
    if (fn) {
      // The shard's batch x k x dim accumulators land in the global
      // slots of its k contiguous tables.
      const partition::IdRange owned = plan_.groups.TablesOfShard(s);
      const std::size_t width = static_cast<std::size_t>(owned.size()) * dim;
      UPDLRM_CHECK(r->pooled_fixed.size() == batch * width);
      for (std::size_t i = 0; i < batch; ++i) {
        simd::AddI64ToI64(
            r->pooled_fixed.data() + i * width,
            merged_acc_.data() +
                (i * tables + owned.begin) * static_cast<std::size_t>(dim),
            width);
      }
    }
  }

  out.stages.ingress = out.stages.cpu_to_dpu - bus_push;

  // Host-DRAM tier: cold rows gathered from the reference tables on the
  // front-end host, overlapping the shard-side reduce.
  std::uint64_t dram_lookups = 0;
  for (std::uint32_t t = 0; t < tables; ++t) {
    const trace::TableTrace& cold = dram_traces_[t];
    for (std::size_t i = 0; i < batch; ++i) {
      const auto idx = cold.Sample(samples[i]);
      dram_lookups += idx.size();
      if (!fn || idx.empty()) continue;
      dram_bag_.assign(dim, 0);
      model_->table(t).BagSumFixed(idx, dram_bag_);
      simd::AddI64ToI64(
          dram_bag_.data(),
          merged_acc_.data() + (i * tables + t) * static_cast<std::size_t>(dim),
          dim);
    }
  }

  // Cross-shard merge price: PlanReduction over per-shard partial
  // bytes, with each shard acting as one "rank" of a shard-granular
  // topology (hosts rescaled to shard units) and the table groups as
  // its groups: each group's shards sum its slice in a tree, then every
  // other group's slice is gathered to the front end once. Each shard
  // pulled and reduced its own partials on its own host, inside the
  // per-stage max; the fleet charge adds the merge on top, with the
  // DRAM gather overlapping the concurrent shard reduces.
  pim::FleetTopologyConfig shard_topo_config = fleet_.fleet_topology;
  const std::uint32_t ranks = RanksPerShard(fleet_.shard_system);
  const std::uint32_t rph = fleet_.fleet_topology.ranks_per_host;
  shard_topo_config.ranks_per_host =
      rph == 0 ? 0 : std::max<std::uint32_t>(1, rph / ranks);
  const pim::FleetTopology shard_topo(shard_topo_config, shards);
  const std::uint32_t groups = plan_.groups.num_groups();
  const std::uint64_t slice_bytes = static_cast<std::uint64_t>(batch) *
                                    (tables / groups) * dim *
                                    sizeof(std::int64_t);
  out.reduction =
      pim::PlanReduction(shard_topo, shard_partial_bytes_, slice_bytes, groups);
  if (options_.check_mode) {
    check::AuditReductionPlan(out.reduction, shards, groups, &report_);
  }
  AggregateParts& parts = out.aggregate_parts;
  parts.merge_tree = out.reduction.tree_ns;
  parts.shard_reduce = out.stages.cpu_aggregate;
  parts.dram_gather =
      dram_lookups == 0
          ? 0.0
          : cpu_.GatherTime(dram_lookups, dim * 4, dram_working_set_bytes_);
  out.stages.cpu_aggregate =
      std::max(parts.shard_reduce, parts.dram_gather) + parts.merge_tree;

  // Dense stages run once on the front end over all tables.
  PriceDenseStages(cpu_, config_, batch, &out);

  if (fn) {
    out.pooled.resize(pooled_size);
    for (std::size_t i = 0; i < pooled_size; ++i) {
      out.pooled[i] = FromFixedSum(merged_acc_[i]);
    }
    if (options_.emit_fixed_pooled) {
      out.pooled_fixed.assign(merged_acc_.begin(), merged_acc_.end());
    }
    if (dense != nullptr) {
      out.ctr.reserve(batch);
      const std::size_t width = static_cast<std::size_t>(tables) * dim;
      for (std::size_t i = 0; i < batch; ++i) {
        out.ctr.push_back(model_->ForwardSample(
            dense->Sample(samples[i]),
            std::span<const float>(out.pooled.data() + i * width, width)));
      }
    }
  }
  return out;
}

Result<BatchResult> ShardedEngine::RunBatch(trace::BatchRange range,
                                            const dlrm::DenseInputs* dense) {
  if (range.size() == 0 || range.end > trace_.num_samples()) {
    return Status::InvalidArgument("invalid batch range");
  }
  range_samples_.resize(range.size());
  for (std::size_t i = 0; i < range.size(); ++i) {
    range_samples_[i] = range.begin + i;
  }
  return RunSamples(range_samples_, dense);
}

Result<InferenceReport> ShardedEngine::RunAll(
    const dlrm::DenseInputs* dense) {
  InferenceReport report;
  for (const trace::BatchRange& range :
       trace::MakeBatches(trace_.num_samples(), options_.batch_size)) {
    auto batch = RunBatch(range, dense);
    if (!batch.ok()) return batch.status();
    report.Accumulate(batch.value());
    report.num_samples += range.size();
  }
  return report;
}

std::uint64_t ShardedEngine::check_violations() const {
  std::uint64_t total = report_.total();
  for (const auto& shard : shards_) total += shard->check_violations();
  return total;
}

}  // namespace updlrm::core
