#include "updlrm/engine.h"

#include <algorithm>
#include <cmath>

#include "common/arena.h"
#include "common/fixed_point.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "pim/reduction.h"
#include "pim/wire_format.h"
#include "telemetry/tracer.h"
#include "trace/profiler.h"
#include "updlrm/timeline.h"

namespace updlrm::core {

namespace {

// Index of the group whose task range [start[g], start[g + 1]) holds
// the replica-local task id `local`.
std::size_t GroupOfTask(std::span<const std::size_t> start,
                        std::size_t local) {
  return static_cast<std::size_t>(
             std::upper_bound(start.begin(), start.end(), local) -
             start.begin()) -
         1;
}

// Appends `value` to `out` as a `bytes`-wide little-endian field.
void AppendLE(std::vector<std::uint8_t>& out, std::uint32_t value,
              std::uint32_t bytes) {
  const std::size_t at = out.size();
  out.resize(at + bytes);
  pim::PutLE(value, bytes, out.data() + at);
}

}  // namespace

void PriceDenseStages(const host::CpuTimingModel& cpu,
                      const dlrm::DlrmConfig& config, std::size_t batch,
                      BatchResult* out) {
  out->bottom_mlp = cpu.MlpTime(batch * config.BottomFlopsPerSample());
  out->interaction_top =
      cpu.MlpTime(batch * config.TopFlopsPerSample()) +
      cpu.StreamTime(batch *
                     static_cast<std::uint64_t>(config.num_tables + 1) *
                     config.embedding_dim * 4);
  out->total = std::max(out->bottom_mlp, out->stages.EmbeddingTotal()) +
               out->interaction_top;
}

void UpDlrmEngine::BinRoute::Clear(bool functional) {
  emt_ids.clear();
  cache_ids.clear();
  emt_offsets.clear();
  cache_offsets.clear();
  offsets.clear();
  emt_count = 0;
  cache_count = 0;
  wram_count = 0;
  if (functional) {
    emt_offsets.push_back(0);
    cache_offsets.push_back(0);
  }
}

void UpDlrmEngine::BinRoute::EncodeOffsets(std::uint32_t arrays,
                                           std::uint32_t bytes) {
  offsets.clear();
  for (const std::uint32_t v : emt_offsets) AppendLE(offsets, v, bytes);
  if (arrays == 2) {
    for (const std::uint32_t v : cache_offsets) AppendLE(offsets, v, bytes);
  }
}

UpDlrmEngine::UpDlrmEngine(const dlrm::DlrmModel* model,
                           dlrm::DlrmConfig config,
                           const trace::Trace& trace,
                           pim::DpuSystem* system, EngineOptions options)
    : model_(model),
      config_(std::move(config)),
      trace_(trace),
      system_(system),
      options_(std::move(options)),
      cpu_(options_.cpu) {}

UpDlrmEngine::~UpDlrmEngine() {
  // The checker's observers point into checker_-owned state; unhook
  // them from the (longer-lived) system's banks before dying.
  if (checker_ != nullptr) checker_->Detach(*system_);
}

Result<std::unique_ptr<UpDlrmEngine>> UpDlrmEngine::Create(
    const dlrm::DlrmModel* model, const dlrm::DlrmConfig& config,
    const trace::Trace& trace, pim::DpuSystem* system,
    EngineOptions options) {
  if (system == nullptr) {
    return Status::InvalidArgument("UpDlrmEngine needs a DpuSystem");
  }
  std::unique_ptr<UpDlrmEngine> engine(
      new UpDlrmEngine(model, config, trace, system, std::move(options)));
  UPDLRM_RETURN_IF_ERROR(engine->Setup());
  return engine;
}

Status UpDlrmEngine::Setup() {
  telemetry::TraceSpan span("engine.Setup", "engine");
  UPDLRM_RETURN_IF_ERROR(config_.Validate());
  if (options_.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (options_.cache_capacity_fraction < 0.0 ||
      options_.cache_capacity_fraction > 1.0) {
    return Status::InvalidArgument(
        "cache_capacity_fraction must be in [0, 1]");
  }
  if (trace_.num_tables() != config_.num_tables) {
    return Status::InvalidArgument("trace table count mismatches model");
  }
  for (std::uint32_t t = 0; t < config_.num_tables; ++t) {
    if (trace_.ItemsInTable(t) != config_.RowsInTable(t)) {
      return Status::InvalidArgument("trace item count mismatches table " +
                                     std::to_string(t) + "'s rows");
    }
  }
  if (model_ != nullptr && !system_->functional()) {
    return Status::FailedPrecondition(
        "functional engine requires a functional DpuSystem");
  }

  std::vector<dlrm::TableShape> shapes;
  std::vector<double> traffic;
  double avg_red = 0.0;
  for (std::uint32_t t = 0; t < config_.num_tables; ++t) {
    shapes.push_back(config_.table_shape(t));
    traffic.push_back(
        static_cast<double>(trace_.tables[t].num_lookups()));
    avg_red += trace_.tables[t].MeasuredAvgReduction();
  }
  avg_red = std::max(1.0, avg_red / trace_.num_tables());

  const bool equal_split =
      options_.allocation == partition::DpuAllocationPolicy::kEqual;
  const bool paper_setup = !config_.heterogeneous() && equal_split;
  if (options_.replicas > 1) {
    if (!equal_split) {
      return Status::InvalidArgument(
          "replicas > 1 needs the equal DPU allocation");
    }
    if (system_->num_ranks() % options_.replicas != 0 ||
        system_->num_dpus() % system_->config().dpus_per_rank != 0) {
      return Status::InvalidArgument(
          "replicas (" + std::to_string(options_.replicas) +
          ") must divide the rank count (" +
          std::to_string(system_->num_ranks()) + " whole ranks)");
    }
    const std::uint32_t copy_dpus = system_->num_dpus() / options_.replicas;
    if (copy_dpus < config_.num_tables ||
        (paper_setup && copy_dpus % config_.num_tables != 0)) {
      return Status::InvalidArgument(
          "replicas (" + std::to_string(options_.replicas) + ") leave " +
          std::to_string(copy_dpus) +
          " DPUs per replica, not a multiple of the table count");
    }
  }
  if (options_.check_mode) {
    checker_ = std::make_unique<check::Checker>(system_->config());
    // Attach before placement so PlaceTable's writes seed the
    // written-byte shadow state the uninit-read rule checks against.
    checker_->Attach(*system_);
  }

  auto allocate_at = [&](std::uint32_t nc, std::uint32_t replicas)
      -> Result<std::vector<std::uint32_t>> {
    if (config_.embedding_dim % nc != 0) {
      return Status::InvalidArgument("nc must divide the embedding dim");
    }
    const std::uint32_t col_shards = config_.embedding_dim / nc;
    if (paper_setup) {
      const std::uint32_t copy_dpus = system_->num_dpus() / replicas;
      if (copy_dpus % config_.num_tables != 0) {
        return Status::InvalidArgument(
            "num_dpus must be divisible by num_tables (one group per "
            "EMT)");
      }
      return std::vector<std::uint32_t>(config_.num_tables,
                                        copy_dpus / config_.num_tables);
    }
    return partition::AllocateDpus(shapes, system_->num_dpus() / replicas,
                                   col_shards, options_.allocation,
                                   traffic);
  };

  // The tile shapes (Nc, R) to build, cheapest first. Eq. 2 only bounds
  // a uniform tile; the first shape whose plans actually fit MRAM wins.
  std::vector<partition::TileCandidate> ranked;
  if (paper_setup && (options_.nc == 0 || options_.replicas == 0)) {
    const std::uint32_t pinned_nc[] = {options_.nc};
    auto tile = partition::OptimizeTileShape(
        config_.table_shape(), system_->num_dpus() / config_.num_tables,
        options_.batch_size, avg_red, *system_,
        options_.nc == 0 ? partition::DefaultNcCandidates()
                         : std::span<const std::uint32_t>(pinned_nc),
        options_.replicas, options_.packed_indices);
    if (tile.ok()) {
      tile_result_ = std::move(tile).value();
      ranked = tile_result_->candidates;
    } else if (options_.nc == 0) {
      return tile.status();
    } else {
      // A pinned Nc builds at R = 1 even where Eq. 2's uniform bound
      // rejects it; the real capacity check below decides.
      ranked.push_back({.nc = options_.nc});
    }
  } else if (options_.nc != 0 && options_.replicas != 0) {
    ranked.push_back({.nc = options_.nc, .replicas = options_.replicas});
  } else {
    // Heterogeneous tables or a non-equal allocation: price every
    // (Nc, R) with the allocation it implies. Only the equal split
    // replicates (R = 1 otherwise).
    const std::uint32_t max_r =
        options_.replicas != 0 ? options_.replicas
        : equal_split          ? system_->num_ranks()
                               : 1;
    const std::uint32_t pinned_nc[] = {options_.nc};
    for (std::uint32_t nc : options_.nc == 0
                                ? partition::DefaultNcCandidates()
                                : std::span<const std::uint32_t>(pinned_nc)) {
      for (std::uint32_t r = std::max(1U, options_.replicas); r <= max_r;
           ++r) {
        // Tables split unevenly here, so only whole ranks constrain R.
        if (!partition::ReplicasFit(r, system_->num_dpus(), *system_)) {
          continue;
        }
        auto alloc = allocate_at(nc, r);
        if (!alloc.ok() ||
            !system_->kernel_cost().ValidateWramFit(nc * 4).ok()) {
          continue;
        }
        bool feasible = true;
        for (std::uint32_t t = 0; t < config_.num_tables; ++t) {
          if (!partition::GroupGeometry::Make(shapes[t], (*alloc)[t], nc)
                   .ok()) {
            feasible = false;
            break;
          }
        }
        if (!feasible) continue;
        ranked.push_back({.nc = nc,
                          .replicas = r,
                          .total_ns = EstimateBatchCost(nc, r, *alloc)});
      }
    }
    if (ranked.empty() && options_.nc == 0) {
      return Status::InvalidArgument(
          "no feasible Nc for this model/system combination");
    }
    if (ranked.empty()) {
      ranked.push_back({.nc = options_.nc});  // the build reports why
    }
  }
  // Equal costs keep enumeration order (Nc, then R, ascending).
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const partition::TileCandidate& a,
                      const partition::TileCandidate& b) {
                     return a.total_ns < b.total_ns;
                   });
  if (options_.preprofiled != nullptr) {
    if (options_.preprofiled->size() != config_.num_tables) {
      return Status::InvalidArgument(
          "preprofiled must hold one TableProfile per table");
    }
    for (std::uint32_t t = 0; t < config_.num_tables; ++t) {
      const trace::TableProfile& p = (*options_.preprofiled)[t];
      if (p.freq.size() != config_.RowsInTable(t) ||
          p.by_freq.size() != p.freq.size()) {
        return Status::InvalidArgument(
            "preprofiled table " + std::to_string(t) +
            " does not match the table shape");
      }
    }
  }

  Status built;
  for (const partition::TileCandidate& shape : ranked) {
    nc_ = shape.nc;
    replicas_ = shape.replicas;
    if (options_.packed_indices &&
        system_->config().dpu.mram_bytes / (nc_ * 4ULL) >
            pim::kPackedSlotLimit) {
      return Status::InvalidArgument(
          "packed 3-byte slot references cannot address " +
          std::to_string(system_->config().dpu.mram_bytes) +
          " bytes of MRAM at Nc = " + std::to_string(nc_) +
          "; set EngineOptions::packed_indices = false");
    }
    replica_dpus_ = system_->num_dpus() / replicas_;
    auto alloc = allocate_at(nc_, replicas_);
    if (!alloc.ok()) return alloc.status();
    dpus_per_table_ = std::move(alloc).value();
    first_dpu_.assign(config_.num_tables, 0);
    std::uint32_t next_dpu = 0;
    for (std::uint32_t t = 0; t < config_.num_tables; ++t) {
      first_dpu_[t] = next_dpu;
      next_dpu += dpus_per_table_[t];
    }
    if (next_dpu > replica_dpus_) {
      return Status::CapacityExceeded("allocation exceeds the DPU count");
    }
    built = BuildGroups();
    if (built.code() != StatusCode::kCapacityExceeded) break;
  }
  UPDLRM_RETURN_IF_ERROR(built);
  if (tile_result_.has_value()) {
    for (const partition::TileCandidate& cand : tile_result_->candidates) {
      if (cand.nc == nc_ && cand.replicas == replicas_) {
        tile_result_->best = cand;
      }
    }
  }

  // Functional placement: every replica holds the same quantized data.
  // Each (replica, table) owns a disjoint DPU range, so writes never
  // alias; errors are reported in (replica, table) order.
  if (model_ != nullptr) {
    const std::size_t num_groups = groups_.size();
    std::vector<Status> placed(replicas_ * num_groups);
    ParallelFor(
        placed.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const TableGroup& group = groups_[i % num_groups];
            placed[i] = PlaceTable(
                model_->table(group.table_index), group, *system_,
                static_cast<std::uint32_t>(i / num_groups) * replica_dpus_);
          }
        },
        options_.num_threads);
    for (const Status& status : placed) UPDLRM_RETURN_IF_ERROR(status);
  }
  if (checker_ != nullptr) {
    for (const TableGroup& group : groups_) AuditGroup(group);
  }

  scratch_.resize(groups_.size());
  bin_task_start_.assign(groups_.size() + 1, 0);
  fn_task_start_.assign(groups_.size() + 1, 0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto& geom = groups_[g].plan.geom;
    GroupScratch& scratch = scratch_[g];
    scratch.routed.assign(geom.row_shards, BinRoute{});
    scratch.list_mask.assign(groups_[g].plan.cache.lists.size(), 0);
    scratch.load.assign(replicas_, 0);
    scratch.room.assign(replicas_, 0);
    bin_task_start_[g + 1] = bin_task_start_[g] + geom.row_shards;
    fn_task_start_[g + 1] =
        fn_task_start_[g] +
        static_cast<std::size_t>(geom.row_shards) * geom.col_shards;
  }
  copy_routes_.assign(replicas_ * bin_task_start_.back(), BinRoute{});
  return Status::Ok();
}

Status UpDlrmEngine::BuildGroups() {
  // Per-table preparation (profiling, partitioning, mining) is
  // independent across tables. Errors are reported in table order
  // regardless of completion order.
  struct BuiltGroup {
    Status status;
    TableGroup group;
  };
  std::vector<BuiltGroup> built(config_.num_tables);
  ParallelFor(
      config_.num_tables,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto t = static_cast<std::uint32_t>(i);
          // Shared profile when provided (validated in Setup); otherwise
          // profile this table's trace once here — the partitioner,
          // WRAM tier and cache miner all reuse it.
          const trace::TableProfile* profile =
              options_.preprofiled != nullptr ? &(*options_.preprofiled)[t]
                                              : nullptr;
          trace::TableProfile own_profile;
          if (profile == nullptr) {
            own_profile = trace::ProfileTable(trace_.tables[t],
                                              config_.RowsInTable(t));
            profile = &own_profile;
          }
          auto plan = BuildPlan(t, *profile);
          if (!plan.ok()) {
            built[i].status = plan.status();
            continue;
          }
          auto group = BuildTableGroup(
              t, first_dpu_[t], std::move(plan).value(), system_->config(),
              options_.reserved_io_bytes,
              /*build_row_slots=*/model_ != nullptr);
          if (!group.ok()) {
            built[i].status = group.status();
            continue;
          }
          built[i].group = std::move(group).value();
          if (options_.wram_cache_rows > 0) {
            BuildWramCache(
                built[i].group, profile->freq, profile->by_freq,
                EffectiveWramRows(built[i].group.plan.geom.row_bytes()));
          }
        }
      },
      options_.num_threads);

  groups_.clear();
  groups_.reserve(built.size());
  for (BuiltGroup& b : built) {
    UPDLRM_RETURN_IF_ERROR(b.status);
    groups_.push_back(std::move(b.group));
  }
  return Status::Ok();
}

void UpDlrmEngine::AuditGroup(const TableGroup& group) {
  const auto& geom = group.plan.geom;
  const std::uint32_t row_bytes = geom.row_bytes();
  // Audit against the regions placement actually carved out, not the
  // partitioner's own capacity arithmetic.
  check::PlanAuditLimits limits;
  limits.emt_bytes = group.layout.emt_bytes;
  limits.cache_bytes = group.layout.cache_bytes;
  limits.claims_uniform_model = options_.nc == 0 && tile_result_.has_value();
  check::AuditPlan(group.plan, limits, &checker_->report());

  const std::uint32_t max_rows =
      system_->kernel_cost().MaxWramCacheRows(row_bytes);
  for (std::uint32_t b = 0;
       b < static_cast<std::uint32_t>(group.wram_rows_per_bin.size());
       ++b) {
    check::AuditWramCapacity(b, group.wram_rows_per_bin[b], max_rows,
                             &checker_->report());
  }

  // Register every DPU's region map for the shadow-state validator.
  // Only the used prefix of the EMT/cache regions is registered (what
  // this bin's rows and lists occupy); the bases come from the shared
  // per-group layout, so any overlap here is a placement bug.
  check::AccessValidator& access = checker_->access();
  for (std::uint32_t b = 0; b < geom.row_shards; ++b) {
    const std::uint64_t emt_used = group.emt_rows_per_bin[b] * row_bytes;
    const std::uint64_t cache_used =
        group.cache_bytes_per_bin.empty() ? 0
                                          : group.cache_bytes_per_bin[b];
    for (std::uint32_t r = 0; r < replicas_; ++r) {
      for (std::uint32_t c = 0; c < geom.col_shards; ++c) {
        const std::uint32_t dpu = ReplicaDpu(r, group, b, c);
        access.RegisterRegion(dpu, check::RegionKind::kEmt,
                              group.layout.emt_base, emt_used);
        access.RegisterRegion(dpu, check::RegionKind::kCache,
                              group.layout.cache_base, cache_used);
        access.RegisterRegion(dpu, check::RegionKind::kIndex,
                              group.layout.index_base,
                              group.layout.index_bytes);
        access.RegisterRegion(dpu, check::RegionKind::kOutput,
                              group.layout.output_base,
                              group.layout.output_bytes);
      }
    }
  }
}

std::uint32_t UpDlrmEngine::EffectiveWramRows(
    std::uint32_t row_bytes) const {
  return std::min(options_.wram_cache_rows,
                  system_->kernel_cost().MaxWramCacheRows(row_bytes));
}

Nanos UpDlrmEngine::EstimateBatchCost(
    std::uint32_t nc, std::uint32_t replicas,
    std::span<const std::uint32_t> alloc) const {
  // One replica serves the largest chunk of the batch deal.
  const std::size_t samples = CeilDiv(options_.batch_size, replicas);
  const std::uint32_t col_shards = config_.embedding_dim / nc;
  // Kernel time and push bytes both grow with a DPU's lookups, so the
  // table with the most lookups per DPU prices the batch.
  std::uint64_t max_lookups = 0;
  for (std::uint32_t t = 0; t < config_.num_tables; ++t) {
    const std::uint32_t row_shards = alloc[t] / col_shards;
    const double avg_red =
        std::max(1.0, trace_.tables[t].MeasuredAvgReduction());
    const auto lookups_per_dpu = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(samples) * avg_red /
                  static_cast<double>(row_shards)));
    max_lookups = std::max(max_lookups, lookups_per_dpu);
  }
  return partition::PriceBalancedBatch(*system_, max_lookups, samples,
                                       nc * 4, options_.packed_indices)
      .total_ns;
}

Result<partition::PartitionPlan> UpDlrmEngine::BuildPlan(
    std::uint32_t table, const trace::TableProfile& profile) const {
  const std::span<const std::uint64_t> freq(profile.freq);
  const std::span<const std::uint32_t> by_freq(profile.by_freq);
  auto geom_or = partition::GroupGeometry::Make(
      config_.table_shape(table), dpus_per_table_[table], nc_);
  if (!geom_or.ok()) return geom_or.status();
  const partition::GroupGeometry& geom = geom_or.value();
  UPDLRM_RETURN_IF_ERROR(system_->kernel_cost().ValidateWramFit(
      geom.row_bytes(),
      static_cast<std::uint64_t>(EffectiveWramRows(geom.row_bytes())) *
          geom.row_bytes()));

  const std::uint64_t mram = system_->config().dpu.mram_bytes;
  if (options_.reserved_io_bytes >= mram) {
    return Status::InvalidArgument("reserved_io_bytes exceeds MRAM");
  }
  const std::uint64_t usable = mram - options_.reserved_io_bytes;

  partition::PartitionPlan plan;
  partition::BinCapacity capacity{usable, 0};
  switch (options_.method) {
    case partition::Method::kUniform: {
      auto built = partition::UniformPartition(geom);
      if (!built.ok()) return built;
      plan = std::move(built).value();
      break;
    }
    case partition::Method::kNonUniform: {
      partition::NonUniformOptions nu;
      nu.max_rows_per_bin = usable / geom.row_bytes();
      nu.order = by_freq;
      auto built = partition::NonUniformPartition(geom, freq, nu);
      if (!built.ok()) return built;
      plan = std::move(built).value();
      break;
    }
    case partition::Method::kCacheAware: {
      // Borrow the shared lists when premined (no per-engine deep copy
      // of every cache list); mine locally otherwise.
      cache::CacheRes own_mined;
      const cache::CacheRes* mined_res = nullptr;
      if (options_.premined_cache != nullptr) {
        if (options_.premined_cache->size() != config_.num_tables) {
          return Status::InvalidArgument(
              "premined_cache must hold one CacheRes per table");
        }
        mined_res = &(*options_.premined_cache)[table];
      } else {
        // Own span, so a traced ShardedEngine::Create attributes the
        // per-shard mining separately from partitioning and placement.
        telemetry::TraceSpan span("engine.setup.mine", "engine");
        cache::GraceMiner miner(options_.grace);
        auto mined = miner.Mine(trace_.tables[table],
                                config_.RowsInTable(table), &profile);
        if (!mined.ok()) return mined.status();
        own_mined = std::move(mined).value();
        mined_res = &own_mined;
      }
      const cache::CacheRes trimmed = mined_res->TrimToBudgetFraction(
          geom.row_bytes(), options_.cache_capacity_fraction);

      const std::uint64_t total_cache =
          trimmed.TotalStorageBytes(geom.row_bytes());
      // Per-bin cache regions are provisioned at headroom * (total need
      // / bins) — the greedy placement is not perfectly even.
      constexpr double kCacheHeadroom = 1.3;
      std::uint64_t cache_budget = AlignUp(
          static_cast<std::uint64_t>(
              std::ceil(kCacheHeadroom *
                        static_cast<double>(total_cache) /
                        static_cast<double>(geom.row_shards))),
          8);
      cache_budget = std::min(cache_budget, usable);

      partition::CacheAwareOptions ca;
      ca.capacity =
          partition::BinCapacity{usable - cache_budget, cache_budget};
      ca.order = by_freq;
      auto result = partition::CacheAwarePartition(geom, freq, trimmed, ca);
      if (!result.ok()) return result.status();
      plan = std::move(result).value().plan;
      capacity = ca.capacity;
      break;
    }
  }
  UPDLRM_RETURN_IF_ERROR(plan.Validate(capacity));
  return plan;
}

void UpDlrmEngine::RouteGroup(std::size_t g,
                              std::span<const std::size_t> samples,
                              std::size_t chunk, GroupScratch& scratch) {
  const bool fn = functional();
  const TableGroup& group = groups_[g];
  const auto& geom = group.plan.geom;
  const std::uint32_t bins = geom.row_shards;
  const std::uint32_t row_bytes = geom.row_bytes();
  const auto& ttrace = trace_.tables[group.table_index];
  const bool has_cache = group.plan.has_cache();
  const std::uint32_t id_bytes = pim::IdBytes(options_.packed_indices);
  const std::size_t batch = samples.size();
  for (BinRoute& rt : scratch.routed) rt.Clear(fn);
  scratch.refs.assign(batch * bins, SampleRefs{});

  // Routing: decide, per index, which bin serves it and whether a
  // cached subset sum covers it (one read per touched list, §3.3).
  // Slot references are absolute (offset / row_bytes), so EMT and cache
  // reads share one addressing scheme; functional mode writes them at
  // the wire format's id width (Setup checked that packed slots fit).
  const bool has_wram = !group.wram_pinned.empty();
  const std::uint64_t cache_ref_base = group.layout.cache_base / row_bytes;
  for (std::size_t i = 0; i < batch; ++i) {
    SampleRefs* refs = scratch.refs.data() + i * bins;
    scratch.touched_lists.clear();
    const std::span<const std::uint32_t> indices = ttrace.Sample(samples[i]);
    // Every index reads per-row tables at random rows; touching them all
    // first overlaps the cache misses instead of taking them in turn.
    for (std::uint32_t idx : indices) {
      if (has_cache) __builtin_prefetch(&group.plan.item_list[idx]);
      __builtin_prefetch(&group.plan.row_bin[idx]);
      if (has_wram) __builtin_prefetch(&group.wram_pinned[idx / 64]);
    }
    for (std::uint32_t idx : indices) {
      const std::int32_t l = has_cache ? group.plan.item_list[idx] : -1;
      if (l >= 0) {
        if (scratch.list_mask[l] == 0) {
          scratch.touched_lists.push_back(static_cast<std::uint32_t>(l));
        }
        const auto& items = group.plan.cache.lists[l].items;
        for (std::size_t k = 0; k < items.size(); ++k) {
          if (items[k] == idx) {
            scratch.list_mask[l] |= 1U << k;
            break;
          }
        }
      } else {
        const std::uint32_t bin = group.plan.row_bin[idx];
        // WRAM-pinned rows are still read from MRAM slots by the
        // functional path (WRAM holds a copy); only the timing
        // accounting splits off, so the lever cannot change outputs.
        if (has_wram && group.WramPinned(idx)) {
          ++refs[bin].wram;
        } else {
          ++refs[bin].emt;
        }
        if (fn) {
          AppendLE(scratch.routed[bin].emt_ids, group.row_slot[idx],
                   id_bytes);
        }
      }
    }
    for (std::uint32_t l : scratch.touched_lists) {
      const std::uint32_t mask = scratch.list_mask[l];
      scratch.list_mask[l] = 0;
      const auto bin = static_cast<std::uint32_t>(group.plan.list_bin[l]);
      ++refs[bin].cache;
      if (fn) {
        AppendLE(scratch.routed[bin].cache_ids,
                 static_cast<std::uint32_t>(cache_ref_base +
                                            group.list_offset[l] / row_bytes +
                                            mask - 1),
                 id_bytes);
      }
    }
    if (fn) {
      for (BinRoute& rt : scratch.routed) {
        rt.emt_offsets.push_back(
            static_cast<std::uint32_t>(rt.emt_ids.size() / id_bytes));
        rt.cache_offsets.push_back(
            static_cast<std::uint32_t>(rt.cache_ids.size() / id_bytes));
      }
    }
  }

  // The deal, per bin: copy r takes exactly ⌈batch/R⌉ samples (the last
  // copies fewer, or none), chosen by LPT — heaviest sample first, each
  // to the least-loaded copy with room, ties to the lower copy and the
  // earlier sample. A sample weighs its references' kernel issue slots,
  // so WRAM hits count for less than MRAM reads. At R = 1 every sample
  // goes to copy 0.
  const pim::EmbeddingKernelCostParams& cost = system_->config().kernel_cost;
  const Cycles read_weight = cost.ReadIssueCycles(row_bytes);
  const Cycles hit_weight = cost.WramHitIssueCycles(row_bytes);
  const std::size_t bins_per_replica = bin_task_start_.back();
  constexpr std::uint64_t kLow = 0xffffffffULL;
  scratch.owner.assign(batch, 0);
  for (std::uint32_t bin = 0; bin < bins; ++bin) {
    auto refs_of = [&](std::size_t i) -> const SampleRefs& {
      return scratch.refs[i * bins + bin];
    };
    if (replicas_ > 1) {
      // Keys sort heaviest first, then by batch position ascending.
      scratch.order.clear();
      for (std::size_t i = 0; i < batch; ++i) {
        const SampleRefs& ref = refs_of(i);
        const std::uint64_t weight = std::min<std::uint64_t>(
            (std::uint64_t{ref.emt} + ref.cache) * read_weight +
                std::uint64_t{ref.wram} * hit_weight,
            kLow);
        scratch.order.push_back(weight << 32 | (kLow - i));
      }
      std::sort(scratch.order.begin(), scratch.order.end(),
                std::greater<>());
      for (std::size_t r = 0; r < replicas_; ++r) {
        scratch.load[r] = 0;
        scratch.room[r] = std::min(chunk, batch - std::min(batch, r * chunk));
      }
      for (const std::uint64_t key : scratch.order) {
        std::size_t best = replicas_;
        for (std::size_t r = 0; r < replicas_; ++r) {
          if (scratch.room[r] > 0 &&
              (best == replicas_ || scratch.load[r] < scratch.load[best])) {
            best = r;
          }
        }
        scratch.owner[kLow - (key & kLow)] = static_cast<std::uint32_t>(best);
        scratch.load[best] += key >> 32;
        --scratch.room[best];
      }
    }

    // Each copy's list keeps batch order; `room` now counts positions.
    const std::size_t local = bin_task_start_[g] + bin;
    for (std::size_t r = 0; r < replicas_; ++r) {
      copy_routes_[r * bins_per_replica + local].Clear(fn);
      scratch.room[r] = 0;
    }
    const BinRoute& rt = scratch.routed[bin];
    for (std::size_t i = 0; i < batch; ++i) {
      const std::uint32_t r = scratch.owner[i];
      const std::size_t task = r * bins_per_replica + local;
      BinRoute& copy = copy_routes_[task];
      deal_slots_[task * chunk + scratch.room[r]++] =
          static_cast<std::uint32_t>(i);
      const SampleRefs& ref = refs_of(i);
      copy.emt_count += ref.emt;
      copy.wram_count += ref.wram;
      copy.cache_count += ref.cache;
      if (fn) {
        copy.emt_ids.insert(copy.emt_ids.end(),
                            rt.emt_ids.begin() + rt.emt_offsets[i] * id_bytes,
                            rt.emt_ids.begin() +
                                rt.emt_offsets[i + 1] * id_bytes);
        copy.cache_ids.insert(
            copy.cache_ids.end(),
            rt.cache_ids.begin() + rt.cache_offsets[i] * id_bytes,
            rt.cache_ids.begin() + rt.cache_offsets[i + 1] * id_bytes);
        copy.emt_offsets.push_back(
            static_cast<std::uint32_t>(copy.emt_ids.size() / id_bytes));
        copy.cache_offsets.push_back(
            static_cast<std::uint32_t>(copy.cache_ids.size() / id_bytes));
      }
    }
  }
}

Result<BatchResult> UpDlrmEngine::RunBatch(trace::BatchRange range,
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

Result<BatchResult> UpDlrmEngine::RunSamples(
    std::span<const std::size_t> samples, const dlrm::DenseInputs* dense) {
  if (samples.empty()) {
    return Status::InvalidArgument("empty sample batch");
  }
  for (const std::size_t s : samples) {
    if (s >= trace_.num_samples()) {
      return Status::InvalidArgument("sample id " + std::to_string(s) +
                                     " outside the trace");
    }
  }
  // Dense inputs are only read by the functional CTR forward.
  if (functional() && dense != nullptr) {
    if (dense->dim() != config_.dense_features) {
      return Status::InvalidArgument(
          "dense inputs have " + std::to_string(dense->dim()) +
          " features, the model expects " +
          std::to_string(config_.dense_features));
    }
    for (const std::size_t s : samples) {
      if (s >= dense->num_samples()) {
        return Status::InvalidArgument("sample id " + std::to_string(s) +
                                       " outside the dense inputs");
      }
    }
  }
  const std::size_t batch = samples.size();
  const bool fn = functional();
  const std::uint32_t dim = config_.embedding_dim;
  const std::uint32_t tables = config_.num_tables;
  const unsigned threads = options_.num_threads;
  const std::size_t num_groups = groups_.size();
  // Replica r serves ⌈batch/R⌉ samples of every bin (the last replicas
  // fewer, or none); RouteGroup's per-bin deal picks which.
  const std::size_t chunk = CeilDiv(batch, replicas_);
  auto replica_batch_of = [&](std::size_t r) {
    return std::min(chunk, batch - std::min(batch, r * chunk));
  };
  const std::size_t bins_per_replica = bin_task_start_.back();
  const std::size_t num_bin_tasks = replicas_ * bins_per_replica;
  // Tracing is observation only: `capture` gates writes into
  // trace-owned side buffers (and the host-clock spans below); every
  // simulated quantity is computed identically either way.
  const bool capture = telemetry::TraceEnabled();
  telemetry::TraceSpan batch_span("engine.RunSamples", "engine");

  BatchResult out;
  // UPDLRM_NOALLOC_BEGIN: steady-state batch path. Everything from here
  // through the stage-latency computation reuses member scratch or the
  // worker arenas; tests/serve/alloc_test.cc enforces the dynamic side
  // of the same contract.
  // assign() reuses capacity: after the first batch these are pure
  // fills, part of the zero-allocations-per-batch contract.
  push_bytes_.assign(system_->num_dpus(), 0);
  pull_bytes_.assign(system_->num_dpus(), 0);
  std::span<std::uint64_t> push_bytes(push_bytes_);
  std::span<std::uint64_t> pull_bytes(pull_bytes_);

  // --- Stage 1: routing and the deal, one task per group (disjoint
  // scratch, disjoint copy lists and slot-table rows). ---
  deal_slots_.resize(num_bin_tasks * chunk);
  {
    telemetry::TraceSpan span("engine.route", "engine");
    ParallelFor(
        num_groups,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t g = begin; g < end; ++g) {
            RouteGroup(g, samples, chunk, scratch_[g]);
          }
        },
        threads);
  }
  // The call's wire widths: offsets are as narrow as this call's
  // longest per-DPU list allows.
  std::uint64_t max_refs = 0;
  for (const BinRoute& rt : copy_routes_) {
    max_refs = std::max(max_refs, rt.refs());
  }
  const pim::IndexWire wire =
      pim::ChooseWire(options_.packed_indices, max_refs);
  out.index_wire = wire;

  // --- Stage 2: per-(replica, group, bin) kernel cost and per-DPU
  // statistics. Each task owns the list replica r was dealt of bin
  // (g, bin) and writes only that bin's DPU column (disjoint DPU ids);
  // its kernel cycles land in bin_cycles[task]. The reduction below
  // folds them in fixed task order, so both the simulated latency (max
  // across all replicas' DPUs, as on real hardware) and any error
  // report are thread-count invariant. A replica dealt no samples
  // launches nothing. ---
  bin_cycles_.assign(num_bin_tasks, 0);
  bin_status_.assign(num_bin_tasks, Status());
  std::span<Cycles> bin_cycles(bin_cycles_);
  std::span<Status> bin_status(bin_status_);
  // Per-(group, bin) launch records for the telemetry timeline; tasks
  // write disjoint entries, so capture is deterministic and race-free.
  std::shared_ptr<BatchDpuTrace> dpu_trace;
  if (capture) {
    // UPDLRM_LINT_ALLOW(noalloc-region): observation-only; `capture` is
    // off on the measured steady-state path.
    dpu_trace = std::make_shared<BatchDpuTrace>();
    dpu_trace->slices.resize(num_bin_tasks);
  }
  if (capture) telemetry::Tracer::Get().Begin("engine.stage2", "engine");
  ParallelFor(
      num_bin_tasks,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t task = begin; task < end; ++task) {
          const auto r = static_cast<std::uint32_t>(task / bins_per_replica);
          const std::size_t local = task % bins_per_replica;
          const std::size_t g = GroupOfTask(bin_task_start_, local);
          const TableGroup& group = groups_[g];
          const auto& geom = group.plan.geom;
          const std::uint32_t row_bytes = geom.row_bytes();
          const auto bin =
              static_cast<std::uint32_t>(local - bin_task_start_[g]);
          BinRoute& rt = copy_routes_[task];
          const std::size_t replica_batch = replica_batch_of(r);
          if (dpu_trace != nullptr) {
            DpuTraceSlice& slice = dpu_trace->slices[task];
            slice.replica = r;
            slice.table = group.table_index;
            slice.bin = bin;
            slice.first_dpu = ReplicaDpu(r, group, bin, 0);
            slice.col_shards = geom.col_shards;
          }
          if (replica_batch == 0) continue;

          // One index per routed reference, whichever tier (MRAM row,
          // WRAM hot row, cached partial sum) serves it.
          const pim::EmbeddingKernelWork work{
              .num_lookups = rt.emt_count,
              .num_cache_reads = rt.cache_count,
              .num_samples = replica_batch,
              .row_bytes = row_bytes,
              .num_wram_hits = rt.wram_count,
              .index_bytes = wire.id_bytes,
          };
          const Cycles cycles = system_->kernel_cost().KernelCycles(work);
          bin_cycles[task] = cycles;
          if (dpu_trace != nullptr) {
            DpuTraceSlice& slice = dpu_trace->slices[task];
            slice.cycles = cycles;
            slice.work = work;
          }
          if (checker_ != nullptr) {
            // Cross-audit the priced launch against the executed
            // simulator and report this launch's per-item DMA shapes to
            // the shadow validator.
            checker_->model_audit().AuditKernel(work, cycles);
            const std::uint32_t chunk_bytes =
                system_->config().kernel_cost.index_chunk * wire.id_bytes;
            check::AccessValidator& access = checker_->access();
            for (std::uint32_t c = 0; c < geom.col_shards; ++c) {
              const std::uint32_t id = ReplicaDpu(r, group, bin, c);
              if (rt.refs() > 0) {
                access.OnDma(id, group.layout.index_base, chunk_bytes,
                             /*is_write=*/false);
              }
              if (work.num_lookups > 0) {
                access.OnDma(id, group.layout.emt_base, row_bytes,
                             /*is_write=*/false);
              }
              if (work.num_cache_reads > 0) {
                access.OnDma(id, group.layout.cache_base, row_bytes,
                             /*is_write=*/false);
              }
              access.OnDma(id, group.layout.output_base, row_bytes,
                           /*is_write=*/true);
            }
          }

          const std::uint32_t arrays = pim::OffsetArrays(
              options_.packed_indices, group.plan.has_cache());
          const std::uint64_t idx_bytes =
              pim::PushBytes(wire, rt.refs(), replica_batch, arrays);
          if (idx_bytes > group.layout.index_bytes) {
            bin_status[task] = Status::CapacityExceeded(
                "stage-1 index buffer overflow (" +
                // UPDLRM_LINT_ALLOW(noalloc-region): rejection path.
                std::to_string(idx_bytes) +
                " bytes); increase EngineOptions::reserved_io_bytes");
            continue;
          }
          const std::uint64_t out_bytes = replica_batch * row_bytes;
          if (out_bytes > group.layout.output_bytes) {
            bin_status[task] = Status::CapacityExceeded(
                "stage-3 output buffer overflow (" +
                // UPDLRM_LINT_ALLOW(noalloc-region): rejection path.
                std::to_string(out_bytes) +
                " bytes); run fewer samples per batch");
            continue;
          }
          if (fn) {
            // The wire image the functional kernel decodes is exactly
            // the priced push.
            rt.EncodeOffsets(arrays, wire.offset_bytes);
            UPDLRM_CHECK(rt.emt_ids.size() + rt.cache_ids.size() +
                             rt.offsets.size() ==
                         idx_bytes);
          }

          for (std::uint32_t c = 0; c < geom.col_shards; ++c) {
            const std::uint32_t id = ReplicaDpu(r, group, bin, c);
            push_bytes[id] = idx_bytes;
            pull_bytes[id] = out_bytes;
            pim::DpuStats& st = system_->dpu(id).stats();
            st.kernel_cycles += cycles;
            st.lookups += work.num_lookups;
            st.cache_reads += work.num_cache_reads;
            st.samples += replica_batch;
            st.wram_hits += work.num_wram_hits;
            st.index_bytes_pushed += idx_bytes;
            st.mram_bytes_read +=
                (work.num_lookups + work.num_cache_reads) * row_bytes +
                idx_bytes;
          }
        }
      },
      threads);
  Cycles max_kernel = 0;
  for (std::size_t task = 0; task < num_bin_tasks; ++task) {
    max_kernel = std::max(max_kernel, bin_cycles[task]);
  }
  if (capture) {
    // bin_spread: the straggler over the floor a perfectly even deal
    // would reach, the largest per-bin mean over the copies that serve
    // samples. What it leaves above 1 is imbalance within a bin's
    // copies; the floor itself moves only with the partition.
    double floor = 0.0;
    for (std::size_t local = 0; local < bins_per_replica; ++local) {
      double sum = 0.0;
      std::size_t copies = 0;
      for (std::size_t r = 0; r < replicas_ && replica_batch_of(r) > 0;
           ++r) {
        sum += static_cast<double>(bin_cycles[r * bins_per_replica + local]);
        ++copies;
      }
      floor = std::max(floor, sum / static_cast<double>(copies));
    }
    telemetry::Tracer::Get().End(
        "bin_spread",
        floor > 0.0 ? static_cast<double>(max_kernel) / floor : 1.0);
  }
  for (std::size_t task = 0; task < num_bin_tasks; ++task) {
    UPDLRM_RETURN_IF_ERROR(bin_status[task]);
  }
  if (dpu_trace != nullptr) {
    for (std::size_t task = 0; task < num_bin_tasks; ++task) {
      if (bin_cycles[task] > dpu_trace->max_cycles) {
        dpu_trace->max_cycles = bin_cycles[task];
        dpu_trace->straggler = task;
      }
    }
    // Per-rank stage-1/3 byte rollups for the rank-level trace track
    // (observation only — the transfer model re-derives its own per-rank
    // sums when pricing).
    const std::uint32_t dpr = system_->config().dpus_per_rank;
    dpu_trace->rank_push_bytes.assign(system_->num_ranks(), 0);
    dpu_trace->rank_pull_bytes.assign(system_->num_ranks(), 0);
    for (std::size_t i = 0; i < push_bytes.size(); ++i) {
      dpu_trace->rank_push_bytes[i / dpr] += push_bytes[i];
      dpu_trace->rank_pull_bytes[i / dpr] += pull_bytes[i];
    }
    out.dpu_trace = dpu_trace;
  }

  // --- Functional kernel execution: real MRAM reads, bit-exact int32
  // partial sums per (bin, column shard, sample). One task per
  // (replica, group, bin, col) DPU; each writes its wire values (the
  // int32 partial sums that cross the DPU->CPU bus) for its replica's
  // samples into its own slice of `wires`, and the host-side
  // aggregation below adds the slices in fixed (replica, group, bin,
  // col) order — the determinism contract's merge step. int64 addition
  // of int32 terms is exact, so pooled embeddings are bit-identical to
  // the serial order at any thread count and any R. ---
  std::span<std::int64_t> pooled_acc;
  if (fn) {
    telemetry::TraceSpan span("engine.functional", "engine");
    pooled_acc_.assign(batch * static_cast<std::size_t>(tables) * dim, 0);
    pooled_acc = pooled_acc_;
    const std::size_t fn_per_replica = fn_task_start_.back();
    const std::size_t num_fn_tasks = replicas_ * fn_per_replica;
    const std::size_t wires_per_task = chunk * nc_;
    wires_.assign(num_fn_tasks * wires_per_task, 0);
    fn_status_.assign(num_fn_tasks, Status());
    std::span<std::int32_t> wires(wires_);
    std::span<Status> fn_status(fn_status_);
    ParallelFor(
        num_fn_tasks,
        [&](std::size_t begin, std::size_t end) {
          // Per-task accumulators come from this worker's arena: the
          // frame rolls the arena back when the task chain on this
          // worker drains, so repeated batches re-use the same block.
          Arena& arena = ThreadArena();
          ScopedArenaFrame frame(arena);
          std::int64_t* acc = arena.Alloc<std::int64_t>(nc_);
          std::int32_t* buf = arena.Alloc<std::int32_t>(nc_);
          for (std::size_t task = begin; task < end; ++task) {
            const auto r = static_cast<std::uint32_t>(task / fn_per_replica);
            const std::size_t g =
                GroupOfTask(fn_task_start_, task % fn_per_replica);
            const TableGroup& group = groups_[g];
            const auto& geom = group.plan.geom;
            const std::uint32_t row_bytes = geom.row_bytes();
            auto buf_bytes = std::span<std::uint8_t>(
                reinterpret_cast<std::uint8_t*>(buf), row_bytes);
            const std::size_t local =
                task % fn_per_replica - fn_task_start_[g];
            const auto bin =
                static_cast<std::uint32_t>(local / geom.col_shards);
            const auto c =
                static_cast<std::uint32_t>(local % geom.col_shards);
            const BinRoute& rt =
                copy_routes_[r * bins_per_replica + bin_task_start_[g] + bin];
            const pim::Mram& mram =
                system_->dpu(ReplicaDpu(r, group, bin, c)).mram();
            std::int32_t* task_wires =
                wires.data() + task * wires_per_task;
            const std::size_t replica_batch = replica_batch_of(r);
            // Decode the bin's wire image as the DPU would: offset
            // array `a` starts at a * (replica_batch + 1) offsets.
            const std::uint32_t ob = wire.offset_bytes;
            const std::uint32_t ib = wire.id_bytes;
            const bool cache_array =
                pim::OffsetArrays(options_.packed_indices,
                                  group.plan.has_cache()) == 2;
            auto offset = [&](std::size_t a, std::size_t i) {
              return pim::GetLE(
                  rt.offsets.data() + (a * (replica_batch + 1) + i) * ob,
                  ob);
            };
            // Slot references are absolute (EMT at base 0, cache
            // offsets folded in during routing).
            Status status;
            auto accumulate = [&](std::span<const std::uint8_t> ids,
                                  std::uint32_t begin, std::uint32_t end) {
              for (std::uint32_t k = begin; k < end && status.ok(); ++k) {
                status = mram.Read(
                    static_cast<std::uint64_t>(
                        pim::GetLE(ids.data() + std::size_t{k} * ib, ib)) *
                        row_bytes,
                    buf_bytes);
                simd::AddI32ToI64(buf, acc, geom.nc);
              }
            };
            for (std::size_t s = 0; s < replica_batch && status.ok(); ++s) {
              std::fill(acc, acc + nc_, std::int64_t{0});
              accumulate(rt.emt_ids, offset(0, s), offset(0, s + 1));
              if (cache_array) {
                accumulate(rt.cache_ids, offset(1, s), offset(1, s + 1));
              }
              if (!status.ok()) break;
              // Partial sums cross the DPU->CPU wire as int32 (§3.1
              // assumes 32-bit values); the Q15.16 range contract
              // keeps them in range.
              for (std::uint32_t lane = 0; lane < geom.nc; ++lane) {
                const auto partial = static_cast<std::int32_t>(acc[lane]);
                if (partial != acc[lane]) {
                  status = Status::OutOfRange(
                      "int32 partial-sum overflow; embedding values "
                      "exceed the fixed-point range contract");
                  break;
                }
                task_wires[s * nc_ + lane] = partial;
              }
            }
            fn_status[task] = std::move(status);
          }
        },
        threads);

    for (std::size_t task = 0; task < num_fn_tasks; ++task) {
      UPDLRM_RETURN_IF_ERROR(fn_status[task]);
    }
    // Fixed-order merge: task (r, g, bin, col) ascending, the bin's
    // dealt samples in list order within each task; the slot table maps
    // each list position back to its batch position.
    for (std::size_t task = 0; task < num_fn_tasks; ++task) {
      const std::size_t r = task / fn_per_replica;
      const std::size_t local = task % fn_per_replica;
      const std::size_t g = GroupOfTask(fn_task_start_, local);
      const TableGroup& group = groups_[g];
      const auto& geom = group.plan.geom;
      const std::size_t bin = (local - fn_task_start_[g]) / geom.col_shards;
      const auto c = static_cast<std::uint32_t>(
          (local - fn_task_start_[g]) % geom.col_shards);
      const std::int32_t* task_wires =
          wires.data() + task * wires_per_task;
      const std::uint32_t* slots =
          deal_slots_.data() +
          (r * bins_per_replica + bin_task_start_[g] + bin) * chunk;
      const std::size_t replica_batch = replica_batch_of(r);
      for (std::size_t s = 0; s < replica_batch; ++s) {
        std::int64_t* dst = pooled_acc.data() +
                            (std::size_t{slots[s]} * tables +
                             group.table_index) *
                                dim +
                            static_cast<std::size_t>(c) * geom.nc;
        // Integer lanes: the vectorized add is exactly the
        // fixed-order merge (int64 addition is commutative per lane).
        simd::AddI32ToI64(task_wires + s * nc_, dst, geom.nc);
      }
    }
  }

  // --- Stage latencies. ---
  const double clock = system_->config().dpu.clock_hz;
  out.stages.cpu_to_dpu =
      system_->transfer().PushTime(push_bytes, options_.pad_transfers);
  out.stages.ingress =
      system_->transfer().PushIngress(push_bytes, options_.pad_transfers);
  out.stages.dpu_to_cpu =
      system_->transfer().PullTime(pull_bytes, options_.pad_transfers);
  out.stages.dpu_lookup = system_->transfer().KernelLaunchOverhead() +
                          CyclesToNanos(max_kernel, clock);
  // What a launch costs whatever it serves: the SDK call, plus the
  // tasklet boot whenever a DPU ran (KernelCycles includes it).
  out.stages.lookup_fixed =
      system_->transfer().KernelLaunchOverhead() +
      (max_kernel > 0
           ? CyclesToNanos(system_->config().kernel_cost.boot_cycles, clock)
           : 0.0);
  out.stages.pull_fixed =
      out.stages.dpu_to_cpu > 0.0
          ? system_->transfer().params().transfer_launch_ns
          : 0.0;
  // Worst per-DPU stage-1/3 buffer footprint of this batch: the
  // full-path pipeline's capacity audit checks that `depth` in-flight
  // buffer pairs of this size fit the reserved-IO region
  // (check/dataflow_audit.h).
  out.max_index_bytes = simd::MaxU64(push_bytes.data(), push_bytes.size());
  out.max_output_bytes = simd::MaxU64(pull_bytes.data(), pull_bytes.size());
  out.partial_bytes = simd::SumU64(pull_bytes.data(), pull_bytes.size());
  const std::uint32_t dpr = system_->config().dpus_per_rank;
  rank_bytes_.assign(system_->num_ranks(), 0);
  for (std::size_t i = 0; i < pull_bytes.size(); ++i) {
    rank_bytes_[i / dpr] += pull_bytes[i];
  }
  // One stream on the engine's own host; partials pulled on another
  // host first cross to it (zero on a single-host topology).
  out.stages.cpu_aggregate =
      cpu_.StreamTime(out.partial_bytes) +
      pim::FlatIngressTime(system_->topology(), rank_bytes_) +
      cpu_.BagOverhead(tables);

  PriceDenseStages(cpu_, config_, batch, &out);
  // UPDLRM_NOALLOC_END (the functional-mode output copy below is the
  // documented per-batch allocation: results leave by value).

  if (fn) {
    // The one unavoidable per-batch allocation of functional mode: the
    // pooled embeddings are returned to the caller by value.
    out.pooled.resize(pooled_acc.size());
    for (std::size_t i = 0; i < pooled_acc.size(); ++i) {
      out.pooled[i] = FromFixedSum(pooled_acc[i]);
    }
    if (options_.emit_fixed_pooled) {
      out.pooled_fixed.assign(pooled_acc.begin(), pooled_acc.end());
    }
    if (dense != nullptr) {
      out.ctr.reserve(batch);
      const std::size_t width = static_cast<std::size_t>(tables) * dim;
      for (std::size_t s = 0; s < batch; ++s) {
        out.ctr.push_back(model_->ForwardSample(
            dense->Sample(samples[s]),
            std::span<const float>(out.pooled.data() + s * width, width)));
      }
    }
  }
  return out;
}

Result<InferenceReport> UpDlrmEngine::RunAll(
    const dlrm::DenseInputs* dense) {
  InferenceReport report;
  // Trace emission: RunAll models batches back-to-back (no pipelining),
  // so a serial sim-time cursor places batch i at [t, t + total). Spans
  // mirror the StageBreakdown; 1-in-sample_every batches also get the
  // per-DPU timeline (skips are counted, never silent).
  const bool tracing = telemetry::TraceEnabled();
  telemetry::Tracer& tracer = telemetry::Tracer::Get();
  const std::uint64_t sample_every =
      tracing ? tracer.options().sample_every : 1;
  using telemetry::Clock;
  using telemetry::kPipelinePid;
  if (tracing) {
    tracer.SetThreadName(kPipelinePid, 0, "host buses (stage 1/3)");
    tracer.SetThreadName(kPipelinePid, 1, "DPU array (stage 2)");
    tracer.SetThreadName(kPipelinePid, 2, "MLP (CPU)");
  }
  Nanos cursor = 0.0;
  std::uint64_t batch_index = 0;
  for (const trace::BatchRange& range :
       trace::MakeBatches(trace_.num_samples(), options_.batch_size)) {
    auto batch = RunBatch(range, dense);
    if (!batch.ok()) return batch.status();
    if (tracing) {
      if (batch_index % sample_every == 0) {
        const StageBreakdown& st = batch->stages;
        const Nanos s2_start = cursor + st.cpu_to_dpu;
        const Nanos s3_start = s2_start + st.dpu_lookup;
        tracer.Complete(kPipelinePid, 0, Clock::kSim, "stage1.push",
                        cursor, st.cpu_to_dpu, "batch",
                        static_cast<double>(batch_index), "id_bytes",
                        batch->index_wire.id_bytes, "offset_bytes",
                        batch->index_wire.offset_bytes, "max_dpu_bytes",
                        static_cast<double>(batch->max_index_bytes));
        tracer.Complete(kPipelinePid, 1, Clock::kSim, "stage2.kernel",
                        s2_start, st.dpu_lookup);
        tracer.Complete(kPipelinePid, 0, Clock::kSim, "stage3.pull",
                        s3_start, st.dpu_to_cpu);
        tracer.Complete(kPipelinePid, 0, Clock::kSim, "cpu.aggregate",
                        s3_start + st.dpu_to_cpu, st.cpu_aggregate);
        tracer.Complete(kPipelinePid, 2, Clock::kSim, "mlp.bottom",
                        cursor, batch->bottom_mlp);
        tracer.Complete(
            kPipelinePid, 2, Clock::kSim, "mlp.interaction_top",
            cursor + std::max(batch->bottom_mlp, st.EmbeddingTotal()),
            batch->interaction_top);
        if (batch->dpu_trace != nullptr) {
          EmitBatchDpuTimeline(*system_, *batch->dpu_trace, batch_index,
                               s2_start, /*tasklet_detail=*/true);
        }
      } else {
        tracer.CountSampledOut();
      }
    }
    cursor += batch->total;
    ++batch_index;
    report.Accumulate(batch.value());
    report.num_samples += range.size();
  }
  return report;
}

std::optional<UpDlrmEngine::DpuLocation> UpDlrmEngine::LocateDpu(
    std::uint32_t dpu) const {
  const std::uint32_t replica = dpu / replica_dpus_;
  if (replica >= replicas_) return std::nullopt;
  const std::uint32_t copy_dpu = dpu % replica_dpus_;
  for (std::uint32_t t = 0; t < static_cast<std::uint32_t>(groups_.size());
       ++t) {
    if (copy_dpu < first_dpu_[t] ||
        copy_dpu >= first_dpu_[t] + dpus_per_table_[t]) {
      continue;
    }
    const auto& geom = groups_[t].plan.geom;
    const std::uint32_t local = copy_dpu - first_dpu_[t];
    if (local >=
        static_cast<std::uint32_t>(geom.row_shards) * geom.col_shards) {
      return std::nullopt;  // allocated to the table but unused
    }
    return DpuLocation{replica, t, local / geom.col_shards,
                       local % geom.col_shards};
  }
  return std::nullopt;
}

}  // namespace updlrm::core
