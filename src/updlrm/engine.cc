#include "updlrm/engine.h"

#include <algorithm>
#include <cmath>

#include "common/arena.h"
#include "common/fixed_point.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "pim/reduction.h"
#include "telemetry/tracer.h"
#include "trace/profiler.h"
#include "updlrm/timeline.h"

namespace updlrm::core {

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

void UpDlrmEngine::BinRoute::Clear() {
  emt_slots.clear();
  cache_slots.clear();
  emt_offsets.clear();
  cache_offsets.clear();
  emt_count = 0;
  cache_count = 0;
  wram_count = 0;
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
  UPDLRM_CHECK(system != nullptr);
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
  if (options_.check_mode) {
    checker_ = std::make_unique<check::Checker>(system_->config());
    // Attach before placement so PlaceTable's writes seed the
    // written-byte shadow state the uninit-read rule checks against.
    checker_->Attach(*system_);
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

  const bool paper_setup =
      !config_.heterogeneous() &&
      options_.allocation == partition::DpuAllocationPolicy::kEqual;

  auto allocate_at =
      [&](std::uint32_t nc) -> Result<std::vector<std::uint32_t>> {
    if (config_.embedding_dim % nc != 0) {
      return Status::InvalidArgument("nc must divide the embedding dim");
    }
    const std::uint32_t col_shards = config_.embedding_dim / nc;
    if (paper_setup) {
      if (system_->num_dpus() % config_.num_tables != 0) {
        return Status::InvalidArgument(
            "num_dpus must be divisible by num_tables (one group per "
            "EMT)");
      }
      return std::vector<std::uint32_t>(
          config_.num_tables, system_->num_dpus() / config_.num_tables);
    }
    return partition::AllocateDpus(shapes, system_->num_dpus(),
                                   col_shards, options_.allocation,
                                   traffic);
  };

  if (options_.nc != 0) {
    nc_ = options_.nc;
    auto alloc = allocate_at(nc_);
    if (!alloc.ok()) return alloc.status();
    dpus_per_table_ = std::move(alloc).value();
  } else if (paper_setup) {
    auto tile = partition::OptimizeTileShape(
        config_.table_shape(), system_->num_dpus() / config_.num_tables,
        options_.batch_size, avg_red, *system_);
    if (!tile.ok()) return tile.status();
    tile_result_ = std::move(tile).value();
    nc_ = tile_result_->best.nc;
    auto alloc = allocate_at(nc_);
    if (!alloc.ok()) return alloc.status();
    dpus_per_table_ = std::move(alloc).value();
  } else {
    // Heterogeneous / non-equal allocation: search Nc candidates with
    // the allocation each implies.
    Nanos best_cost = 0.0;
    for (std::uint32_t nc : partition::DefaultNcCandidates()) {
      auto alloc = allocate_at(nc);
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
      const Nanos cost = EstimateBatchCost(nc, *alloc);
      if (nc_ == 0 || cost < best_cost) {
        nc_ = nc;
        best_cost = cost;
        dpus_per_table_ = std::move(alloc).value();
      }
    }
    if (nc_ == 0) {
      return Status::InvalidArgument(
          "no feasible Nc for this model/system combination");
    }
  }

  first_dpu_.assign(config_.num_tables, 0);
  std::uint32_t next_dpu = 0;
  for (std::uint32_t t = 0; t < config_.num_tables; ++t) {
    first_dpu_[t] = next_dpu;
    next_dpu += dpus_per_table_[t];
  }
  if (next_dpu > system_->num_dpus()) {
    return Status::CapacityExceeded("allocation exceeds the DPU count");
  }
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

  // Per-table preparation (profiling, partitioning, mining, MRAM
  // placement) is independent across tables: each table's group owns a
  // disjoint DPU range, so placement writes never alias. Errors are
  // reported in table order regardless of completion order.
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
          // Shared profile when provided (validated above); otherwise
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
                built[i].group, profile->freq,
                EffectiveWramRows(built[i].group.plan.geom.row_bytes()));
          }
          if (model_ != nullptr) {
            built[i].status =
                PlaceTable(model_->table(t), built[i].group, *system_);
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
  if (checker_ != nullptr) {
    for (const TableGroup& group : groups_) AuditGroup(group);
  }

  scratch_.resize(groups_.size());
  bin_task_start_.assign(groups_.size() + 1, 0);
  fn_task_start_.assign(groups_.size() + 1, 0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto& geom = groups_[g].plan.geom;
    scratch_[g].routes.assign(geom.row_shards, BinRoute{});
    scratch_[g].list_mask.assign(groups_[g].plan.cache.lists.size(), 0);
    bin_task_start_[g + 1] = bin_task_start_[g] + geom.row_shards;
    fn_task_start_[g + 1] =
        fn_task_start_[g] +
        static_cast<std::size_t>(geom.row_shards) * geom.col_shards;
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
  limits.claims_uniform_model = tile_result_.has_value();
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
    for (std::uint32_t c = 0; c < geom.col_shards; ++c) {
      const std::uint32_t dpu = group.GlobalDpu(b, c);
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

std::uint32_t UpDlrmEngine::EffectiveWramRows(
    std::uint32_t row_bytes) const {
  return std::min(options_.wram_cache_rows,
                  system_->kernel_cost().MaxWramCacheRows(row_bytes));
}

Nanos UpDlrmEngine::EstimateBatchCost(
    std::uint32_t nc, std::span<const std::uint32_t> alloc) const {
  const std::uint32_t col_shards = config_.embedding_dim / nc;
  const std::uint32_t row_bytes = nc * 4;
  Cycles max_kernel = 0;
  std::uint64_t max_push = 0;
  for (std::uint32_t t = 0; t < config_.num_tables; ++t) {
    const std::uint32_t row_shards = alloc[t] / col_shards;
    const double avg_red =
        std::max(1.0, trace_.tables[t].MeasuredAvgReduction());
    const auto lookups_per_dpu = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(options_.batch_size) * avg_red /
                  static_cast<double>(row_shards)));
    const pim::EmbeddingKernelWork work{
        .num_lookups = lookups_per_dpu,
        .num_cache_reads = 0,
        .num_samples = options_.batch_size,
        .row_bytes = row_bytes,
    };
    max_kernel =
        std::max(max_kernel, system_->kernel_cost().KernelCycles(work));
    max_push = std::max(
        max_push, lookups_per_dpu * 4 + (options_.batch_size + 1) * 4);
  }
  const std::vector<std::uint64_t> push(system_->num_dpus(), max_push);
  const std::vector<std::uint64_t> pull(
      system_->num_dpus(),
      static_cast<std::uint64_t>(options_.batch_size) * row_bytes);
  return system_->transfer().PushTime(push, true) +
         system_->transfer().KernelLaunchOverhead() +
         CyclesToNanos(max_kernel, system_->config().dpu.clock_hz) +
         system_->transfer().PullTime(pull, true);
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
                              std::span<const std::size_t> samples) {
  const bool fn = functional();
  const TableGroup& group = groups_[g];
  const auto& geom = group.plan.geom;
  const std::uint32_t row_bytes = geom.row_bytes();
  const auto& ttrace = trace_.tables[group.table_index];
  const bool has_cache = group.plan.has_cache();
  GroupScratch& scratch = scratch_[g];
  auto& routes = scratch.routes;
  for (auto& rt : routes) {
    rt.Clear();
    if (fn) {
      rt.emt_offsets.push_back(0);
      rt.cache_offsets.push_back(0);
    }
  }

  // Routing: decide, per index, which bin serves it and whether a
  // cached subset sum covers it (one read per touched list, §3.3).
  // Slot references are absolute (offset / row_bytes), so EMT and cache
  // reads share one addressing scheme.
  const bool has_wram = !group.wram_cached.empty();
  const std::uint64_t cache_ref_base = group.layout.cache_base / row_bytes;
  for (const std::size_t s : samples) {
    scratch.touched_lists.clear();
    for (std::uint32_t idx : ttrace.Sample(s)) {
      const std::int32_t l = has_cache ? group.plan.item_list[idx] : -1;
      if (l >= 0) {
        if (scratch.list_mask[l] == 0) {
          scratch.touched_lists.push_back(static_cast<std::uint32_t>(l));
        }
        const auto& items = group.plan.cache.lists[l].items;
        for (std::size_t i = 0; i < items.size(); ++i) {
          if (items[i] == idx) {
            scratch.list_mask[l] |= 1U << i;
            break;
          }
        }
      } else {
        const std::uint32_t bin = group.plan.row_bin[idx];
        BinRoute& rt = routes[bin];
        // WRAM-pinned rows are still read from MRAM slots by the
        // functional path (WRAM holds a copy); only the timing
        // accounting splits off, so the lever cannot change outputs.
        if (has_wram && group.wram_cached[idx]) {
          ++rt.wram_count;
        } else {
          ++rt.emt_count;
        }
        if (fn) rt.emt_slots.push_back(group.row_slot[idx]);
      }
    }
    for (std::uint32_t l : scratch.touched_lists) {
      const std::uint32_t mask = scratch.list_mask[l];
      scratch.list_mask[l] = 0;
      const auto bin = static_cast<std::uint32_t>(group.plan.list_bin[l]);
      BinRoute& rt = routes[bin];
      ++rt.cache_count;
      if (fn) {
        rt.cache_slots.push_back(static_cast<std::uint32_t>(
            cache_ref_base + group.list_offset[l] / row_bytes + mask - 1));
      }
    }
    if (fn) {
      for (auto& rt : routes) {
        rt.emt_offsets.push_back(
            static_cast<std::uint32_t>(rt.emt_slots.size()));
        rt.cache_offsets.push_back(
            static_cast<std::uint32_t>(rt.cache_slots.size()));
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

  // --- Stage 1: routing, one task per group (disjoint scratch). ---
  {
    telemetry::TraceSpan span("engine.route", "engine");
    ParallelFor(
        groups_.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t g = begin; g < end; ++g) RouteGroup(g, samples);
        },
        threads);
  }

  // --- Stage 2: per-(group, bin) kernel cost and per-DPU statistics.
  // Each task owns bin (g, bin) and writes only that bin's DPU column
  // (disjoint DPU ids); its kernel cycles land in bin_cycles[task].
  // The reduction below folds them in fixed task order, so both the
  // simulated latency (max across DPUs, as on real hardware) and any
  // error report are thread-count invariant. ---
  const std::size_t num_bin_tasks = bin_task_start_.back();
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
        std::size_t g = 0;
        for (std::size_t task = begin; task < end; ++task) {
          while (task >= bin_task_start_[g + 1]) ++g;
          const TableGroup& group = groups_[g];
          const auto& geom = group.plan.geom;
          const std::uint32_t row_bytes = geom.row_bytes();
          const auto bin =
              static_cast<std::uint32_t>(task - bin_task_start_[g]);
          const BinRoute& rt = scratch_[g].routes[bin];

          // One 4-byte index per routed reference, whichever tier
          // (MRAM row, WRAM hot row, cached partial sum) serves it.
          const pim::EmbeddingKernelWork work{
              .num_lookups = rt.emt_count,
              .num_cache_reads = rt.cache_count,
              .num_samples = batch,
              .row_bytes = row_bytes,
              .num_wram_hits = rt.wram_count,
          };
          const std::uint64_t list_bytes =
              (rt.emt_count + rt.wram_count + rt.cache_count) * 4;
          const Cycles cycles = system_->kernel_cost().KernelCycles(work);
          bin_cycles[task] = cycles;
          if (dpu_trace != nullptr) {
            DpuTraceSlice& slice = dpu_trace->slices[task];
            slice.table = group.table_index;
            slice.bin = bin;
            slice.first_dpu = group.GlobalDpu(bin, 0);
            slice.col_shards = geom.col_shards;
            slice.cycles = cycles;
            slice.work = work;
          }
          if (checker_ != nullptr) {
            // Cross-audit the priced launch against the executed
            // simulator and report this launch's per-item DMA shapes to
            // the shadow validator.
            checker_->model_audit().AuditKernel(work, cycles);
            const std::uint32_t chunk_bytes =
                system_->config().kernel_cost.index_chunk * 4;
            check::AccessValidator& access = checker_->access();
            for (std::uint32_t c = 0; c < geom.col_shards; ++c) {
              const std::uint32_t id = group.GlobalDpu(bin, c);
              if (list_bytes > 0) {
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

          const std::uint64_t idx_bytes =
              list_bytes + 2 * (batch + 1) * 4;
          if (idx_bytes > group.layout.index_bytes) {
            bin_status[task] = Status::CapacityExceeded(
                "stage-1 index buffer overflow (" +
                // UPDLRM_LINT_ALLOW(noalloc-region): rejection path.
                std::to_string(idx_bytes) +
                " bytes); increase EngineOptions::reserved_io_bytes");
            continue;
          }
          const std::uint64_t out_bytes = batch * row_bytes;
          if (out_bytes > group.layout.output_bytes) {
            bin_status[task] = Status::CapacityExceeded(
                "stage-3 output buffer overflow (" +
                // UPDLRM_LINT_ALLOW(noalloc-region): rejection path.
                std::to_string(out_bytes) +
                " bytes); run fewer samples per batch");
            continue;
          }

          for (std::uint32_t c = 0; c < geom.col_shards; ++c) {
            const std::uint32_t id = group.GlobalDpu(bin, c);
            push_bytes[id] = idx_bytes;
            pull_bytes[id] = out_bytes;
            pim::DpuStats& st = system_->dpu(id).stats();
            st.kernel_cycles += cycles;
            st.lookups += work.num_lookups;
            st.cache_reads += work.num_cache_reads;
            st.samples += batch;
            st.wram_hits += work.num_wram_hits;
            st.index_bytes_pushed += idx_bytes;
            st.mram_bytes_read +=
                (work.num_lookups + work.num_cache_reads) * row_bytes +
                idx_bytes;
          }
        }
      },
      threads);
  if (capture) telemetry::Tracer::Get().End();
  Cycles max_kernel = 0;
  for (std::size_t task = 0; task < num_bin_tasks; ++task) {
    UPDLRM_RETURN_IF_ERROR(bin_status[task]);
    max_kernel = std::max(max_kernel, bin_cycles[task]);
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
  // (group, bin, col) DPU; each writes its wire values (the int32
  // partial sums that cross the DPU->CPU bus) into its own slice of
  // `wires`, and the host-side aggregation below adds the slices in
  // fixed (group, bin, col) order — the determinism contract's merge
  // step. int64 addition of int32 terms is exact, so pooled embeddings
  // are bit-identical to the serial order at any thread count. ---
  std::span<std::int64_t> pooled_acc;
  if (fn) {
    telemetry::TraceSpan span("engine.functional", "engine");
    pooled_acc_.assign(batch * static_cast<std::size_t>(tables) * dim, 0);
    pooled_acc = pooled_acc_;
    const std::size_t num_fn_tasks = fn_task_start_.back();
    const std::size_t wires_per_task = batch * nc_;
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
          std::size_t g = 0;
          for (std::size_t task = begin; task < end; ++task) {
            while (task >= fn_task_start_[g + 1]) ++g;
            const TableGroup& group = groups_[g];
            const auto& geom = group.plan.geom;
            const std::uint32_t row_bytes = geom.row_bytes();
            auto buf_bytes = std::span<std::uint8_t>(
                reinterpret_cast<std::uint8_t*>(buf), row_bytes);
            const std::size_t local = task - fn_task_start_[g];
            const auto bin =
                static_cast<std::uint32_t>(local / geom.col_shards);
            const auto c =
                static_cast<std::uint32_t>(local % geom.col_shards);
            const BinRoute& rt = scratch_[g].routes[bin];
            const pim::Mram& mram =
                system_->dpu(group.GlobalDpu(bin, c)).mram();
            std::int32_t* task_wires =
                wires.data() + task * wires_per_task;
            Status status;
            for (std::size_t s = 0; s < batch && status.ok(); ++s) {
              std::fill(acc, acc + nc_, std::int64_t{0});
              // Slot references are absolute (EMT at base 0, cache
              // offsets folded in during routing).
              for (std::uint32_t k = rt.emt_offsets[s];
                   k < rt.emt_offsets[s + 1] && status.ok(); ++k) {
                status = mram.Read(
                    static_cast<std::uint64_t>(rt.emt_slots[k]) *
                        row_bytes,
                    buf_bytes);
                simd::AddI32ToI64(buf, acc, geom.nc);
              }
              for (std::uint32_t k = rt.cache_offsets[s];
                   k < rt.cache_offsets[s + 1] && status.ok(); ++k) {
                status = mram.Read(
                    static_cast<std::uint64_t>(rt.cache_slots[k]) *
                        row_bytes,
                    buf_bytes);
                simd::AddI32ToI64(buf, acc, geom.nc);
              }
              if (!status.ok()) break;
              // Partial sums cross the DPU->CPU wire as int32 (§3.1
              // assumes 32-bit values); the Q15.16 range contract
              // keeps them in range.
              for (std::uint32_t lane = 0; lane < geom.nc; ++lane) {
                const auto wire = static_cast<std::int32_t>(acc[lane]);
                if (wire != acc[lane]) {
                  status = Status::OutOfRange(
                      "int32 partial-sum overflow; embedding values "
                      "exceed the fixed-point range contract");
                  break;
                }
                task_wires[s * nc_ + lane] = wire;
              }
            }
            fn_status[task] = std::move(status);
          }
        },
        threads);

    for (std::size_t task = 0; task < num_fn_tasks; ++task) {
      UPDLRM_RETURN_IF_ERROR(fn_status[task]);
    }
    // Fixed-order merge: task (g, bin, col) ascending, samples
    // ascending within each task.
    std::size_t g = 0;
    for (std::size_t task = 0; task < num_fn_tasks; ++task) {
      while (task >= fn_task_start_[g + 1]) ++g;
      const TableGroup& group = groups_[g];
      const auto& geom = group.plan.geom;
      const auto c = static_cast<std::uint32_t>(
          (task - fn_task_start_[g]) % geom.col_shards);
      const std::int32_t* task_wires =
          wires.data() + task * wires_per_task;
      for (std::size_t s = 0; s < batch; ++s) {
        std::int64_t* dst = pooled_acc.data() +
                            (s * tables + group.table_index) * dim +
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
  out.stages.dpu_to_cpu =
      system_->transfer().PullTime(pull_bytes, options_.pad_transfers);
  out.stages.dpu_lookup = system_->transfer().KernelLaunchOverhead() +
                          CyclesToNanos(max_kernel, clock);
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
                        static_cast<double>(batch_index));
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
  for (std::uint32_t t = 0; t < static_cast<std::uint32_t>(groups_.size());
       ++t) {
    if (dpu < first_dpu_[t] || dpu >= first_dpu_[t] + dpus_per_table_[t]) {
      continue;
    }
    const auto& geom = groups_[t].plan.geom;
    const std::uint32_t local = dpu - first_dpu_[t];
    if (local >=
        static_cast<std::uint32_t>(geom.row_shards) * geom.col_shards) {
      return std::nullopt;  // allocated to the table but unused
    }
    return DpuLocation{t, local / geom.col_shards, local % geom.col_shards};
  }
  return std::nullopt;
}

}  // namespace updlrm::core
