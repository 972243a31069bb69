// Ablation: inter-batch pipelining of the embedding layer.
//
// The paper's execution is serial per batch (stage 1 -> 2 -> 3). Since
// stages 1/3 move data over the host's buses, stage 2 runs on the DPUs
// and the stage-3 aggregation on the host's cores, a pipelined serving
// loop can overlap them across consecutive batches. A remote
// shard's stage 1 also crosses the network fabric before its bus push;
// the serving executor runs that hop on its own fabric lane, so batch
// k+1's hop overlaps batch k's push and pull. This bench estimates the
// steady-state gain per workload and reports which resource (host
// transfers, DPU lookups, host cores or the cross-host fabric) bounds
// the pipeline.
//
// Rows: the six Table 1 workloads on the paper's one-host system, and
// read and clo CA-shard on a one-host-per-shard fleet of 4 shards
// (wired as in fig12_scaleout: shard 0 local, shards 1-3 remote). Each
// row executes the same per-batch costs, every batch cut as soon as a
// buffer slot frees (a standing backlog, so kernel launches and pull
// calls coalesce), three times: at the default depth with the fabric
// lane ("executed"), the same at depth 2 ("depth 2"), and at the
// default depth with every batch's ingress zeroed ("folded"), which
// puts the hop back on the transfer lane as one serial stage 1.
//
// Emits BENCH_pipelining.json. Exits non-zero unless, on every row,
// the four-resource bound is at most the executed schedule (relative
// tolerance 1e-9), the executed schedule is at most the folded one and
// at most the depth-2 one, strictly below depth 2 on at least one
// row; on one-host rows the executed schedule must beat serial
// execution, and on multi-host rows it must beat the folded one
// strictly.
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "serve/executor.h"
#include "telemetry/json.h"
#include "updlrm/pipelining.h"
#include "updlrm/scaleout.h"

namespace {

using namespace updlrm;

constexpr std::uint32_t kShards = 4;

// The executed schedule (serve/executor.h) with `depth` buffer slots
// under the embedding-only plan (no dense costs), every batch available
// up front — the realized counterpart of the four-resource estimate.
// An embedding-only batch completes at its stage-3 end.
Nanos ExecutedMakespan(std::span<const core::StageBreakdown> batches,
                       std::uint32_t depth) {
  serve::DataFlowPlan plan;
  plan.depth = depth;
  serve::DataFlowExecutor executor(plan);
  executor.Reserve(batches.size());
  for (const core::StageBreakdown& stages : batches) {
    serve::BatchTaskCosts costs;
    costs.emb = stages;
    executor.Submit(costs, executor.NextAdmitTime());
  }
  executor.Drain();
  return executor.batches().back().s3_end_ns;
}

template <typename EngineT>
std::vector<core::StageBreakdown> RunBatches(EngineT& engine,
                                             const bench::BenchScale& scale) {
  std::vector<core::StageBreakdown> batches;
  for (const auto& range :
       trace::MakeBatches(scale.num_samples, scale.batch_size)) {
    auto batch = engine.RunBatch(range, nullptr);
    UPDLRM_CHECK_MSG(batch.ok(), batch.status().ToString());
    batches.push_back(batch->stages);
  }
  return batches;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "== Ablation: inter-batch pipelining of the embedding layer "
      "(CA, auto Nc) ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);

  const std::uint32_t depth = serve::DataFlowPlan{}.depth;
  TablePrinter out({"workload", "hosts", "serial (ms)", "bound (ms)",
                    "executed (ms)", "depth 2 (ms)", "folded (ms)",
                    "speedup", "bound by"});
  using Layout = telemetry::JsonWriter::Layout;
  telemetry::JsonWriter json;
  json.BeginObject(Layout::kLines).Field("samples", scale.num_samples);
  json.Field("batch_size", scale.batch_size).Key("rows");
  json.BeginObject(Layout::kLines);
  std::vector<std::string> failures;
  bool deeper_wins = false;

  auto report = [&](const std::string& name, std::uint32_t hosts,
                    const std::vector<core::StageBreakdown>& batches) {
    const core::PipelineEstimate estimate =
        core::EstimatePipelinedEmbedding(batches, depth);
    std::vector<core::StageBreakdown> folded = batches;
    for (core::StageBreakdown& b : folded) b.ingress = 0.0;
    const Nanos executed = ExecutedMakespan(batches, depth);
    const Nanos depth2 = ExecutedMakespan(batches, 2);
    const Nanos folded_ns = ExecutedMakespan(folded, depth);
    const std::string binding(core::ResourceName(estimate.Binding()));
    out.AddRow({name, std::to_string(hosts),
                TablePrinter::Fmt(estimate.serial_ns / 1e6, 2),
                TablePrinter::Fmt(estimate.pipelined_ns / 1e6, 2),
                TablePrinter::Fmt(executed / 1e6, 2),
                TablePrinter::Fmt(depth2 / 1e6, 2),
                TablePrinter::Fmt(folded_ns / 1e6, 2),
                TablePrinter::FmtSpeedup(estimate.serial_ns / executed),
                binding});
    json.Key(name).BeginObject();
    json.Field("hosts", hosts);
    json.Field("serial_ms", estimate.serial_ns / 1e6);
    json.Field("bound_ms", estimate.pipelined_ns / 1e6);
    json.Field("executed_ms", executed / 1e6);
    json.Field("executed_depth2_ms", depth2 / 1e6);
    json.Field("folded_ms", folded_ns / 1e6);
    json.Field("ingress_per_batch_us",
               NanosToMicros(estimate.fabric_work_ns /
                             static_cast<double>(batches.size())));
    json.Field("binding", binding);
    json.EndObject();
    if (estimate.pipelined_ns > executed * (1.0 + 1e-9)) {
      failures.push_back(name + ": bound exceeds executed");
    }
    if (executed > folded_ns * (1.0 + 1e-9)) {
      failures.push_back(name + ": the fabric lane is slower than folded");
    }
    if (executed > depth2 * (1.0 + 1e-9)) {
      failures.push_back(name + ": depth " + std::to_string(depth) +
                         " is slower than depth 2");
    }
    deeper_wins = deeper_wins || executed < depth2;
    if (hosts == 1 && executed >= estimate.serial_ns) {
      failures.push_back(name + ": executed does not beat serial");
    }
    if (hosts > 1 && executed >= folded_ns) {
      failures.push_back(name + ": the fabric lane does not beat folded");
    }
  };

  for (const auto& spec : trace::Table1Workloads()) {
    const bench::Workload w = bench::PrepareWorkload(spec, scale);
    auto system = bench::MakePaperSystem();
    auto engine = core::UpDlrmEngine::Create(
        nullptr, w.config, w.trace, system.get(),
        bench::PaperEngineOptions(partition::Method::kCacheAware, 0,
                                  scale));
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
    report(spec.name, 1, RunBatches(**engine, scale));
  }

  // One model across 4 shards, one host per shard.
  for (const char* dataset : {"read", "clo"}) {
    auto spec = trace::FindDataset(dataset);
    UPDLRM_CHECK_MSG(spec.ok(), spec.status().ToString());
    const bench::Workload w = bench::PrepareWorkload(*spec, scale);
    const pim::DpuSystemConfig base = bench::MakePaperSystemConfig(scale);
    core::ShardedEngineConfig fleet;
    fleet.shard_system = base;
    fleet.tiering.num_shards = kShards;
    fleet.fleet_topology.ranks_per_host = base.num_dpus / base.dpus_per_rank;
    auto sharded = core::ShardedEngine::Create(
        nullptr, w.config, w.trace, fleet,
        bench::PaperEngineOptions(partition::Method::kCacheAware, 0,
                                  scale));
    UPDLRM_CHECK_MSG(sharded.ok(), sharded.status().ToString());
    report(std::string(dataset) + " CA-shard" + std::to_string(kShards),
           kShards, RunBatches(**sharded, scale));
  }
  if (!deeper_wins) {
    failures.push_back("depth " + std::to_string(depth) +
                       " beats depth 2 on no row");
  }
  out.Print(std::cout);
  json.EndObject().Field("depth", depth);
  json.Field("gate_passed", failures.empty());
  json.EndObject().Newline();
  const Status written =
      telemetry::WriteTextFile("BENCH_pipelining.json", json.str());
  UPDLRM_CHECK_MSG(written.ok(), written.ToString());

  std::printf(
      "\na pipelined serving loop overlaps stage-1/3 transfers, "
      "stage-2 kernels and stage-3 aggregation of adjacent batches, and "
      "a remote shard's stage-1 fabric hop with the previous batch's "
      "transfers, and under backlog one kernel launch or pull call "
      "serves several batches; 'bound' is the four-resource lower bound "
      "(updlrm/pipelining.h), 'executed' the schedule realized by the "
      "serving executor (serve/executor.h) at depth %u, 'depth 2' the "
      "same at depth 2, 'folded' the same costs with each hop on the "
      "transfer lane, and speedup = serial / executed -> "
      "BENCH_pipelining.json\n",
      depth);
  for (const std::string& f : failures) std::printf("FAIL %s\n", f.c_str());
  return failures.empty() ? 0 : 1;
}
