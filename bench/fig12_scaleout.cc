// Fleet scale-out: sustainable throughput and tail latency as the DPU
// fleet grows from the paper's 256-DPU testbed to 1024 and 4096 DPUs.
//
// Two scale-out shapes per partitioning method:
//
//   replicate — the fleet is replicas x the Table 2 system, each
//     replica holding a full model copy and serving a thinned slice of
//     the request stream. Replica 0 shares the front-end host; every
//     other replica's ranks live on a remote host and pay cross-host
//     ingress on their pushes (pim/topology.h; pulls land on the
//     replica's own host), so scaling is near-linear rather than free.
//   shard (CA only) — one ShardedEngine places the 8 tables on the
//     same rank groups in table groups (partition/tiering.h): at 4
//     shards each serves 2 whole tables, at 16 each table's rows split
//     over 2 shards by the RecShard-style CDF plan (accessed rows
//     spill to host DRAM only when a shard is full). Each shard pulls
//     and reduces its partials on its own host; a table's shards sum
//     its slices in a priced tree, and each table group's merged slice
//     crosses to the front end once. The merge and every shard's fixed
//     costs remain, so its throughput curve is the contrast to the
//     replicate rows.
//
// Per fleet size the bench calibrates pipeline capacity offline, sweeps
// offered load, and reports the highest load whose p99 holds a
// 3x-batch-time SLO with nothing shed. Emits BENCH_scaleout.json with
// one entry per fleet size per method (max_sustainable_qps + p99 at
// capacity; CA-shard rows add the mean per-batch host aggregate and
// its parts: shard reduce, DRAM gather, merge tree). --dpus/--ranks
// resize one replica/shard slice (the CI smoke runs a small fleet);
// --check gates every engine on the hardware-contract + fleet
// auditors.
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "serve/server.h"
#include "telemetry/json.h"
#include "updlrm/scaleout.h"

namespace {

using namespace updlrm;

constexpr std::uint32_t kReplicaCounts[] = {1, 4, 16};
constexpr double kLoadFactors[] = {0.6, 0.8, 1.0, 1.2};

struct Calibration {
  double capacity_qps = 0.0;
  Nanos batch_total = 0.0;
  // Mean per-batch host aggregate and its parts (nonzero parts on
  // sharded engines only).
  Nanos aggregate = 0.0;
  core::AggregateParts aggregate_parts;
};

// One offline pass: steady-state capacity = batch_size / time of the
// slower pipeline resource (host vs DPU), as in serve_latency.cc.
template <typename EngineT>
Calibration Calibrate(EngineT& engine, std::size_t batch_size) {
  auto profile = engine.RunAll(nullptr);
  UPDLRM_CHECK_MSG(profile.ok(), profile.status().ToString());
  const double nb = static_cast<double>(profile->num_batches);
  const Nanos host_per_batch =
      (profile->stages.cpu_to_dpu + profile->stages.dpu_to_cpu +
       profile->stages.cpu_aggregate) /
      nb;
  const Nanos dpu_per_batch = profile->stages.dpu_lookup / nb;
  Calibration cal;
  cal.batch_total = profile->stages.EmbeddingTotal() / nb;
  cal.aggregate = profile->stages.cpu_aggregate / nb;
  const core::AggregateParts& parts = profile->aggregate_parts;
  cal.aggregate_parts = {parts.shard_reduce / nb, parts.dram_gather / nb,
                         parts.merge_tree / nb};
  cal.capacity_qps = static_cast<double>(batch_size) /
                     (std::max(host_per_batch, dpu_per_batch) /
                      kNanosPerSecond);
  return cal;
}

struct LoadPoint {
  serve::SloReport report;
};

// Serves `engine` at every load factor x its own capacity. `monitor`
// (optional) attaches to the 1.0x-capacity run only — the same
// representative-run convention as --trace-out in serve_latency.
template <typename EngineT>
std::vector<LoadPoint> Sweep(EngineT& engine, const bench::Workload& w,
                             const bench::BenchScale& scale,
                             serve::ArrivalProcess process,
                             double capacity_qps, Nanos batch_total,
                             Nanos slo_ns,
                             telemetry::FleetMonitor* monitor = nullptr) {
  std::vector<LoadPoint> points;
  for (const double load : kLoadFactors) {
    const double qps = load * capacity_qps;
    serve::ArrivalOptions arrivals;
    arrivals.process = process;
    arrivals.qps = qps;
    arrivals.seed = scale.seed + 1;
    auto requests = serve::GenerateRequests(w.trace, 0, arrivals);
    UPDLRM_CHECK_MSG(requests.ok(), requests.status().ToString());
    serve::ServeOptions options;
    options.batcher.max_batch_size = scale.batch_size;
    options.batcher.max_queue_delay_ns = batch_total;
    options.batcher.queue_capacity = 4 * scale.batch_size;
    options.batcher.policy = serve::AdmissionPolicy::kShed;
    if (monitor != nullptr && load == 1.0) options.monitor = monitor;
    auto result = serve::RunServeSimulation(engine, *requests, options);
    UPDLRM_CHECK_MSG(result.ok(), result.status().ToString());
    points.push_back({result->MakeSloReport(qps, slo_ns)});
  }
  return points;
}

struct FleetResult {
  double max_sustainable_qps = 0.0;
  Nanos p99_at_capacity_ns = 0.0;
  // CA-shard rows only: the offline calibration, whose mean per-batch
  // host aggregate and its three parts go into BENCH_scaleout.json.
  std::optional<Calibration> shard_calibration;
};

// Combines one local + (replicas - 1) remote replicas: aggregate
// offered load splits in proportion to each replica's own capacity, so
// fleet p99 is the slower replica's p99 and anything either replica
// sheds counts against the fleet.
FleetResult CombineReplicas(const std::vector<LoadPoint>& local,
                            const std::vector<LoadPoint>& remote,
                            std::uint32_t replicas, double cap_local,
                            double cap_remote, Nanos slo_ns) {
  std::vector<serve::RatePoint> points;
  FleetResult out;
  const double cap_fleet =
      cap_local + static_cast<double>(replicas - 1) * cap_remote;
  for (std::size_t i = 0; i < local.size(); ++i) {
    const double qps = kLoadFactors[i] * cap_fleet;
    Nanos p99 = local[i].report.p99_ns;
    std::uint64_t shed = local[i].report.shed;
    if (replicas > 1) {
      p99 = std::max(p99, remote[i].report.p99_ns);
      shed += (replicas - 1) * remote[i].report.shed;
    }
    points.push_back(serve::RatePoint{qps, p99, shed});
    if (kLoadFactors[i] == 1.0) out.p99_at_capacity_ns = p99;
  }
  out.max_sustainable_qps = serve::MaxSustainableQps(points, slo_ns);
  return out;
}

FleetResult SingleEngineResult(const std::vector<LoadPoint>& points,
                               double capacity_qps, Nanos slo_ns) {
  std::vector<serve::RatePoint> rate;
  FleetResult out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    rate.push_back(serve::RatePoint{kLoadFactors[i] * capacity_qps,
                                    points[i].report.p99_ns,
                                    points[i].report.shed});
    if (kLoadFactors[i] == 1.0) {
      out.p99_at_capacity_ns = points[i].report.p99_ns;
    }
  }
  out.max_sustainable_qps = serve::MaxSustainableQps(rate, slo_ns);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "== Fleet scale-out: sustainable QPS and p99 at 1x/4x/16x the "
      "Table 2 system ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);
  bench::HostTimer timer("fig12_scaleout", scale);
  auto arrival = serve::ParseArrivalProcess(scale.arrival);
  UPDLRM_CHECK_MSG(arrival.ok(), arrival.status().ToString());

  const pim::DpuSystemConfig base = bench::MakePaperSystemConfig(scale);
  const std::uint32_t base_ranks = base.num_dpus / base.dpus_per_rank;
  std::printf("# fleet slice: %u DPUs in %u rank(s); fleets swept: "
              "%u / %u / %u DPUs\n\n",
              base.num_dpus, base_ranks, base.num_dpus,
              4 * base.num_dpus, 16 * base.num_dpus);

  TablePrinter out({"workload", "method", "dpus", "max qps", "p99 (us)",
                    "vs 1x"});
  using Layout = telemetry::JsonWriter::Layout;
  telemetry::JsonWriter json;
  json.BeginObject(Layout::kLines).Field("batch_size", scale.batch_size);
  json.Field("slice_dpus", base.num_dpus).Key("fleet_dpus").BeginArray();
  for (const std::uint32_t r : kReplicaCounts) json.Number(r * base.num_dpus);
  json.EndArray().Key("workloads").BeginObject(Layout::kLines);

  for (const std::size_t wi : {std::size_t{0}, std::size_t{4}}) {
    const trace::DatasetSpec& spec = trace::Table1Workloads()[wi];
    timer.BeginPhase("setup");
    const bench::Workload w = bench::PrepareWorkload(spec, scale);
    Nanos slo_ns = 0.0;  // 3x the uniform local replica's batch time

    // methods["U"|"NU"|"CA"|"CA-shard"][fleet index]
    std::vector<std::pair<std::string, std::vector<FleetResult>>> methods;

    for (const partition::Method method :
         {partition::Method::kUniform, partition::Method::kNonUniform,
          partition::Method::kCacheAware}) {
      timer.BeginPhase("replicate");
      const std::string name(partition::MethodShortName(method));
      // Local replica: the front-end host's own rank group.
      auto local_system = pim::DpuSystem::Create(base);
      UPDLRM_CHECK_MSG(local_system.ok(),
                       local_system.status().ToString());
      auto local = core::UpDlrmEngine::Create(
          nullptr, w.config, w.trace, local_system->get(),
          bench::PaperEngineOptions(method, 0, scale));
      UPDLRM_CHECK_MSG(local.ok(), local.status().ToString());
      const Calibration cal_local = Calibrate(**local, scale.batch_size);
      if (slo_ns == 0.0) slo_ns = 3.0 * cal_local.batch_total;

      // Remote replica: same slice, ranks owned by another host — every
      // push additionally pays the cross-host hop.
      pim::DpuSystemConfig remote_cfg = base;
      remote_cfg.topology.ranks_per_host = base_ranks;
      remote_cfg.topology.host_offset = 1;
      auto remote_system = pim::DpuSystem::Create(remote_cfg);
      UPDLRM_CHECK_MSG(remote_system.ok(),
                       remote_system.status().ToString());
      auto remote = core::UpDlrmEngine::Create(
          nullptr, w.config, w.trace, remote_system->get(),
          bench::PaperEngineOptions(method, 0, scale));
      UPDLRM_CHECK_MSG(remote.ok(), remote.status().ToString());
      const Calibration cal_remote =
          Calibrate(**remote, scale.batch_size);

      const auto points_local = Sweep(**local, w, scale, *arrival,
                                      cal_local.capacity_qps,
                                      cal_local.batch_total, slo_ns);
      const auto points_remote = Sweep(**remote, w, scale, *arrival,
                                       cal_remote.capacity_qps,
                                       cal_remote.batch_total, slo_ns);
      bench::AssertChecksClean(**local, spec.name + "/" + name + "/local");
      bench::AssertChecksClean(**remote,
                               spec.name + "/" + name + "/remote");

      std::vector<FleetResult> fleets;
      for (const std::uint32_t replicas : kReplicaCounts) {
        fleets.push_back(CombineReplicas(
            points_local, points_remote, replicas,
            cal_local.capacity_qps, cal_remote.capacity_qps, slo_ns));
      }
      methods.emplace_back(name, std::move(fleets));
    }

    // Sharded contrast: one model placed across the same rank groups
    // in table groups (shard 0 local, the rest remote); only
    // zero-frequency rows sit in host DRAM.
    {
      timer.BeginPhase("shard");
      std::vector<FleetResult> fleets;
      for (const std::uint32_t shards : kReplicaCounts) {
        core::ShardedEngineConfig fleet;
        fleet.shard_system = base;
        fleet.tiering.num_shards = shards;
        fleet.fleet_topology.ranks_per_host = base_ranks;
        auto sharded = core::ShardedEngine::Create(
            nullptr, w.config, w.trace, fleet,
            bench::PaperEngineOptions(partition::Method::kCacheAware, 0,
                                      scale));
        UPDLRM_CHECK_MSG(sharded.ok(), sharded.status().ToString());
        const Calibration cal = Calibrate(**sharded, scale.batch_size);
        // --health-out monitors one representative run: the largest
        // CA-shard fleet on the first workload, at 1.0x capacity (the
        // configuration with the most units and the reduction tree in
        // play). Units are global DPU ids — dpus_per_rank consecutive
        // units per rank, num_dpus per shard.
        std::unique_ptr<telemetry::FleetMonitor> monitor;
        if (wi == 0 &&
            shards == kReplicaCounts[std::size(kReplicaCounts) - 1]) {
          monitor = bench::MakeFleetMonitor(
              scale, slo_ns, base.dpus_per_rank, base.num_dpus);
        }
        const auto points = Sweep(**sharded, w, scale, *arrival,
                                  cal.capacity_qps, cal.batch_total,
                                  slo_ns, monitor.get());
        bench::AssertChecksClean(**sharded,
                                 spec.name + "/CA-shard/" +
                                     std::to_string(shards));
        bench::WriteHealthArtifacts(monitor.get(), scale);
        fleets.push_back(
            SingleEngineResult(points, cal.capacity_qps, slo_ns));
        fleets.back().shard_calibration = cal;
      }
      methods.emplace_back("CA-shard", std::move(fleets));
    }

    // Table rows + JSON.
    json.Key(spec.name).BeginObject().Field("slo_us", NanosToMicros(slo_ns));
    json.Key("fleets").BeginArray(Layout::kLines);
    for (std::size_t fi = 0; fi < std::size(kReplicaCounts); ++fi) {
      const std::uint32_t dpus = kReplicaCounts[fi] * base.num_dpus;
      json.BeginObject().Field("dpus", dpus);
      json.Field("replicas", kReplicaCounts[fi]).Key("methods").BeginObject();
      for (std::size_t mi = 0; mi < methods.size(); ++mi) {
        const auto& [name, fleets] = methods[mi];
        const FleetResult& r = fleets[fi];
        const double base_qps = fleets[0].max_sustainable_qps;
        out.AddRow({spec.name, name, std::to_string(dpus),
                    TablePrinter::Fmt(r.max_sustainable_qps, 0),
                    TablePrinter::Fmt(
                        NanosToMicros(r.p99_at_capacity_ns), 1),
                    TablePrinter::Fmt(
                        base_qps > 0.0
                            ? r.max_sustainable_qps / base_qps
                            : 0.0,
                        2) + "x"});
        json.Key(name).BeginObject();
        json.Field("max_sustainable_qps", r.max_sustainable_qps);
        json.Field("p99_us", NanosToMicros(r.p99_at_capacity_ns));
        if (r.shard_calibration.has_value()) {
          const Calibration& cal = *r.shard_calibration;
          json.Field("aggregate_us", NanosToMicros(cal.aggregate));
          json.Field("shard_reduce_us",
                     NanosToMicros(cal.aggregate_parts.shard_reduce));
          json.Field("dram_gather_us",
                     NanosToMicros(cal.aggregate_parts.dram_gather));
          json.Field("merge_tree_us",
                     NanosToMicros(cal.aggregate_parts.merge_tree));
        }
        json.EndObject();
      }
      json.EndObject().EndObject();
    }
    json.EndArray().EndObject();
  }
  out.Print(std::cout);

  json.EndObject().EndObject().Newline();
  const Status written =
      telemetry::WriteTextFile("BENCH_scaleout.json", json.str());
  UPDLRM_CHECK_MSG(written.ok(), written.ToString());
  std::printf(
      "\nmax sustainable QPS = highest swept load with p99 <= 3x the "
      "uniform local replica's batch time and nothing shed; replicate "
      "rows aggregate one local + N-1 remote replicas, CA-shard rows "
      "spread one model across the fleet -> BENCH_scaleout.json\n");
  return 0;
}
