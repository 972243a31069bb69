// Fleet topology: ranks, hosts, and per-hop transfer pricing.
//
// The paper's testbed is one host driving 4 ranks (256 DPUs). Scaling
// to thousands of DPUs spreads ranks across NUMA-attached hosts, and
// the cost of moving bytes then depends on how far they travel:
//
//   same rank   — partial sums pulled by a rank land in that rank's
//                 host buffer; merging them is a local DRAM stream;
//   cross rank  — merging two ranks' buffers hops the host memory
//                 system (NUMA interconnect / another channel);
//   cross host  — index lists pushed to ranks owned by a remote host,
//                 merged slices sent back from it, and partials a flat
//                 stream on another host reduces, additionally traverse
//                 the network fabric.
//
// FleetTopology classifies the hop between any two ranks and prices a
// byte movement over each hop class. The configuration is validated to
// be *monotone* — a farther hop is never cheaper in either bandwidth or
// latency — which is what makes "more hops never cheaper" a theorem of
// the cost model rather than an accident of defaults (pinned by
// tests/pim/topology_test.cc).
//
// The degenerate single-host configuration (ranks_per_host == 0) prices
// every existing transfer exactly as before: remote-ingress penalties
// are only paid by ranks whose host differs from the front-end host 0,
// so a flat 256-DPU fleet reproduces the historical numbers bit for
// bit.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/units.h"

namespace updlrm::pim {

struct FleetTopologyConfig {
  /// Ranks owned by one host; 0 = all ranks on one host (the paper's
  /// flat testbed, and the degenerate case of every pricing rule).
  std::uint32_t ranks_per_host = 0;

  /// Host id of this fleet slice's first rank. The sharded scale-out
  /// engine carves one fleet into per-shard systems; a shard whose
  /// ranks live on host > 0 pays cross-host ingress on its stage-1
  /// pushes (IngressExtra triggers on any rank whose host != 0), while
  /// its stage-3 pulls land on, and are reduced by, its own host. 0 for
  /// a whole-fleet or front-end-local topology.
  std::uint32_t host_offset = 0;

  /// Same-rank merge stream: the host core that pulled a rank's
  /// partials reduces them at local DRAM streaming bandwidth.
  double same_rank_bytes_per_sec = 60.0e9;
  Nanos same_rank_latency_ns = 0.0;

  /// Cross-rank hop: merging buffers owned by two different ranks of
  /// the same host (NUMA interconnect / cross-channel traffic).
  double cross_rank_bytes_per_sec = 20.0e9;
  Nanos cross_rank_latency_ns = 1'500.0;

  /// Cross-host hop: network fabric between NUMA-attached hosts.
  double cross_host_bytes_per_sec = 5.0e9;
  Nanos cross_host_latency_ns = 10'000.0;

  /// Enforces positive bandwidths and hop monotonicity: bandwidth
  /// non-increasing and latency non-decreasing with hop distance.
  Status Validate() const;
};

/// Hop classes in increasing distance order.
enum class TransferHop : std::uint32_t {
  kSameRank = 0,
  kCrossRank = 1,
  kCrossHost = 2,
};

const char* TransferHopName(TransferHop hop);

class FleetTopology {
 public:
  /// Requires config.Validate().ok() (checked).
  FleetTopology(FleetTopologyConfig config, std::uint32_t num_ranks);

  const FleetTopologyConfig& config() const { return config_; }
  std::uint32_t num_ranks() const { return num_ranks_; }
  std::uint32_t ranks_per_host() const { return ranks_per_host_; }
  std::uint32_t num_hosts() const { return num_hosts_; }
  /// True when every rank lives on the front-end host 0 — the
  /// degenerate case in which no ingress or cross-host pricing applies.
  bool single_host() const {
    return num_hosts_ == 1 && config_.host_offset == 0;
  }

  std::uint32_t HostOfRank(std::uint32_t rank) const {
    return config_.host_offset + rank / ranks_per_host_;
  }

  /// Hop class between two ranks' buffers.
  TransferHop HopBetween(std::uint32_t rank_a, std::uint32_t rank_b) const;

  /// Time to move `bytes` over one hop of class `hop` (latency +
  /// bytes / hop bandwidth). Monotone in both arguments.
  Nanos HopTime(TransferHop hop, std::uint64_t bytes) const;

  /// Extra ingress cost the front-end host pays to reach rank `rank`
  /// with `bytes`: zero for ranks of host 0, one cross-host hop
  /// otherwise. This is what makes transfer.cc price pushes to
  /// remote-host ranks differently from local ones. The hop is fabric
  /// time, not bus time: HostTransferModel::PushIngress reports it
  /// apart from the push (StageBreakdown::ingress), and the serving
  /// executor runs it on a fabric lane, so one batch's hop overlaps the
  /// previous batch's bus push and pull.
  Nanos IngressExtra(std::uint32_t rank, std::uint64_t bytes) const;

 private:
  FleetTopologyConfig config_;
  std::uint32_t num_ranks_ = 1;
  std::uint32_t ranks_per_host_ = 1;
  std::uint32_t num_hosts_ = 1;
};

}  // namespace updlrm::pim
