// Host <-> DPU transfer timing model.
//
// §2.2 of the paper: host transfers to/from MRAM banks "can occur
// concurrently if the buffers transferred to and from all MRAM banks are
// of the same size. Otherwise, the transfers happen sequentially." The
// UPMEM SDK's batched transfer call pads ragged buffers to the largest
// size to regain the parallel path; UpDLRM does the same (see
// engine.cc), and this model prices both paths:
//
//   parallel (equal / padded):  launch + max_rank_padded_bytes / rank_bw
//   sequential (ragged):        launch + sum_bytes / serial_bw
//
// Ranks transfer concurrently; within a rank the padded buffer matrix is
// streamed at the rank's aggregate bandwidth. A push to a rank of a
// remote host first crosses the network fabric (FleetTopology::
// IngressExtra); PushTime includes that hop and PushIngress returns it,
// so a scheduler can run the hop off the host's bus lane.
#pragma once

#include <cstdint>
#include <span>

#include "common/status.h"
#include "common/units.h"
#include "pim/topology.h"

namespace updlrm::pim {

struct HostTransferParams {
  // Aggregate CPU->MRAM bandwidth of one 64-DPU rank (parallel path).
  double push_bytes_per_sec_per_rank = 3.0e9;
  // Aggregate MRAM->CPU bandwidth of one rank (parallel path).
  double pull_bytes_per_sec_per_rank = 0.9e9;
  // Single-buffer bandwidth of the sequential (ragged) path.
  double serial_bytes_per_sec = 0.25e9;
  // Fixed software cost of one batched push/pull call (SDK overhead:
  // building the transfer matrix, rank scheduling).
  Nanos transfer_launch_ns = 45'000.0;
  // Fixed software cost of one dpu_launch() kernel boot.
  Nanos kernel_launch_ns = 50'000.0;

  Status Validate() const;
};

class HostTransferModel {
 public:
  /// `topology` places the fleet's ranks onto hosts; a push to a rank
  /// owned by a host other than the front-end host 0 pays a cross-host
  /// ingress hop, which PushTime includes and PushIngress reports on
  /// its own. Pulls pay none: the partials land on, and are reduced by,
  /// the host that owns the rank. The default (single-host) topology
  /// prices everything exactly as the historical flat model.
  HostTransferModel(HostTransferParams params, std::uint32_t num_dpus,
                    std::uint32_t dpus_per_rank,
                    FleetTopologyConfig topology = {});

  /// Time to push per-DPU buffers (bytes_per_dpu[i] to DPU i). When
  /// `pad_to_max` the buffers are padded to the per-call maximum and
  /// streamed on the parallel path; otherwise ragged buffers fall back
  /// to the sequential path (equal buffers always go parallel; a
  /// zero-byte DPU transfers nothing and never forces the sequential
  /// path). An empty span or all-zero vector costs exactly zero — no
  /// launch is issued for a transfer that moves no bytes.
  Nanos PushTime(std::span<const std::uint64_t> bytes_per_dpu,
                 bool pad_to_max) const;

  /// The part of PushTime(bytes_per_dpu, pad_to_max) spent on the
  /// cross-host fabric, from the same per-rank IngressExtra terms
  /// PushTime adds: on the parallel path, what those terms add to the
  /// slowest rank's bound (the largest IngressExtra when the call's
  /// ranks share one host); on the sequential path, every remote rank's
  /// hop (SequentialIngress). PushTime minus this is the bus-only
  /// price. Zero on a single-host topology. The serving executor runs
  /// this part on its fabric lane, off the host transfer lane.
  Nanos PushIngress(std::span<const std::uint64_t> bytes_per_dpu,
                    bool pad_to_max) const;

  /// Same for DPU->CPU retrieval.
  Nanos PullTime(std::span<const std::uint64_t> bytes_per_dpu,
                 bool pad_to_max) const;

  /// Broadcast of one buffer to all DPUs (always parallel).
  Nanos BroadcastTime(std::uint64_t bytes) const;

  /// Fixed cost of one kernel boot across the system.
  Nanos KernelLaunchOverhead() const { return params_.kernel_launch_ns; }

  const HostTransferParams& params() const { return params_; }
  std::uint32_t num_ranks() const { return num_ranks_; }
  const FleetTopology& topology() const { return topology_; }

 private:
  // Pushes carry the front end's index lists to a rank, so a push to a
  // rank of a remote host pays the cross-host ingress hop. A pull lands
  // on the host that owns the rank, which reduces it there: no ingress.
  enum class Direction { kPush, kPull };

  // A transfer's price and the cross-host ingress share of it.
  struct TransferPrice {
    Nanos total = 0.0;
    Nanos ingress = 0.0;
  };

  TransferPrice TransferTime(std::span<const std::uint64_t> bytes_per_dpu,
                             bool pad_to_max, Direction dir) const;
  // Total cross-host ingress cost of a sequential (ragged) push: each
  // remote rank's raw bytes traverse the fabric once. Zero for pulls.
  Nanos SequentialIngress(std::span<const std::uint64_t> bytes_per_dpu,
                          Direction dir) const;

  HostTransferParams params_;
  std::uint32_t num_dpus_;
  std::uint32_t dpus_per_rank_;
  std::uint32_t num_ranks_;
  FleetTopology topology_;
};

}  // namespace updlrm::pim
