#include "pim/transfer.h"

#include <algorithm>

#include "common/simd.h"

namespace updlrm::pim {

Status HostTransferParams::Validate() const {
  if (push_bytes_per_sec_per_rank <= 0.0 ||
      pull_bytes_per_sec_per_rank <= 0.0 || serial_bytes_per_sec <= 0.0) {
    return Status::InvalidArgument("bandwidths must be > 0");
  }
  if (transfer_launch_ns < 0.0 || kernel_launch_ns < 0.0) {
    return Status::InvalidArgument("launch overheads must be >= 0");
  }
  return Status::Ok();
}

namespace {

std::uint32_t ComputeNumRanks(std::uint32_t num_dpus,
                              std::uint32_t dpus_per_rank) {
  UPDLRM_CHECK(num_dpus > 0);
  UPDLRM_CHECK(dpus_per_rank > 0);
  return static_cast<std::uint32_t>(CeilDiv(num_dpus, dpus_per_rank));
}

}  // namespace

HostTransferModel::HostTransferModel(HostTransferParams params,
                                     std::uint32_t num_dpus,
                                     std::uint32_t dpus_per_rank,
                                     FleetTopologyConfig topology)
    : params_(params),
      num_dpus_(num_dpus),
      dpus_per_rank_(dpus_per_rank),
      num_ranks_(ComputeNumRanks(num_dpus, dpus_per_rank)),
      topology_(topology, num_ranks_) {
  UPDLRM_CHECK_MSG(params_.Validate().ok(), "invalid HostTransferParams");
}

HostTransferModel::TransferPrice HostTransferModel::TransferTime(
    std::span<const std::uint64_t> bytes_per_dpu, bool pad_to_max,
    Direction dir) const {
  if (bytes_per_dpu.empty()) return {};
  UPDLRM_CHECK_MSG(bytes_per_dpu.size() == num_dpus_,
                   "bytes_per_dpu must cover every DPU");
  const std::uint64_t max_bytes =
      simd::MaxU64(bytes_per_dpu.data(), bytes_per_dpu.size());
  if (max_bytes == 0) return {};

  // A zero-byte DPU transfers nothing: it is absent from the transfer
  // matrix and must not force the ragged (sequential) path when every
  // participating buffer is the same size.
  const bool all_equal = simd::AllZeroOrEqualU64(
      bytes_per_dpu.data(), bytes_per_dpu.size(), max_bytes);

  if (all_equal || pad_to_max) {
    // Parallel path: every rank streams its (padded) buffer matrix
    // concurrently; the slowest rank bounds the call. Padding makes
    // each rank's matrix dpus_per_rank * max_bytes; a push to a rank
    // owned by a remote host additionally pays the cross-host ingress
    // hop, so the bound is per-rank, not a single worst-bytes division.
    // The ingress share is what the hops add over the bus-only bound.
    const bool push = dir == Direction::kPush;
    const double rank_bw = push ? params_.push_bytes_per_sec_per_rank
                                : params_.pull_bytes_per_sec_per_rank;
    Nanos bound = 0.0;
    Nanos bus_bound = 0.0;
    for (std::uint32_t r = 0; r < num_ranks_; ++r) {
      const std::uint32_t lo = r * dpus_per_rank_;
      const std::uint32_t hi =
          std::min(num_dpus_, lo + dpus_per_rank_);
      const std::uint64_t rank_bytes =
          static_cast<std::uint64_t>(hi - lo) * max_bytes;
      const Nanos bus = TransferNanos(rank_bytes, rank_bw);
      bus_bound = std::max(bus_bound, bus);
      bound = std::max(
          bound, bus + (push ? topology_.IngressExtra(r, rank_bytes) : 0.0));
    }
    return {params_.transfer_launch_ns + bound, bound - bus_bound};
  }

  // Sequential path: ragged buffers are copied one DPU at a time.
  const std::uint64_t total =
      simd::SumU64(bytes_per_dpu.data(), bytes_per_dpu.size());
  const Nanos ingress = SequentialIngress(bytes_per_dpu, dir);
  return {params_.transfer_launch_ns +
              TransferNanos(total, params_.serial_bytes_per_sec) + ingress,
          ingress};
}

Nanos HostTransferModel::SequentialIngress(
    std::span<const std::uint64_t> bytes_per_dpu, Direction dir) const {
  if (dir == Direction::kPull || topology_.single_host()) return 0.0;
  Nanos extra = 0.0;
  for (std::uint32_t r = 0; r < num_ranks_; ++r) {
    const std::uint32_t lo = r * dpus_per_rank_;
    const std::uint32_t hi = std::min(
        static_cast<std::uint32_t>(bytes_per_dpu.size()),
        lo + dpus_per_rank_);
    if (lo >= hi) break;
    const std::uint64_t rank_bytes =
        simd::SumU64(bytes_per_dpu.data() + lo, hi - lo);
    extra += topology_.IngressExtra(r, rank_bytes);
  }
  return extra;
}

Nanos HostTransferModel::PushTime(
    std::span<const std::uint64_t> bytes_per_dpu, bool pad_to_max) const {
  return TransferTime(bytes_per_dpu, pad_to_max, Direction::kPush).total;
}

Nanos HostTransferModel::PushIngress(
    std::span<const std::uint64_t> bytes_per_dpu, bool pad_to_max) const {
  if (topology_.single_host()) return 0.0;
  return TransferTime(bytes_per_dpu, pad_to_max, Direction::kPush).ingress;
}

Nanos HostTransferModel::PullTime(
    std::span<const std::uint64_t> bytes_per_dpu, bool pad_to_max) const {
  return TransferTime(bytes_per_dpu, pad_to_max, Direction::kPull).total;
}

Nanos HostTransferModel::BroadcastTime(std::uint64_t bytes) const {
  if (bytes == 0) return 0.0;
  // A broadcast writes the same buffer to every DPU of every rank in
  // parallel; each rank streams dpus_per_rank copies. Remote-host ranks
  // ingest the source buffer over the fabric first.
  const std::uint64_t rank_bytes =
      static_cast<std::uint64_t>(dpus_per_rank_) * bytes;
  Nanos bound =
      TransferNanos(rank_bytes, params_.push_bytes_per_sec_per_rank);
  if (!topology_.single_host()) {
    bound += topology_.HopTime(TransferHop::kCrossHost, bytes);
  }
  return params_.transfer_launch_ns + bound;
}

}  // namespace updlrm::pim
