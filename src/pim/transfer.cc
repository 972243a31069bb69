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

double HostTransferModel::RankBandwidth(Direction dir) const {
  return dir == Direction::kPush ? params_.push_bytes_per_sec_per_rank
                                 : params_.pull_bytes_per_sec_per_rank;
}

Nanos HostTransferModel::RankIngress(Direction dir, std::uint32_t rank,
                                     std::uint64_t bytes) const {
  return dir == Direction::kPush ? topology_.IngressExtra(rank, bytes) : 0.0;
}

Nanos HostTransferModel::TransferTime(
    std::span<const std::uint64_t> bytes_per_dpu, bool pad_to_max,
    Direction dir) const {
  if (bytes_per_dpu.empty()) return 0.0;
  UPDLRM_CHECK_MSG(bytes_per_dpu.size() == num_dpus_,
                   "bytes_per_dpu must cover every DPU");
  const std::uint64_t max_bytes =
      simd::MaxU64(bytes_per_dpu.data(), bytes_per_dpu.size());
  if (max_bytes == 0) return 0.0;

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
    const double rank_bw = RankBandwidth(dir);
    Nanos bound = 0.0;
    for (std::uint32_t r = 0; r < num_ranks_; ++r) {
      const std::uint32_t lo = r * dpus_per_rank_;
      const std::uint32_t hi =
          std::min(num_dpus_, lo + dpus_per_rank_);
      const std::uint64_t rank_bytes =
          static_cast<std::uint64_t>(hi - lo) * max_bytes;
      bound = std::max(bound, TransferNanos(rank_bytes, rank_bw) +
                                  RankIngress(dir, r, rank_bytes));
    }
    return params_.transfer_launch_ns + bound;
  }

  // Sequential path: ragged buffers are copied one DPU at a time.
  const std::uint64_t total =
      simd::SumU64(bytes_per_dpu.data(), bytes_per_dpu.size());
  return params_.transfer_launch_ns +
         TransferNanos(total, params_.serial_bytes_per_sec) +
         SequentialIngress(bytes_per_dpu, dir);
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

std::pair<Nanos, std::uint64_t> HostTransferModel::PaddedStream(
    std::span<const std::uint64_t> bytes_per_dpu, std::uint32_t lo,
    std::uint32_t hi, Direction dir) const {
  const std::uint64_t call_max =
      simd::MaxU64(bytes_per_dpu.data() + lo, hi - lo);
  if (call_max == 0) return {0.0, 0};
  // Each rank streams its participating (nonzero) buffers, padded to the
  // call-wide max, concurrently with the other ranks; the fullest rank
  // (including a push's cross-host ingress hop) bounds the call.
  const double rank_bw = RankBandwidth(dir);
  Nanos bound = 0.0;
  std::uint64_t streamed = 0;
  const std::uint32_t first_rank = lo / dpus_per_rank_;
  const std::uint32_t last_rank = (hi - 1) / dpus_per_rank_;
  for (std::uint32_t r = first_rank; r <= last_rank; ++r) {
    const std::uint32_t rlo = std::max(lo, r * dpus_per_rank_);
    const std::uint32_t rhi = std::min(hi, (r + 1) * dpus_per_rank_);
    const std::uint64_t pop =
        simd::CountNonZeroU64(bytes_per_dpu.data() + rlo, rhi - rlo);
    const std::uint64_t rank_bytes = pop * call_max;
    bound = std::max(bound, TransferNanos(rank_bytes, rank_bw) +
                                RankIngress(dir, r, rank_bytes));
    streamed += rank_bytes;
  }
  return {bound, streamed};
}

TransferPlan HostTransferModel::PlanTransfer(
    std::span<const std::uint64_t> bytes_per_dpu,
    std::span<const std::uint32_t> group_start, Direction dir) const {
  TransferPlan plan;
  if (bytes_per_dpu.empty()) return plan;
  UPDLRM_CHECK_MSG(bytes_per_dpu.size() == num_dpus_,
                   "bytes_per_dpu must cover every DPU");
  UPDLRM_CHECK_MSG(group_start.size() >= 2, "need at least one group");
  UPDLRM_CHECK_MSG(group_start.front() == 0 &&
                       group_start.back() == bytes_per_dpu.size(),
                   "group_start must cover [0, num_dpus]");

  const std::uint64_t total =
      simd::SumU64(bytes_per_dpu.data(), bytes_per_dpu.size());
  if (total == 0) return plan;  // nothing moves: no launch, zero cost

  // Candidate 1: one coalesced call padded to the call-wide nonzero max.
  const auto [coal_stream, coal_bytes] =
      PaddedStream(bytes_per_dpu, 0, num_dpus_, dir);
  const Nanos coal_time = params_.transfer_launch_ns + coal_stream;

  // Candidate 2: one call per nonzero group, each padded only to its own
  // max. Groups are issued back to back (the SDK serializes calls).
  Nanos group_time = 0.0;
  std::uint64_t group_bytes = 0;
  std::uint32_t group_launches = 0;
  for (std::size_t g = 0; g + 1 < group_start.size(); ++g) {
    const auto [t, b] = PaddedStream(bytes_per_dpu, group_start[g],
                                     group_start[g + 1], dir);
    if (b == 0) continue;
    group_time += params_.transfer_launch_ns + t;
    group_bytes += b;
    ++group_launches;
  }

  // Candidate 3: one ragged call, buffers copied serially (no padding).
  const Nanos seq_time = params_.transfer_launch_ns +
                         TransferNanos(total, params_.serial_bytes_per_sec) +
                         SequentialIngress(bytes_per_dpu, dir);

  // Deterministic choice: strict improvement required to leave the
  // coalesced path, so ties resolve coalesced > per-group > sequential.
  plan.path = TransferPlan::Path::kCoalescedPadded;
  plan.time = coal_time;
  plan.streamed_bytes = coal_bytes;
  plan.launches = 1;
  if (group_time < plan.time) {
    plan.path = TransferPlan::Path::kPerGroupPadded;
    plan.time = group_time;
    plan.streamed_bytes = group_bytes;
    plan.launches = group_launches;
  }
  if (seq_time < plan.time) {
    plan.path = TransferPlan::Path::kSequential;
    plan.time = seq_time;
    plan.streamed_bytes = total;
    plan.launches = 1;
  }
  return plan;
}

TransferPlan HostTransferModel::PlanPush(
    std::span<const std::uint64_t> bytes_per_dpu,
    std::span<const std::uint32_t> group_start) const {
  return PlanTransfer(bytes_per_dpu, group_start, Direction::kPush);
}

TransferPlan HostTransferModel::PlanPull(
    std::span<const std::uint64_t> bytes_per_dpu,
    std::span<const std::uint32_t> group_start) const {
  return PlanTransfer(bytes_per_dpu, group_start, Direction::kPull);
}

Nanos HostTransferModel::PushTime(
    std::span<const std::uint64_t> bytes_per_dpu, bool pad_to_max) const {
  return TransferTime(bytes_per_dpu, pad_to_max, Direction::kPush);
}

Nanos HostTransferModel::PullTime(
    std::span<const std::uint64_t> bytes_per_dpu, bool pad_to_max) const {
  return TransferTime(bytes_per_dpu, pad_to_max, Direction::kPull);
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
