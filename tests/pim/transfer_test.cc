#include "pim/transfer.h"

#include <gtest/gtest.h>

#include <vector>

namespace updlrm::pim {
namespace {

HostTransferParams FastParams() {
  HostTransferParams p;
  p.push_bytes_per_sec_per_rank = 1.0e9;
  p.pull_bytes_per_sec_per_rank = 0.5e9;
  p.serial_bytes_per_sec = 0.1e9;
  p.transfer_launch_ns = 1000.0;
  p.kernel_launch_ns = 2000.0;
  return p;
}

TEST(TransferTest, EqualBuffersTakeParallelPath) {
  const HostTransferModel model(FastParams(), 128, 64);
  EXPECT_EQ(model.num_ranks(), 2u);
  const std::vector<std::uint64_t> bytes(128, 1000);
  // Each rank streams 64 * 1000 B at 1 GB/s => 64 us + 1 us launch.
  EXPECT_NEAR(model.PushTime(bytes, false), 1000.0 + 64'000.0, 1.0);
}

TEST(TransferTest, RaggedPaddedToMax) {
  const HostTransferModel model(FastParams(), 128, 64);
  std::vector<std::uint64_t> bytes(128, 100);
  bytes[3] = 1000;
  // Padded: every DPU costs the 1000-byte max.
  EXPECT_NEAR(model.PushTime(bytes, true), 1000.0 + 64'000.0, 1.0);
}

TEST(TransferTest, RaggedWithoutPaddingIsSequential) {
  const HostTransferModel model(FastParams(), 128, 64);
  std::vector<std::uint64_t> bytes(128, 100);
  bytes[3] = 1000;
  const std::uint64_t total = 127 * 100 + 1000;
  EXPECT_NEAR(model.PushTime(bytes, false),
              1000.0 + static_cast<double>(total) / 0.1, 1.0);
}

TEST(TransferTest, SequentialSlowerThanPadded) {
  // The engine pads precisely because the sequential path is punitive.
  const HostTransferModel model(FastParams(), 128, 64);
  std::vector<std::uint64_t> bytes(128, 900);
  bytes[5] = 1000;
  EXPECT_LT(model.PushTime(bytes, true), model.PushTime(bytes, false));
}

TEST(TransferTest, PullUsesPullBandwidth) {
  const HostTransferModel model(FastParams(), 64, 64);
  const std::vector<std::uint64_t> bytes(64, 1000);
  EXPECT_NEAR(model.PullTime(bytes, false), 1000.0 + 128'000.0, 1.0);
}

TEST(TransferTest, ZeroBytesIsFree) {
  const HostTransferModel model(FastParams(), 64, 64);
  const std::vector<std::uint64_t> bytes(64, 0);
  EXPECT_DOUBLE_EQ(model.PushTime(bytes, true), 0.0);
  EXPECT_DOUBLE_EQ(model.PullTime(bytes, true), 0.0);
}

TEST(TransferTest, EmptySpanIsFreeNoLaunch) {
  // A transfer that moves no bytes must not even pay the launch cost.
  const HostTransferModel model(FastParams(), 64, 64);
  const std::vector<std::uint64_t> empty;
  EXPECT_DOUBLE_EQ(model.PushTime(empty, true), 0.0);
  EXPECT_DOUBLE_EQ(model.PushTime(empty, false), 0.0);
  EXPECT_DOUBLE_EQ(model.PullTime(empty, true), 0.0);
  EXPECT_DOUBLE_EQ(model.PullTime(empty, false), 0.0);
}

TEST(TransferTest, AllZeroUnpaddedIsFreeNoLaunch) {
  const HostTransferModel model(FastParams(), 64, 64);
  const std::vector<std::uint64_t> bytes(64, 0);
  EXPECT_DOUBLE_EQ(model.PushTime(bytes, false), 0.0);
  EXPECT_DOUBLE_EQ(model.PullTime(bytes, false), 0.0);
}

TEST(TransferTest, ZeroByteDpuDoesNotForceSequentialPath) {
  // §2.2's equal-buffer rule applies to buffers that exist: a DPU with
  // nothing to transfer is absent from the matrix, so the remaining
  // equal buffers still go parallel without padding.
  const HostTransferModel model(FastParams(), 128, 64);
  std::vector<std::uint64_t> bytes(128, 1000);
  bytes[7] = 0;
  EXPECT_NEAR(model.PushTime(bytes, false), 1000.0 + 64'000.0, 1.0);
  // Genuinely ragged nonzero buffers still fall back to sequential.
  bytes[7] = 500;
  const std::uint64_t total = 127 * 1000 + 500;
  EXPECT_NEAR(model.PushTime(bytes, false),
              1000.0 + static_cast<double>(total) / 0.1, 1.0);
}

TEST(TransferTest, BroadcastScalesWithRankPopulation) {
  const HostTransferModel model(FastParams(), 128, 64);
  // 64 copies of 1000 B per rank at 1 GB/s.
  EXPECT_NEAR(model.BroadcastTime(1000), 1000.0 + 64'000.0, 1.0);
  EXPECT_DOUBLE_EQ(model.BroadcastTime(0), 0.0);
}

TEST(TransferTest, PartialLastRank) {
  // 96 DPUs over 64-DPU ranks: rank 0 full, rank 1 half; the full rank
  // bounds the parallel transfer.
  const HostTransferModel model(FastParams(), 96, 64);
  EXPECT_EQ(model.num_ranks(), 2u);
  const std::vector<std::uint64_t> bytes(96, 1000);
  EXPECT_NEAR(model.PushTime(bytes, false), 1000.0 + 64'000.0, 1.0);
}

TEST(TransferTest, KernelLaunchOverheadExposed) {
  const HostTransferModel model(FastParams(), 64, 64);
  EXPECT_DOUBLE_EQ(model.KernelLaunchOverhead(), 2000.0);
}

TEST(TransferTest, ParamValidation) {
  HostTransferParams p = FastParams();
  p.serial_bytes_per_sec = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p = FastParams();
  p.transfer_launch_ns = -1.0;
  EXPECT_FALSE(p.Validate().ok());
  EXPECT_TRUE(FastParams().Validate().ok());
}

// Two ranks; rank 1 lives on host 1, off the front end.
HostTransferModel RemoteRankModel() {
  FleetTopologyConfig topo;
  topo.ranks_per_host = 1;
  return HostTransferModel(FastParams(), 128, 64, topo);
}

TEST(TransferTest, PullFromRemoteHostRankCostsTheLocalPull) {
  // A pull lands on the host that owns the rank: no cross-host hop, on
  // the padded and sequential paths alike.
  const HostTransferModel local(FastParams(), 128, 64);
  const HostTransferModel remote = RemoteRankModel();
  ASSERT_EQ(remote.topology().HostOfRank(1), 1u);
  std::vector<std::uint64_t> bytes(128, 900);
  bytes[70] = 1000;  // ragged, and inside the remote rank
  EXPECT_EQ(remote.PullTime(bytes, true), local.PullTime(bytes, true));
  EXPECT_EQ(remote.PullTime(bytes, false), local.PullTime(bytes, false));
}

TEST(TransferTest, PushToRemoteHostRankPaysIngress) {
  // The indices come from the front end: the remote rank's push still
  // crosses the fabric.
  const HostTransferModel local(FastParams(), 128, 64);
  const HostTransferModel remote = RemoteRankModel();
  const HostTransferParams params = FastParams();
  // Equal buffers, parallel path: the remote rank bounds the call.
  const std::vector<std::uint64_t> equal(128, 1000);
  const std::uint64_t rank_bytes = 64 * 1000;
  EXPECT_EQ(remote.PushTime(equal, true),
            params.transfer_launch_ns +
                (TransferNanos(rank_bytes,
                               params.push_bytes_per_sec_per_rank) +
                 remote.topology().IngressExtra(1, rank_bytes)));
  // Ragged, sequential path: the remote rank's raw bytes cross once.
  std::vector<std::uint64_t> ragged(128, 900);
  ragged[70] = 1000;
  const std::uint64_t remote_bytes = 63 * 900 + 1000;
  EXPECT_EQ(remote.PushTime(ragged, false),
            local.PushTime(ragged, false) +
                remote.topology().IngressExtra(1, remote_bytes));
}

TEST(TransferTest, PushIngressIsZeroOnASingleHost) {
  const HostTransferModel local(FastParams(), 128, 64);
  std::vector<std::uint64_t> ragged(128, 900);
  ragged[70] = 1000;
  EXPECT_EQ(local.PushIngress(ragged, true), 0.0);
  EXPECT_EQ(local.PushIngress(ragged, false), 0.0);
  EXPECT_EQ(local.PushIngress({}, true), 0.0);
}

TEST(TransferTest, PushMinusIngressIsTheBusOnlyPrice) {
  // Both ranks on remote host 1 (a remote shard's slice), and the
  // two-host model whose rank 1 alone is remote: taking the fabric
  // share out of a push leaves what the same push costs on the front
  // end's own host, on the padded and the ragged path alike.
  const HostTransferModel local(FastParams(), 128, 64);
  FleetTopologyConfig remote_host;
  remote_host.ranks_per_host = 2;
  remote_host.host_offset = 1;
  const HostTransferModel remote(FastParams(), 128, 64, remote_host);
  const HostTransferModel split = RemoteRankModel();
  std::vector<std::uint64_t> ragged(128, 900);
  ragged[70] = 1000;
  for (const HostTransferModel* model : {&remote, &split}) {
    for (const bool pad : {true, false}) {
      const Nanos ingress = model->PushIngress(ragged, pad);
      EXPECT_GT(ingress, model->topology().config().cross_host_latency_ns)
          << pad;
      EXPECT_NEAR(model->PushTime(ragged, pad) - ingress,
                  local.PushTime(ragged, pad), 1e-6)
          << pad;
    }
  }
  // Padded, one remote host: the largest per-rank hop (rank 1 holds the
  // 1000-byte buffer, but padding makes both matrices 64 x 1000 B).
  EXPECT_NEAR(remote.PushIngress(ragged, true),
              remote.topology().IngressExtra(1, 64 * 1000), 1e-9);
  // Ragged: every remote rank's raw bytes cross once.
  EXPECT_NEAR(remote.PushIngress(ragged, false),
              remote.topology().IngressExtra(0, 64 * 900) +
                  remote.topology().IngressExtra(1, 63 * 900 + 1000),
              1e-9);
}

TEST(TransferDeathTest, WrongVectorSizeAborts) {
  const HostTransferModel model(FastParams(), 64, 64);
  const std::vector<std::uint64_t> bytes(63, 100);
  EXPECT_DEATH((void)model.PushTime(bytes, true), "every DPU");
}

}  // namespace
}  // namespace updlrm::pim
