// EMT placement: materializing a PartitionPlan onto a DPU group.
//
// Each table owns a contiguous group of DPUs (Fig. 4: "DPUs used to
// store the same EMT collectively form a group"). Every DPU's MRAM is
// laid out as
//
//   [ EMT region | cache region | stage-1 index buffer | stage-3 output ]
//
// DPU (bin b, column shard c) of the group stores, in its EMT region,
// the Nc-wide column-c slices of bin b's uncached rows (one slot per
// row, in ascending row order), and in its cache region the subset
// partial sums of the cache lists Algorithm 1 assigned to bin b.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "dlrm/embedding.h"
#include "partition/plan.h"
#include "pim/system.h"

namespace updlrm::core {

/// Sentinel slot for rows that live in the cache region instead.
inline constexpr std::uint32_t kCachedRowSlot = 0xffffffffU;

struct MramLayout {
  std::uint64_t emt_base = 0;
  std::uint64_t emt_bytes = 0;
  std::uint64_t cache_base = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t index_base = 0;
  std::uint64_t index_bytes = 0;
  std::uint64_t output_base = 0;
  std::uint64_t output_bytes = 0;
};

struct TableGroup {
  std::uint32_t table_index = 0;
  std::uint32_t first_dpu = 0;  // global id of the group's first DPU
  partition::PartitionPlan plan;
  MramLayout layout;

  /// row -> slot within its bin's EMT region; kCachedRowSlot for rows
  /// living in the cache region instead. Only populated when
  /// `build_row_slots` (functional mode).
  std::vector<std::uint32_t> row_slot;
  /// list -> byte offset of its slot block within the cache region.
  std::vector<std::uint64_t> list_offset;
  /// Uncached rows per bin (slot counts).
  std::vector<std::uint64_t> emt_rows_per_bin;
  /// Cache bytes used per bin.
  std::vector<std::uint64_t> cache_bytes_per_bin;
  /// One bit per row (bit row % 64 of word row / 64), set if the row
  /// is pinned in its bin's WRAM hot-row tier
  /// (EngineOptions::wram_cache_rows). Empty when the tier is off.
  std::vector<std::uint64_t> wram_pinned;
  /// Rows pinned per bin (size row_shards; empty when the tier is off).
  std::vector<std::uint32_t> wram_rows_per_bin;

  std::uint32_t GlobalDpu(std::uint32_t bin, std::uint32_t col_shard) const {
    return first_dpu + plan.geom.DpuLocal(bin, col_shard);
  }
  /// True when `row` is pinned in its bin's WRAM tier.
  bool WramPinned(std::uint64_t row) const {
    return !wram_pinned.empty() &&
           ((wram_pinned[row / 64] >> (row % 64)) & 1U) != 0;
  }
};

/// Computes the layout and (optionally) the row->slot map, validating
/// that all regions fit the MRAM bank.
Result<TableGroup> BuildTableGroup(std::uint32_t table_index,
                                   std::uint32_t first_dpu,
                                   partition::PartitionPlan plan,
                                   const pim::DpuSystemConfig& system_config,
                                   std::uint64_t reserved_io_bytes,
                                   bool build_row_slots);

/// Pins each bin's top-`rows_per_dpu` hottest EMT-resident rows (never
/// cache-list members — those live in the cache tier) into the bin's
/// WRAM hot-row cache. `by_freq` is every row in frequency-descending,
/// row-id-ascending order (trace::ItemsByFrequency of `freq`), so the
/// selection is deterministic; zero-frequency rows are never pinned.
/// Populates `wram_pinned` / `wram_rows_per_bin`; a no-op when
/// `rows_per_dpu` is 0.
void BuildWramCache(TableGroup& group, std::span<const std::uint64_t> freq,
                    std::span<const std::uint32_t> by_freq,
                    std::uint32_t rows_per_dpu);

/// Writes quantized EMT slices and cache subset sums into the group's
/// MRAM banks (functional mode only), shifted by `dpu_offset` global
/// DPU ids (a model replica's copy of the group).
Status PlaceTable(const dlrm::EmbeddingTable& table, const TableGroup& group,
                  pim::DpuSystem& system, std::uint32_t dpu_offset = 0);

}  // namespace updlrm::core
