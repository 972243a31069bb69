#include "updlrm/placement.h"

#include <algorithm>

#include "common/units.h"

namespace updlrm::core {

namespace {

// Stage-3 output region: one row slice per sample; 64 KB covers batch
// sizes up to 512 at the widest Nc.
constexpr std::uint64_t kOutputRegionBytes = 64 * kKiB;

std::span<const std::uint8_t> AsBytes(std::span<const std::int32_t> v) {
  return {reinterpret_cast<const std::uint8_t*>(v.data()), v.size() * 4};
}

}  // namespace

Result<TableGroup> BuildTableGroup(std::uint32_t table_index,
                                   std::uint32_t first_dpu,
                                   partition::PartitionPlan plan,
                                   const pim::DpuSystemConfig& system_config,
                                   std::uint64_t reserved_io_bytes,
                                   bool build_row_slots) {
  if (reserved_io_bytes <= kOutputRegionBytes) {
    return Status::InvalidArgument(
        "reserved_io_bytes must exceed the output region");
  }

  TableGroup group;
  group.table_index = table_index;
  group.first_dpu = first_dpu;
  group.plan = std::move(plan);
  const auto& geom = group.plan.geom;
  const std::uint32_t row_bytes = geom.row_bytes();

  group.emt_rows_per_bin = group.plan.EmtRowsPerBin();
  group.cache_bytes_per_bin = group.plan.has_cache()
                                  ? group.plan.CacheBytesPerBin()
                                  : std::vector<std::uint64_t>(
                                        geom.row_shards, 0);

  const std::uint64_t emt_need =
      *std::max_element(group.emt_rows_per_bin.begin(),
                        group.emt_rows_per_bin.end()) *
      row_bytes;
  const std::uint64_t cache_need = *std::max_element(
      group.cache_bytes_per_bin.begin(), group.cache_bytes_per_bin.end());

  // Region bases are row-slice aligned so routing can address every
  // region with absolute slot numbers (offset / row_bytes).
  MramLayout& layout = group.layout;
  layout.emt_base = 0;
  layout.emt_bytes = AlignUp(emt_need, row_bytes);
  layout.cache_base = layout.emt_base + layout.emt_bytes;
  layout.cache_bytes = AlignUp(cache_need, row_bytes);
  layout.output_bytes = kOutputRegionBytes;
  layout.index_base = layout.cache_base + layout.cache_bytes;
  layout.index_bytes = reserved_io_bytes - kOutputRegionBytes;
  layout.output_base = layout.index_base + layout.index_bytes;

  const std::uint64_t total = layout.output_base + layout.output_bytes;
  if (total > system_config.dpu.mram_bytes) {
    return Status::CapacityExceeded(
        "MRAM layout needs " + std::to_string(total) + " bytes, bank has " +
        std::to_string(system_config.dpu.mram_bytes));
  }

  if (build_row_slots) {
    group.row_slot.assign(geom.table.rows, kCachedRowSlot);
    std::vector<std::uint32_t> next_slot(geom.row_shards, 0);
    for (std::uint64_t r = 0; r < geom.table.rows; ++r) {
      const bool cached =
          !group.plan.item_list.empty() && group.plan.item_list[r] >= 0;
      if (cached) continue;
      group.row_slot[r] = next_slot[group.plan.row_bin[r]]++;
    }
  }

  group.list_offset.assign(group.plan.cache.lists.size(), 0);
  {
    std::vector<std::uint64_t> next_offset(geom.row_shards, 0);
    for (std::size_t l = 0; l < group.plan.cache.lists.size(); ++l) {
      const auto bin =
          static_cast<std::uint32_t>(group.plan.list_bin[l]);
      group.list_offset[l] = next_offset[bin];
      next_offset[bin] +=
          group.plan.cache.lists[l].StorageBytes(row_bytes);
    }
  }
  return group;
}

void BuildWramCache(TableGroup& group, std::span<const std::uint64_t> freq,
                    std::span<const std::uint32_t> by_freq,
                    std::uint32_t rows_per_dpu) {
  group.wram_pinned.clear();
  group.wram_rows_per_bin.clear();
  if (rows_per_dpu == 0) return;
  const auto& geom = group.plan.geom;
  UPDLRM_CHECK(freq.size() == geom.table.rows &&
               by_freq.size() == geom.table.rows);

  // Eligible rows are the ones stage-1 routing sends down the EMT path:
  // not a cache-list member (those read subset sums). A pinned row keeps
  // its MRAM slot — WRAM holds a copy — so the functional path is
  // unchanged. Walking the hottest-first order fills every bin with its
  // own hottest rows and stops once each bin is full.
  group.wram_pinned.assign(CeilDiv(geom.table.rows, 64), 0);
  group.wram_rows_per_bin.assign(geom.row_shards, 0);
  std::uint32_t bins_open = geom.row_shards;
  for (const std::uint32_t r : by_freq) {
    // Past here rows are never referenced (pinning them is waste), or
    // every bin is full.
    if (freq[r] == 0 || bins_open == 0) break;
    const bool cached =
        !group.plan.item_list.empty() && group.plan.item_list[r] >= 0;
    std::uint32_t& pinned = group.wram_rows_per_bin[group.plan.row_bin[r]];
    if (cached || pinned == rows_per_dpu) continue;
    group.wram_pinned[r / 64] |= std::uint64_t{1} << (r % 64);
    if (++pinned == rows_per_dpu) --bins_open;
  }
}

Status PlaceTable(const dlrm::EmbeddingTable& table, const TableGroup& group,
                  pim::DpuSystem& system, std::uint32_t dpu_offset) {
  if (!system.functional()) {
    return Status::FailedPrecondition(
        "PlaceTable requires a functional DpuSystem");
  }
  if (group.row_slot.empty()) {
    return Status::FailedPrecondition(
        "TableGroup was built without row slots (timing-only)");
  }
  const auto& geom = group.plan.geom;
  if (table.rows() != geom.table.rows || table.cols() != geom.table.cols) {
    return Status::InvalidArgument("table shape does not match plan");
  }
  const std::uint32_t row_bytes = geom.row_bytes();

  // EMT region: one quantized slice per (uncached row, column shard).
  std::vector<std::int32_t> qrow(table.cols());
  for (std::uint64_t r = 0; r < table.rows(); ++r) {
    const std::uint32_t slot = group.row_slot[r];
    if (slot == kCachedRowSlot) continue;
    table.QuantizedRow(r, qrow);
    const std::uint32_t bin = group.plan.row_bin[r];
    for (std::uint32_t c = 0; c < geom.col_shards; ++c) {
      const std::uint64_t offset =
          group.layout.emt_base +
          static_cast<std::uint64_t>(slot) * row_bytes;
      UPDLRM_RETURN_IF_ERROR(
          system.dpu(dpu_offset + group.GlobalDpu(bin, c))
              .mram()
              .Write(offset, AsBytes(std::span<const std::int32_t>(
                                 qrow.data() + c * geom.nc, geom.nc))));
    }
  }

  // Cache region: all non-empty subset sums of every placed list.
  std::vector<std::vector<std::int32_t>> qitems;
  std::vector<std::int32_t> subset_sum(table.cols());
  for (std::size_t l = 0; l < group.plan.cache.lists.size(); ++l) {
    const auto& list = group.plan.cache.lists[l];
    const auto bin = static_cast<std::uint32_t>(group.plan.list_bin[l]);
    qitems.assign(list.items.size(), std::vector<std::int32_t>(table.cols()));
    for (std::size_t i = 0; i < list.items.size(); ++i) {
      table.QuantizedRow(list.items[i], qitems[i]);
    }
    for (std::uint32_t mask = 1; mask < (1U << list.items.size()); ++mask) {
      std::fill(subset_sum.begin(), subset_sum.end(), 0);
      for (std::size_t i = 0; i < list.items.size(); ++i) {
        if (!(mask & (1U << i))) continue;
        for (std::uint32_t c = 0; c < table.cols(); ++c) {
          subset_sum[c] += qitems[i][c];
        }
      }
      const std::uint64_t slot_offset =
          group.layout.cache_base + group.list_offset[l] +
          static_cast<std::uint64_t>(mask - 1) * row_bytes;
      for (std::uint32_t c = 0; c < geom.col_shards; ++c) {
        UPDLRM_RETURN_IF_ERROR(
            system.dpu(dpu_offset + group.GlobalDpu(bin, c))
                .mram()
                .Write(slot_offset,
                       AsBytes(std::span<const std::int32_t>(
                           subset_sum.data() + c * geom.nc, geom.nc))));
      }
    }
  }
  return Status::Ok();
}

}  // namespace updlrm::core
