#include "partition/plan.h"

namespace updlrm::partition {

Result<GroupGeometry> GroupGeometry::Make(dlrm::TableShape table,
                                          std::uint32_t dpus_per_table,
                                          std::uint32_t nc) {
  if (table.rows == 0 || table.cols == 0) {
    return Status::InvalidArgument("table shape must be non-empty");
  }
  if (dpus_per_table == 0) {
    return Status::InvalidArgument("dpus_per_table must be >= 1");
  }
  if (nc == 0 || nc % 2 != 0) {
    // Nc*4 bytes must be 8-byte aligned for MRAM DMA (§3.1: Nc = 2k).
    return Status::InvalidArgument("nc must be a positive even number");
  }
  if (table.cols % nc != 0) {
    return Status::InvalidArgument("nc must divide the embedding dim");
  }
  GroupGeometry g;
  g.table = table;
  g.dpus_per_table = dpus_per_table;
  g.nc = nc;
  g.col_shards = table.cols / nc;
  if (dpus_per_table % g.col_shards != 0) {
    return Status::InvalidArgument(
        "column shards (" + std::to_string(g.col_shards) +
        ") must divide dpus_per_table (" + std::to_string(dpus_per_table) +
        ")");
  }
  g.row_shards = dpus_per_table / g.col_shards;
  if (g.table.rows < g.row_shards) {
    return Status::InvalidArgument("fewer rows than row shards");
  }
  return g;
}

std::string_view MethodName(Method m) {
  switch (m) {
    case Method::kUniform:
      return "uniform";
    case Method::kNonUniform:
      return "non-uniform";
    case Method::kCacheAware:
      return "cache-aware";
  }
  return "unknown";
}

std::string_view MethodShortName(Method m) {
  switch (m) {
    case Method::kUniform:
      return "U";
    case Method::kNonUniform:
      return "NU";
    case Method::kCacheAware:
      return "CA";
  }
  return "?";
}

BinCapacity BinCapacity::FromMram(std::uint64_t mram_bytes,
                                  std::uint64_t reserved_io_bytes,
                                  std::uint64_t cache_bytes) {
  UPDLRM_CHECK_MSG(reserved_io_bytes + cache_bytes <= mram_bytes,
                   "reserved + cache regions exceed MRAM");
  return BinCapacity{mram_bytes - reserved_io_bytes - cache_bytes,
                     cache_bytes};
}

std::vector<std::uint64_t> PartitionPlan::EmtRowsPerBin() const {
  std::vector<std::uint64_t> rows(geom.row_shards, 0);
  for (std::uint64_t r = 0; r < row_bin.size(); ++r) {
    const bool cached =
        !item_list.empty() && item_list[r] >= 0;
    if (!cached) ++rows[row_bin[r]];
  }
  return rows;
}

std::vector<std::uint64_t> PartitionPlan::CacheBytesPerBin() const {
  std::vector<std::uint64_t> bytes(geom.row_shards, 0);
  for (std::size_t l = 0; l < cache.lists.size(); ++l) {
    UPDLRM_CHECK(l < list_bin.size() && list_bin[l] >= 0);
    bytes[list_bin[l]] += cache.lists[l].StorageBytes(geom.row_bytes());
  }
  return bytes;
}

Status PartitionPlan::Validate(const BinCapacity& capacity) const {
  if (row_bin.size() != geom.table.rows) {
    return Status::InvalidArgument("row_bin must cover every row");
  }
  for (std::uint32_t bin : row_bin) {
    if (bin >= geom.row_shards) {
      return Status::OutOfRange("row assigned to nonexistent bin");
    }
  }
  if (has_cache()) {
    UPDLRM_RETURN_IF_ERROR(cache.Validate(geom.table.rows));
    if (list_bin.size() != cache.lists.size()) {
      return Status::InvalidArgument("every cache list needs a bin");
    }
    for (std::int32_t bin : list_bin) {
      if (bin < 0 || static_cast<std::uint32_t>(bin) >= geom.row_shards) {
        return Status::OutOfRange("cache list assigned to nonexistent bin");
      }
    }
    if (item_list.size() != geom.table.rows) {
      return Status::InvalidArgument(
          "item_list must cover every row when caching");
    }
  } else if (!list_bin.empty() || !cache.lists.empty()) {
    return Status::InvalidArgument("cache metadata without cache lists");
  }

  const std::vector<std::uint64_t> emt_rows = EmtRowsPerBin();
  for (std::uint32_t b = 0; b < geom.row_shards; ++b) {
    const std::uint64_t emt_bytes = emt_rows[b] * geom.row_bytes();
    if (emt_bytes > capacity.emt_bytes) {
      return Status::CapacityExceeded(
          "bin " + std::to_string(b) + " EMT region needs " +
          std::to_string(emt_bytes) + " bytes, capacity " +
          std::to_string(capacity.emt_bytes));
    }
  }
  if (has_cache()) {
    const std::vector<std::uint64_t> cache_bytes = CacheBytesPerBin();
    for (std::uint32_t b = 0; b < geom.row_shards; ++b) {
      if (cache_bytes[b] > capacity.cache_bytes) {
        return Status::CapacityExceeded(
            "bin " + std::to_string(b) + " cache region needs " +
            std::to_string(cache_bytes[b]) + " bytes, capacity " +
            std::to_string(capacity.cache_bytes));
      }
    }
  }
  return Status::Ok();
}

}  // namespace updlrm::partition
