// Partition plans: how one embedding table maps onto its DPU group.
//
// A table of R rows x C columns served by `dpus_per_table` DPUs is tiled
// two ways at once (§3.1):
//   * columns are split into C / Nc *column shards* (every row slice of
//     one shard lives on DPUs of that shard);
//   * rows are split into `row_shards` *bins*; which rows land in which
//     bin is what the three partitioning methods differ on.
// DPU (bin b, shard c) holds the Nc-wide slices of bin b's rows. The
// same row->bin assignment applies to every column shard, so a plan is
// fully described by GroupGeometry + row_bin[] (+ cache placement for
// the cache-aware method).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cache/cache_list.h"
#include "common/status.h"
#include "common/units.h"
#include "dlrm/embedding.h"

namespace updlrm::partition {

struct GroupGeometry {
  dlrm::TableShape table;
  std::uint32_t dpus_per_table = 0;
  std::uint32_t nc = 0;          // columns per tile (paper's N_c)
  std::uint32_t col_shards = 0;  // C / Nc
  std::uint32_t row_shards = 0;  // dpus_per_table / col_shards (bins)

  /// Validates divisibility (C % Nc == 0, dpus % col_shards == 0) and
  /// computes the derived shard counts.
  static Result<GroupGeometry> Make(dlrm::TableShape table,
                                    std::uint32_t dpus_per_table,
                                    std::uint32_t nc);

  std::uint32_t row_bytes() const { return nc * 4; }

  /// DPU index within the group for (bin, column shard).
  std::uint32_t DpuLocal(std::uint32_t bin, std::uint32_t col_shard) const {
    UPDLRM_CHECK(bin < row_shards && col_shard < col_shards);
    return bin * col_shards + col_shard;
  }

  /// Rows per bin under uniform tiling (paper's N_r; last bin short).
  std::uint64_t UniformRowsPerBin() const {
    return CeilDiv(table.rows, row_shards);
  }
};

enum class Method { kUniform, kNonUniform, kCacheAware };

std::string_view MethodName(Method m);
std::string_view MethodShortName(Method m);  // "U" / "NU" / "CA"

/// Per-bin byte capacities available for table data inside one MRAM
/// bank. The engine reserves space for the stage-1 index buffers and
/// stage-3 output buffers; the cache-aware method additionally carves a
/// cache region out of the EMT share.
struct BinCapacity {
  std::uint64_t emt_bytes = 0;
  std::uint64_t cache_bytes = 0;

  static BinCapacity FromMram(std::uint64_t mram_bytes,
                              std::uint64_t reserved_io_bytes,
                              std::uint64_t cache_bytes);
};

struct PartitionPlan {
  GroupGeometry geom;
  Method method = Method::kUniform;

  /// row id -> bin (size == table.rows, values < row_shards).
  std::vector<std::uint32_t> row_bin;

  /// Cache placement; empty lists when the method does not cache.
  cache::CacheRes cache;
  /// list index -> bin.
  std::vector<std::int32_t> list_bin;
  /// item id -> list index or -1 (derived from `cache`, kept for O(1)
  /// routing).
  std::vector<std::int32_t> item_list;

  bool has_cache() const { return !cache.lists.empty(); }

  /// Rows stored in the EMT region of each bin (cached items excluded —
  /// they live in the cache region).
  std::vector<std::uint64_t> EmtRowsPerBin() const;

  /// Cache-region bytes needed in each bin.
  std::vector<std::uint64_t> CacheBytesPerBin() const;

  /// Structural invariants: every row in exactly one bin, cache lists
  /// disjoint & placed, and both regions within `capacity`.
  Status Validate(const BinCapacity& capacity) const;
};

}  // namespace updlrm::partition
