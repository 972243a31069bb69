// Stage-1 wire format (pim/wire_format.h): the little-endian codec at
// the widths the format uses, the per-call offset width, and the
// per-DPU byte count every pricing site shares.
#include "pim/wire_format.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

namespace updlrm::pim {
namespace {

TEST(WireFormatTest, PackedSlotsRoundTripAtTheirBoundaries) {
  for (const std::uint32_t slot :
       {0U, 1U, (1U << 16) - 1, 1U << 16, (1U << 24) - 1}) {
    std::array<std::uint8_t, 4> bytes = {0xaa, 0xaa, 0xaa, 0xaa};
    PutLE(slot, kPackedIdBytes, bytes.data());
    EXPECT_EQ(GetLE(bytes.data(), kPackedIdBytes), slot) << slot;
    EXPECT_EQ(bytes[3], 0xaa) << "wrote past 3 bytes for " << slot;
    // Little-endian: the low byte comes first.
    EXPECT_EQ(bytes[0], slot & 0xff);
  }
}

TEST(WireFormatTest, OffsetsAndWordsRoundTrip) {
  std::array<std::uint8_t, 4> bytes{};
  for (const std::uint32_t v : {0U, 1U, 0xffffU}) {
    PutLE(v, 2, bytes.data());
    EXPECT_EQ(GetLE(bytes.data(), 2), v);
  }
  for (const std::uint32_t v : {0U, 0x10000U, 0xffffffffU}) {
    PutLE(v, 4, bytes.data());
    EXPECT_EQ(GetLE(bytes.data(), 4), v);
  }
}

TEST(WireFormatTest, OffsetWidthFollowsTheLongestList) {
  EXPECT_EQ(ChooseWire(true, 0).offset_bytes, 2u);
  EXPECT_EQ(ChooseWire(true, 65'535).offset_bytes, 2u);
  EXPECT_EQ(ChooseWire(true, 65'536).offset_bytes, 4u);
  EXPECT_EQ(ChooseWire(true, 65'536).id_bytes, 3u);
  // The paper format never narrows.
  EXPECT_EQ(ChooseWire(false, 0).id_bytes, 4u);
  EXPECT_EQ(ChooseWire(false, 0).offset_bytes, 4u);
}

TEST(WireFormatTest, PushBytesCountsReferencesAndOffsetArrays) {
  // The paper format: 4-byte ids, two 4-byte arrays of batch + 1.
  EXPECT_EQ(PushBytes(ChooseWire(false, 100), 100, 64,
                      OffsetArrays(false, /*has_cache=*/false)),
            100u * 4 + 2 * 65 * 4);
  // Packed, no cache: one 2-byte array.
  EXPECT_EQ(PushBytes(ChooseWire(true, 100), 100, 64,
                      OffsetArrays(true, /*has_cache=*/false)),
            100u * 3 + 65 * 2);
  // Packed with a cache: both arrays.
  EXPECT_EQ(OffsetArrays(true, /*has_cache=*/true), 2u);
  EXPECT_EQ(PushBytes(ChooseWire(true, 70'000), 70'000, 64, 2),
            70'000u * 3 + 2 * 65 * 4);
}

}  // namespace
}  // namespace updlrm::pim
