/// Known-answer tests for the shared CRC-32 (common/crc32.h) — the
/// integrity primitive under both the vital-statistics records and the
/// wire-protocol frame check. The vectors are the standard IEEE 802.3 /
/// zlib check values, so a table-generation slip cannot hide behind a
/// self-consistent round trip.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"

namespace icollect {
namespace {

std::uint32_t crc_of(std::string_view text) {
  return common::crc32(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

TEST(Crc32, StandardCheckValue) {
  // The canonical CRC-32 check: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc_of("123456789"), 0xCBF43926U);
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc_of(""), 0x00000000U);
  EXPECT_EQ(crc_of("a"), 0xE8B7BE43U);
  EXPECT_EQ(crc_of("abc"), 0x352441C2U);
  EXPECT_EQ(crc_of("The quick brown fox jumps over the lazy dog"),
            0x414FA339U);
}

TEST(Crc32, AllZeroAndAllOneBytes) {
  const std::vector<std::uint8_t> zeros(32, 0x00);
  const std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(common::crc32(zeros), 0x190A55ADU);
  EXPECT_EQ(common::crc32(ones), 0xFF6CAB0BU);
}

TEST(Crc32, TableSpotChecks) {
  // First/last table entries of the reflected 0xEDB88320 polynomial.
  EXPECT_EQ(common::detail::kCrcTable[0], 0x00000000U);
  EXPECT_EQ(common::detail::kCrcTable[1], 0x77073096U);
  EXPECT_EQ(common::detail::kCrcTable[255], 0x2D02EF8DU);
}

TEST(Crc32, SingleBitChangesCrc) {
  std::vector<std::uint8_t> data(64, 0xA5);
  const std::uint32_t base = common::crc32(data);
  data[17] ^= 0x01U;
  EXPECT_NE(common::crc32(data), base);
}

/// Table-free reference: one byte at a time, one bit at a time.
std::uint32_t bitwise_crc(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
  }
  return c ^ 0xFFFFFFFFU;
}

TEST(Crc32, SliceBy8MatchesBytewiseAtEveryLengthAndOffset) {
  // Every split of a length into 8-byte slices plus a tail, at every
  // alignment of the start pointer.
  common::Rng rng{0xC4C};
  std::vector<std::uint8_t> buf(64 + 8);
  rng.fill_gf(buf);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::uint8_t> bytes{buf.data() + off, len};
      ASSERT_EQ(common::crc32(bytes), bitwise_crc(bytes))
          << "len " << len << " off " << off;
    }
  }
}

TEST(Crc32, SliceBy8MatchesBytewiseOnLargeBuffers) {
  common::Rng rng{0xC4D};
  for (const std::size_t len : {std::size_t{1024}, std::size_t{16384}}) {
    std::vector<std::uint8_t> buf(len);
    rng.fill_gf(buf);
    EXPECT_EQ(common::crc32(buf), bitwise_crc(buf)) << "len " << len;
  }
}

}  // namespace
}  // namespace icollect
