/// Known-answer tests for the shared CRC-32 (common/crc32.h) — the
/// integrity primitive under both the vital-statistics records and the
/// wire-protocol frame check. The vectors are the standard IEEE 802.3 /
/// zlib check values, so a table-generation slip cannot hide behind a
/// self-consistent round trip. Every kernel table the CPU supports
/// (slice-by-8 scalar, PCLMULQDQ fold on AVX2) is checked against a
/// bitwise reference.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "gf/kernels.h"
#include "kernel_kinds.h"

namespace icollect {
namespace {

std::uint32_t crc_of(std::string_view text) {
  return common::crc32(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
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

TEST(Crc32, StandardCheckValue) {
  // The canonical CRC-32 check: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc_of("123456789"), 0xCBF43926U);
}


TEST(Crc32, KnownAnswers) {
  // Under every kernel. 64 bytes or more reach the PCLMUL fold: 64 zero
  // bytes (zlib's value) and a 100-byte pangram repeat cover the fold
  // plus a table tail.
  const testkit::RestoreAutoKernel restore;
  const std::vector<std::uint8_t> zeros(64, 0x00);
  std::string long_text;
  while (long_text.size() < 100) {
    long_text += "The quick brown fox jumps over the lazy dog";
  }
  long_text.resize(100);
  const std::uint32_t long_expected = bitwise_crc(
      {reinterpret_cast<const std::uint8_t*>(long_text.data()),
       long_text.size()});
  for (const auto kind : testkit::supported_kernels()) {
    ASSERT_TRUE(gf::Kernels::select(kind));
    const char* name = gf::Kernels::name(kind);
    EXPECT_EQ(crc_of(""), 0x00000000U) << name;
    EXPECT_EQ(crc_of("a"), 0xE8B7BE43U) << name;
    EXPECT_EQ(crc_of("abc"), 0x352441C2U) << name;
    EXPECT_EQ(crc_of("The quick brown fox jumps over the lazy dog"),
              0x414FA339U)
        << name;
    EXPECT_EQ(common::crc32(zeros), 0x758D6336U) << name;
    EXPECT_EQ(crc_of(long_text), long_expected) << name;
  }
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

TEST(Crc32, SliceBy8MatchesBytewiseOnLargeBuffers) {
  common::Rng rng{0xC4D};
  for (const std::size_t len : {std::size_t{1024}, std::size_t{16384}}) {
    std::vector<std::uint8_t> buf(len);
    rng.fill_gf(buf);
    EXPECT_EQ(common::crc32(buf), bitwise_crc(buf)) << "len " << len;
  }
}

TEST(Crc32, EveryKernelMatchesBitwiseAtEveryLengthAndOffset) {
  // Every length up to 300 (below, at and past the 64-byte fold
  // threshold, every 16-byte tail) and around 1 KiB, at every start
  // alignment within a 16-byte vector.
  const testkit::RestoreAutoKernel restore;
  common::Rng rng{0xC4E};
  std::vector<std::uint8_t> buf(1030 + 16);
  rng.fill_gf(buf);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 300; ++len) lengths.push_back(len);
  for (std::size_t len = 1021; len <= 1030; ++len) lengths.push_back(len);
  for (const auto kind : testkit::supported_kernels()) {
    ASSERT_TRUE(gf::Kernels::select(kind));
    for (std::size_t off = 0; off < 16; ++off) {
      for (const std::size_t len : lengths) {
        const std::span<const std::uint8_t> bytes{buf.data() + off, len};
        ASSERT_EQ(common::crc32(bytes), bitwise_crc(bytes))
            << gf::Kernels::name(kind) << " len " << len << " off " << off;
      }
    }
  }
}

TEST(Crc32, UpdateCarriesStateAcrossSplits) {
  // crc32_update takes and returns the inverted running state, so a
  // range split anywhere gives the CRC of the whole range.
  const testkit::RestoreAutoKernel restore;
  common::Rng rng{0xC4F};
  std::vector<std::uint8_t> buf(700);
  rng.fill_gf(buf);
  const std::uint32_t whole = bitwise_crc(buf);
  for (const auto kind : testkit::supported_kernels()) {
    ASSERT_TRUE(gf::Kernels::select(kind));
    const auto update = gf::Kernels::active().crc32_update;
    for (const std::size_t split : {0, 1, 63, 64, 65, 200, 636, 700}) {
      std::uint32_t state = update(0xFFFFFFFFU, buf.data(), split);
      state = update(state, buf.data() + split, buf.size() - split);
      ASSERT_EQ(state ^ 0xFFFFFFFFU, whole)
          << gf::Kernels::name(kind) << " split " << split;
    }
  }
}

TEST(Crc32, FoldConstantsMatchPublishedValues) {
  // The bit-reflected CRC-32 constants of Gopal et al. (Intel, 2009),
  // as zlib and Linux use them: fold distances 4*128+-32, 128+-32 and
  // 64 bits, the reflected polynomial P' and Barrett's mu.
  using namespace common::detail;
  EXPECT_EQ(crc_fold_constant(4 * 128 + 32), 0x154442BD4ULL);
  EXPECT_EQ(crc_fold_constant(4 * 128 - 32), 0x1C6E41596ULL);
  EXPECT_EQ(crc_fold_constant(128 + 32), 0x1751997D0ULL);
  EXPECT_EQ(crc_fold_constant(128 - 32), 0x0CCAA009EULL);
  EXPECT_EQ(crc_fold_constant(64), 0x163CD6124ULL);
  EXPECT_EQ(reflect_bits(kCrcPoly, 33), 0x1DB710641ULL);
  EXPECT_EQ(crc_barrett_mu(), 0x1F7011641ULL);
  // The reflected polynomial without its x^32 term is the table's.
  EXPECT_EQ(reflect_bits(kCrcPoly, 33) >> 1U, 0xEDB88320ULL);
}

}  // namespace
}  // namespace icollect
