#pragma once

/// \file crc32.h
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) with
/// compile-time tables. Two subsystems depend on it: vital-statistics
/// records carry a CRC so that end-to-end tests can prove byte-exact
/// recovery through encode → gossip → recode → server decode, and the
/// wire protocol (src/wire/) stamps every frame body so transports can
/// reject corruption before a single message byte is interpreted.
///
/// The bulk runs slice-by-8: table k maps a byte to the CRC of that
/// byte followed by k zero bytes, so eight table lookups advance the
/// CRC by eight input bytes at once. The tail runs byte at a time on
/// table 0, the classic table. Both give the same value for any input.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace icollect::common {

namespace detail {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables build_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8U) ^ tables[0][prev & 0xFFU];
    }
  }
  return tables;
}

inline constexpr CrcTables kCrcTables = build_crc_tables();

/// The classic byte-at-a-time table.
inline constexpr const std::array<std::uint32_t, 256>& kCrcTable =
    kCrcTables[0];

/// Little-endian 32-bit load, independent of host byte order.
[[nodiscard]] inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8U) |
         (static_cast<std::uint32_t>(p[2]) << 16U) |
         (static_cast<std::uint32_t>(p[3]) << 24U);
}

}  // namespace detail

/// CRC-32 of a byte range.
[[nodiscard]] inline std::uint32_t crc32(
    std::span<const std::uint8_t> bytes) noexcept {
  const auto& t = detail::kCrcTables;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t c = 0xFFFFFFFFU;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8U) & 0xFFU] ^
        t[5][(lo >> 16U) & 0xFFU] ^ t[4][lo >> 24U] ^ t[3][hi & 0xFFU] ^
        t[2][(hi >> 8U) & 0xFFU] ^ t[1][(hi >> 16U) & 0xFFU] ^
        t[0][hi >> 24U];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8U);
  return c ^ 0xFFFFFFFFU;
}

}  // namespace icollect::common
