#pragma once

/// \file crc32.h
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) with
/// compile-time tables. Two subsystems depend on it: vital-statistics
/// records carry a CRC so that end-to-end tests can prove byte-exact
/// recovery through encode → gossip → recode → server decode, and the
/// wire protocol (src/wire/) stamps every frame body so transports can
/// reject corruption before a single message byte is interpreted.
///
/// The range runs on the active kernel table's `crc32_update`
/// (gf/kernels.h). Its scalar entry is slice-by-8: table k maps a byte
/// to the CRC of that byte followed by k zero bytes, so eight table
/// lookups advance the CRC by eight input bytes at once, and the tail
/// runs byte at a time on table 0, the classic table. The AVX2 entry
/// folds ranges of 64 bytes or more four 128-bit lanes at a time with
/// carry-less multiplies (PCLMULQDQ) and Barrett-reduces the result to
/// 32 bits; its fold constants are computed below, next to the tables.
/// Every kernel gives the same value for any input.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "gf/kernels.h"

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

// ---- carry-less constants for the PCLMULQDQ fold --------------------------
// The polynomial P(x) in normal bit order, x^32 term included. The fold
// works in the reflected domain of the tables above, where bit 0 holds
// the highest power of x.

inline constexpr std::uint64_t kCrcPoly = 0x104C11DB7ULL;

/// Bit-reverse the low `bits` bits of v.
[[nodiscard]] constexpr std::uint64_t reflect_bits(std::uint64_t v,
                                                   int bits) noexcept {
  std::uint64_t r = 0;
  for (int i = 0; i < bits; ++i) r |= ((v >> i) & 1U) << (bits - 1 - i);
  return r;
}

/// x^n mod P(x), normal bit order.
[[nodiscard]] constexpr std::uint64_t xpow_mod_crc_poly(int n) noexcept {
  std::uint64_t r = 1;
  for (int i = 0; i < n; ++i) {
    r <<= 1U;
    if ((r >> 32U) != 0) r ^= kCrcPoly;
  }
  return r;
}

/// The fold multiplier for a distance of n bits: x^n mod P(x), reflected
/// and shifted left by one so a 64x64 carry-less product lines up with
/// the reflected data (Gopal et al., Intel 2009).
[[nodiscard]] constexpr std::uint64_t crc_fold_constant(int n) noexcept {
  return reflect_bits(xpow_mod_crc_poly(n), 32) << 1U;
}

/// Barrett's mu: floor(x^64 / P(x)), reflected over its 33 bits. Long
/// division one dividend bit at a time, high to low: quotient bit i is
/// set when the partial remainder reaches degree 32.
[[nodiscard]] constexpr std::uint64_t crc_barrett_mu() noexcept {
  std::uint64_t r = 0;
  std::uint64_t q = 0;
  for (int i = 64; i >= 0; --i) {
    r = (r << 1U) | (i == 64 ? 1U : 0U);
    if ((r >> 32U) != 0) {
      r ^= kCrcPoly;
      q |= std::uint64_t{1} << i;
    }
  }
  return reflect_bits(q, 33);
}

}  // namespace detail

/// CRC-32 of a byte range.
[[nodiscard]] inline std::uint32_t crc32(
    std::span<const std::uint8_t> bytes) noexcept {
  return gf::Kernels::active().crc32_update(0xFFFFFFFFU, bytes.data(),
                                            bytes.size()) ^
         0xFFFFFFFFU;
}

}  // namespace icollect::common
