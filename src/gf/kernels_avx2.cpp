/// \file kernels_avx2.cpp
/// AVX2 GF(2^8) kernels: 32 bytes per step (64 with the 2x-unrolled main
/// loop) via VPSHUFB nibble-split half-table lookups, the same scheme as
/// the SSSE3 kernels with the 16-byte half-tables broadcast to both
/// lanes; dot is bit-sliced like the SSSE3 one, 32 bytes per step.
/// Compiled with -mavx2 (this TU only); selected at runtime only when
/// CPUID reports AVX2.

#include "gf/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace icollect::gf {
namespace {

void avx2_add_assign(Element* dst, const Element* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, s));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

/// Multiply 32 source bytes by c: lo[s & 0xF] ^ hi[s >> 4] per lane.
inline __m256i mul32(__m256i s, __m256i lo, __m256i hi, __m256i mask) {
  const __m256i lo_idx = _mm256_and_si256(s, mask);
  const __m256i hi_idx = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(lo, lo_idx),
                          _mm256_shuffle_epi8(hi, hi_idx));
}

void avx2_scale_assign(Element* dst, Element c, std::size_t n) {
  if (c == 1) return;
  if (c == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return;
  }
  const auto& t = detail::nibble_tables();
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c])));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mul32(s, lo, hi, mask));
  }
  const Element* row = GF256::mul_row(c);
  for (; i < n; ++i) dst[i] = row[dst[i]];
}

void avx2_add_scaled(Element* dst, const Element* src, Element c,
                     std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    avx2_add_assign(dst, src, n);
    return;
  }
  const auto& t = detail::nibble_tables();
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c])));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  // 2x unroll: typical payloads (1 KiB) keep both pipes busy.
  for (; i + 64 <= n; i += 64) {
    const __m256i s0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i d0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d0, mul32(s0, lo, hi, mask)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_xor_si256(d1, mul32(s1, lo, hi, mask)));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, mul32(s, lo, hi, mask)));
  }
  const Element* row = GF256::mul_row(c);
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

/// Bit-sliced dot, 32 bytes per step; see ssse3_dot.
Element avx2_dot(const Element* a, const Element* b, std::size_t n) {
  if (n < 32) return detail::kScalarKernels.dot(a, b, n);
  const __m256i zero = _mm256_setzero_si256();
  __m256i planes[8];
  for (auto& p : planes) p = zero;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
#pragma GCC unroll 8
    for (int k = 7; k >= 0; --k) {
      planes[k] = _mm256_xor_si256(
          planes[k], _mm256_and_si256(va, _mm256_cmpgt_epi8(zero, vb)));
      vb = _mm256_add_epi8(vb, vb);
    }
  }
  // Horner's rule in x over the planes, bytewise (see ssse3_dot), then
  // XOR all 32 bytes together.
  const __m256i poly = _mm256_set1_epi8(0x1D);
  __m256i acc = planes[7];
  for (int k = 6; k >= 0; --k) {
    const __m256i carry = _mm256_and_si256(_mm256_cmpgt_epi8(zero, acc), poly);
    acc = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_add_epi8(acc, acc), carry), planes[k]);
  }
  __m128i x = _mm_xor_si128(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  x = _mm_xor_si128(x, _mm_srli_si128(x, 8));
  x = _mm_xor_si128(x, _mm_srli_si128(x, 4));
  x = _mm_xor_si128(x, _mm_srli_si128(x, 2));
  x = _mm_xor_si128(x, _mm_srli_si128(x, 1));
  return static_cast<Element>(_mm_cvtsi128_si32(x)) ^
         detail::kScalarKernels.dot(a + i, b + i, n - i);
}

const KernelTable kAvx2Kernels{avx2_add_assign, avx2_scale_assign,
                               avx2_add_scaled, avx2_dot, "avx2"};

}  // namespace

namespace detail {
const KernelTable* avx2_kernels() noexcept { return &kAvx2Kernels; }
}  // namespace detail

}  // namespace icollect::gf

#else  // !__AVX2__

namespace icollect::gf::detail {
const KernelTable* avx2_kernels() noexcept { return nullptr; }
}  // namespace icollect::gf::detail

#endif
