/// \file kernels_ssse3.cpp
/// SSSE3 GF(2^8) kernels: 16 bytes per step via PSHUFB nibble-split
/// half-table lookups, and a bit-sliced dot. Compiled with -mssse3 (this
/// TU only); selected at runtime only when CPUID reports SSSE3, so the
/// rest of the binary carries no ISA requirement.

#include "gf/kernels.h"

#if defined(__SSSE3__)

#include <tmmintrin.h>

namespace icollect::gf {
namespace {

void ssse3_add_assign(Element* dst, const Element* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, s));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

/// Multiply 16 source bytes by c: lo[s & 0xF] ^ hi[s >> 4].
inline __m128i mul16(__m128i s, __m128i lo, __m128i hi, __m128i mask) {
  const __m128i lo_idx = _mm_and_si128(s, mask);
  const __m128i hi_idx = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
  return _mm_xor_si128(_mm_shuffle_epi8(lo, lo_idx),
                       _mm_shuffle_epi8(hi, hi_idx));
}

void ssse3_scale_assign(Element* dst, Element c, std::size_t n) {
  if (c == 1) return;
  if (c == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return;
  }
  const auto& t = detail::nibble_tables();
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c]));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c]));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     mul16(s, lo, hi, mask));
  }
  const Element* row = GF256::mul_row(c);
  for (; i < n; ++i) dst[i] = row[dst[i]];
}

void ssse3_add_scaled(Element* dst, const Element* src, Element c,
                      std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    ssse3_add_assign(dst, src, n);
    return;
  }
  const auto& t = detail::nibble_tables();
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c]));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c]));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, mul16(s, lo, hi, mask)));
  }
  const Element* row = GF256::mul_row(c);
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

/// Bit-sliced dot (see kernels.h): plane k collects the a bytes whose b
/// partner has bit k set. Bit k of every b byte is its sign bit after
/// 7 - k byte-wise doublings, and a signed compare against zero widens
/// it into a whole-byte mask.
Element ssse3_dot(const Element* a, const Element* b, std::size_t n) {
  if (n < 16) return detail::kScalarKernels.dot(a, b, n);
  const __m128i zero = _mm_setzero_si128();
  __m128i planes[8];
  for (auto& p : planes) p = zero;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
#pragma GCC unroll 8
    for (int k = 7; k >= 0; --k) {
      planes[k] = _mm_xor_si128(
          planes[k], _mm_and_si128(va, _mm_cmpgt_epi8(zero, vb)));
      vb = _mm_add_epi8(vb, vb);
    }
  }
  // sum_k x^k * P_k by Horner's rule in x, one byte lane at a time:
  // x * v is v doubled, XOR the field polynomial's low byte (0x1D)
  // where v's top bit was set. The lanes then XOR into one byte.
  const __m128i poly = _mm_set1_epi8(0x1D);
  __m128i acc = planes[7];
  for (int k = 6; k >= 0; --k) {
    const __m128i carry = _mm_and_si128(_mm_cmpgt_epi8(zero, acc), poly);
    acc = _mm_xor_si128(_mm_xor_si128(_mm_add_epi8(acc, acc), carry),
                        planes[k]);
  }
  acc = _mm_xor_si128(acc, _mm_srli_si128(acc, 8));
  acc = _mm_xor_si128(acc, _mm_srli_si128(acc, 4));
  acc = _mm_xor_si128(acc, _mm_srli_si128(acc, 2));
  acc = _mm_xor_si128(acc, _mm_srli_si128(acc, 1));
  return static_cast<Element>(_mm_cvtsi128_si32(acc)) ^
         detail::kScalarKernels.dot(a + i, b + i, n - i);
}

// The byte-stream entries are the scalar ones.
const KernelTable kSsse3Kernels{ssse3_add_assign,
                                ssse3_scale_assign,
                                ssse3_add_scaled,
                                ssse3_dot,
                                detail::scalar_mt64_twist,
                                detail::scalar_mt64_low_bytes,
                                detail::scalar_splitmix_expand,
                                detail::scalar_crc32_update,
                                "ssse3"};

}  // namespace

namespace detail {
const KernelTable* ssse3_kernels() noexcept { return &kSsse3Kernels; }
}  // namespace detail

}  // namespace icollect::gf

#else  // !__SSSE3__

namespace icollect::gf::detail {
const KernelTable* ssse3_kernels() noexcept { return nullptr; }
}  // namespace icollect::gf::detail

#endif
