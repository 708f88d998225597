/// \file kernels_avx2.cpp
/// AVX2 GF(2^8) kernels: 32 bytes per step (64 with the 2x-unrolled main
/// loop) via VPSHUFB nibble-split half-table lookups, the same scheme as
/// the SSSE3 kernels with the 16-byte half-tables broadcast to both
/// lanes; dot is bit-sliced like the SSSE3 one, 32 bytes per step.
/// Coefficient rows are s bytes (4 to 24 in every golden and workload),
/// so add_assign, scale_assign and add_scaled finish with one 16-byte
/// xmm step and one 8-byte movq step before their byte-at-a-time
/// remainder (under 8 bytes).
///
/// The byte-stream kernels: the MT19937-64 twist and temper four state
/// words per instruction, splitmix64 four lanes wide (the 64-bit
/// multiplies built from 32x32 VPMULUDQ products), and a PCLMULQDQ
/// CRC-32 fold. Their sub-vector tails run the scalar entries.
///
/// Compiled with -mavx2 -mpclmul (this TU only); selected at runtime
/// only when CPUID reports both. The byte-stream kernels read constants
/// from common/ but call none of its inline functions, so no
/// AVX2-compiled copy of one can stand in for the baseline copy at link
/// time; their scalar steps call the scalar entries or a lane of the
/// vector code instead.

#include "gf/kernels.h"

#if defined(__AVX2__) && defined(__PCLMUL__)

#include <immintrin.h>

#include "common/crc32.h"
#include "common/rng.h"

namespace icollect::gf {
namespace {

inline __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void store16(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
/// 8 bytes into the low half of an xmm register (movq); the high half
/// is zero.
inline __m128i load8(const std::uint8_t* p) {
  return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
}
inline void store8(std::uint8_t* p, __m128i v) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), v);
}

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
  if (i + 16 <= n) {
    store16(dst + i, _mm_xor_si128(load16(dst + i), load16(src + i)));
    i += 16;
  }
  if (i + 8 <= n) {
    store8(dst + i, _mm_xor_si128(load8(dst + i), load8(src + i)));
    i += 8;
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

/// mul32 on the low 16 bytes (the low lane of each table).
inline __m128i mul16(__m128i s, __m256i lo, __m256i hi, __m256i mask) {
  const __m128i m = _mm256_castsi256_si128(mask);
  const __m128i lo_idx = _mm_and_si128(s, m);
  const __m128i hi_idx = _mm_and_si128(_mm_srli_epi64(s, 4), m);
  return _mm_xor_si128(
      _mm_shuffle_epi8(_mm256_castsi256_si128(lo), lo_idx),
      _mm_shuffle_epi8(_mm256_castsi256_si128(hi), hi_idx));
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
  if (i + 16 <= n) {
    store16(dst + i, mul16(load16(dst + i), lo, hi, mask));
    i += 16;
  }
  if (i + 8 <= n) {
    store8(dst + i, mul16(load8(dst + i), lo, hi, mask));
    i += 8;
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
  if (i + 16 <= n) {
    store16(dst + i, _mm_xor_si128(load16(dst + i),
                                   mul16(load16(src + i), lo, hi, mask)));
    i += 16;
  }
  if (i + 8 <= n) {
    store8(dst + i, _mm_xor_si128(load8(dst + i),
                                  mul16(load8(src + i), lo, hi, mask)));
    i += 8;
  }
  const Element* row = GF256::mul_row(c);
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

/// Bit-sliced dot, 32 bytes per step; see ssse3_dot. Below 32 bytes
/// the scalar table walk is faster: the Horner fold alone costs more
/// than a 31-byte row of lookups (docs/PERFORMANCE.md).
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

// ---- MT19937-64 -------------------------------------------------------------

using Mt = common::Mt19937_64;

/// w in all four 64-bit lanes.
inline __m256i splat64(std::uint64_t w) {
  return _mm256_set1_epi64x(static_cast<long long>(w));
}

/// Mt::mix on four lanes.
inline __m256i mt_mix4(__m256i hi_word, __m256i lo_word, __m256i far) {
  const __m256i upper = splat64(Mt::kUpperMask);
  const __m256i matrix = splat64(Mt::kMatrixA);
  const __m256i one = splat64(1);
  const __m256i y = _mm256_or_si256(_mm256_and_si256(hi_word, upper),
                                    _mm256_andnot_si256(upper, lo_word));
  const __m256i odd = _mm256_sub_epi64(_mm256_setzero_si256(),
                                       _mm256_and_si256(y, one));
  return _mm256_xor_si256(
      _mm256_xor_si256(far, _mm256_srli_epi64(y, 1)),
      _mm256_and_si256(odd, matrix));
}

/// Mt::mix on one word, for the last words of a twist (lane 0 of
/// mt_mix4; see the file comment for why not Mt::mix itself).
inline std::uint64_t mt_mix1(std::uint64_t hi_word, std::uint64_t lo_word,
                             std::uint64_t far) {
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm256_castsi256_si128(
      mt_mix4(splat64(hi_word), splat64(lo_word), splat64(far)))));
}

inline __m256i load4(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// The scalar recurrence's three loops, four words per step. The first
/// kN - kM words read only old words; the rest read words kN - kM
/// behind, which the first loop already wrote, so no lane ever reads a
/// word another lane of its own step writes.
void avx2_mt64_twist(std::uint64_t* state) {
  constexpr std::size_t kN = Mt::kN;
  constexpr std::size_t kM = Mt::kM;
  static_assert((kN - kM) % 4 == 0);
  std::size_t k = 0;
  for (; k < kN - kM; k += 4) {
    const __m256i next = mt_mix4(load4(state + k), load4(state + k + 1),
                                 load4(state + k + kM));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + k), next);
  }
  for (; k + 4 < kN; k += 4) {
    const __m256i next = mt_mix4(load4(state + k), load4(state + k + 1),
                                 load4(state + k + kM - kN));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + k), next);
  }
  for (; k < kN - 1; ++k) {
    state[k] = mt_mix1(state[k], state[k + 1], state[k + kM - kN]);
  }
  state[kN - 1] = mt_mix1(state[kN - 1], state[0], state[kM - 1]);
}

/// Mt::temper on four lanes.
inline __m256i mt_temper4(__m256i y) {
  y = _mm256_xor_si256(
      y, _mm256_and_si256(_mm256_srli_epi64(y, 29), splat64(Mt::kTemperD)));
  y = _mm256_xor_si256(
      y, _mm256_and_si256(_mm256_slli_epi64(y, 17), splat64(Mt::kTemperB)));
  y = _mm256_xor_si256(
      y, _mm256_and_si256(_mm256_slli_epi64(y, 37), splat64(Mt::kTemperC)));
  return _mm256_xor_si256(y, _mm256_srli_epi64(y, 43));
}

/// VPSHUFB masks that gather the low bytes of four tempered vectors
/// t_0..t_3 (16 words) into 16 output bytes: vector t_j sends word 0
/// and 1 (lane 0) to bytes 4j and 4j+1 of lane 0, word 2 and 3 (lane 1)
/// to bytes 4j+2 and 4j+3 of lane 1, and zeroes the rest; OR-ing the
/// four results and then the two lanes leaves the words in order.
struct LowBytePack {
  std::uint8_t mask[4][32];
};
constexpr LowBytePack kLowBytePack = [] {
  LowBytePack p{};
  for (std::size_t j = 0; j < 4; ++j) {
    for (auto& b : p.mask[j]) b = 0x80;
    p.mask[j][4 * j] = 0;
    p.mask[j][4 * j + 1] = 8;
    p.mask[j][16 + 4 * j + 2] = 0;
    p.mask[j][16 + 4 * j + 3] = 8;
  }
  return p;
}();

void avx2_mt64_low_bytes(std::uint8_t* out, const std::uint64_t* words,
                         std::size_t n) {
  __m256i pack[4];
  for (std::size_t j = 0; j < 4; ++j) {
    pack[j] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kLowBytePack.mask[j]));
  }
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i v = _mm256_setzero_si256();
    for (std::size_t j = 0; j < 4; ++j) {
      v = _mm256_or_si256(
          v, _mm256_shuffle_epi8(mt_temper4(load4(words + i + 4 * j)),
                                 pack[j]));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_or_si128(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1)));
  }
  detail::scalar_mt64_low_bytes(out + i, words + i, n - i);
}

// ---- splitmix64 -------------------------------------------------------------

/// Low 64 bits of x * c per lane, c given as its low and high 32-bit
/// halves (each in the low half of every lane): x_lo*c_lo plus the two
/// cross products shifted up; x_hi*c_hi only reaches bit 64 and above.
inline __m256i mul64(__m256i x, __m256i c_lo, __m256i c_hi) {
  const __m256i lo = _mm256_mul_epu32(x, c_lo);
  const __m256i cross = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(x, 32), c_lo),
      _mm256_mul_epu32(x, c_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

void avx2_splitmix_expand(std::uint64_t* words, std::uint64_t counter,
                          std::size_t n) {
  const __m256i m1_lo = splat64(common::kSplitmixMul1 & 0xFFFFFFFFU);
  const __m256i m1_hi = splat64(common::kSplitmixMul1 >> 32U);
  const __m256i m2_lo = splat64(common::kSplitmixMul2 & 0xFFFFFFFFU);
  const __m256i m2_hi = splat64(common::kSplitmixMul2 >> 32U);
  __m256i x = _mm256_add_epi64(splat64(counter + common::kSplitmixGamma),
                               _mm256_setr_epi64x(0, 1, 2, 3));
  const __m256i step = splat64(4);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i z = x;
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), m1_lo, m1_hi);
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), m2_lo, m2_hi);
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(words + i), z);
    x = _mm256_add_epi64(x, step);
  }
  detail::scalar_splitmix_expand(words + i, counter + i, n - i);
}

// ---- CRC-32 -----------------------------------------------------------------

/// Fold and reduction constants (common/crc32.h): folding 512, 128 and
/// 64 bits ahead, and the Barrett pair (P', mu).
alignas(16) constexpr std::uint64_t kFold512[2] = {
    common::detail::crc_fold_constant(4 * 128 + 32),
    common::detail::crc_fold_constant(4 * 128 - 32)};
alignas(16) constexpr std::uint64_t kFold128[2] = {
    common::detail::crc_fold_constant(128 + 32),
    common::detail::crc_fold_constant(128 - 32)};
alignas(16) constexpr std::uint64_t kFold64[2] = {
    common::detail::crc_fold_constant(64), 0};
alignas(16) constexpr std::uint64_t kBarrett[2] = {
    common::detail::reflect_bits(common::detail::kCrcPoly, 33),
    common::detail::crc_barrett_mu()};

/// acc * x^distance folded onto the next 128 data bits: the low and
/// high halves multiply by the two halves of `k`.
inline __m128i fold16(__m128i acc, __m128i k, __m128i data) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                    _mm_clmulepi64_si128(acc, k, 0x11)),
      data);
}

/// The fold of Gopal et al. over a whole number of 16-byte blocks, at
/// least four: four lanes 64 bytes apart, folded into one, then one
/// block at a time, then 128 -> 64 bits and a Barrett reduction to the
/// 32-bit state.
std::uint32_t clmul_crc(std::uint32_t state, const std::uint8_t* p,
                        std::size_t n) {
  __m128i x1 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold512));
  for (; n >= 64; n -= 64, p += 64) {
    x1 = fold16(x1, k, load16(p));
    x2 = fold16(x2, k, load16(p + 16));
    x3 = fold16(x3, k, load16(p + 32));
    x4 = fold16(x4, k, load16(p + 48));
  }
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold128));
  x1 = fold16(x1, k, x2);
  x1 = fold16(x1, k, x3);
  x1 = fold16(x1, k, x4);
  for (; n >= 16; n -= 16, p += 16) x1 = fold16(x1, k, load16(p));

  // 128 -> 64 bits, then 64 -> 32 bits ahead of the reduction.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k, 0x10),
                     _mm_srli_si128(x1, 8));
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kFold64));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett: t = (x mod x^32) * mu, then x ^= (t mod x^32) * P'.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kBarrett));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), k, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

std::uint32_t avx2_crc32_update(std::uint32_t state,
                                const std::uint8_t* bytes, std::size_t n) {
  std::size_t folded = 0;
  if (n >= 64) {
    folded = n & ~std::size_t{15};
    state = clmul_crc(state, bytes, folded);
  }
  return detail::scalar_crc32_update(state, bytes + folded, n - folded);
}

const KernelTable kAvx2Kernels{avx2_add_assign,
                               avx2_scale_assign,
                               avx2_add_scaled,
                               avx2_dot,
                               avx2_mt64_twist,
                               avx2_mt64_low_bytes,
                               avx2_splitmix_expand,
                               avx2_crc32_update,
                               "avx2"};

}  // namespace

namespace detail {
const KernelTable* avx2_kernels() noexcept { return &kAvx2Kernels; }
}  // namespace detail

}  // namespace icollect::gf

#else  // !(__AVX2__ && __PCLMUL__)

namespace icollect::gf::detail {
const KernelTable* avx2_kernels() noexcept { return nullptr; }
}  // namespace icollect::gf::detail

#endif
