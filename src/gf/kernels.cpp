#include "gf/kernels.h"

#include <cstdlib>
#include <cstring>

#include "common/crc32.h"
#include "common/rng.h"

namespace icollect::gf {

namespace {

// ---- scalar kernels -------------------------------------------------------
// These are the reference implementations every SIMD kernel is tested
// against, and the only path on non-x86 targets. They also handle the
// sub-vector tails of the SIMD kernels (via the same table walks).

void scalar_add_assign(Element* dst, const Element* src, std::size_t n) {
  // Word-at-a-time XOR on the bulk (memcpy keeps it strict-aliasing
  // clean and compiles to plain 64-bit loads/xors), byte tail at the end.
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, dst + i, sizeof(a));
    std::memcpy(&b, src + i, sizeof(b));
    a ^= b;
    std::memcpy(dst + i, &a, sizeof(a));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void scalar_scale_assign(Element* dst, Element c, std::size_t n) {
  if (c == 1) return;
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  const Element* row = GF256::mul_row(c);
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[dst[i]];
}

void scalar_add_scaled(Element* dst, const Element* src, Element c,
                       std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    scalar_add_assign(dst, src, n);
    return;
  }
  const Element* row = GF256::mul_row(c);
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

Element scalar_dot(const Element* a, const Element* b, std::size_t n) {
  // Branch-free: one full-table row lookup per byte. a[i] selects the
  // row, b[i] the column; row 0 is all zeros, so no zero tests needed.
  const auto& table = GF256::mul_table();
  Element acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc ^= table[a[i]][b[i]];
  return acc;
}

}  // namespace

namespace detail {

// ---- scalar byte-stream kernels -------------------------------------------

void scalar_mt64_twist(std::uint64_t* state) {
  // The standard recurrence, split where the k + m index wraps, so the
  // three loops are branch-free.
  using Mt = common::Mt19937_64;
  constexpr std::size_t kN = Mt::kN;
  constexpr std::size_t kM = Mt::kM;
  std::size_t k = 0;
  for (; k < kN - kM; ++k) {
    state[k] = Mt::mix(state[k], state[k + 1], state[k + kM]);
  }
  for (; k < kN - 1; ++k) {
    state[k] = Mt::mix(state[k], state[k + 1], state[k + kM - kN]);
  }
  state[kN - 1] = Mt::mix(state[kN - 1], state[0], state[kM - 1]);
}

void scalar_mt64_low_bytes(std::uint8_t* out, const std::uint64_t* words,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(common::Mt19937_64::temper(words[i]));
  }
}

void scalar_splitmix_expand(std::uint64_t* words, std::uint64_t counter,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    words[i] = common::splitmix64(counter + i);
  }
}

std::uint32_t scalar_crc32_update(std::uint32_t state,
                                  const std::uint8_t* bytes, std::size_t n) {
  // Slice-by-8 on the bulk, the classic byte-at-a-time table on the
  // tail (see common/crc32.h).
  const auto& t = common::detail::kCrcTables;
  const std::uint8_t* p = bytes;
  std::uint32_t c = state;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ common::detail::load_le32(p);
    const std::uint32_t hi = common::detail::load_le32(p + 4);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8U) & 0xFFU] ^
        t[5][(lo >> 16U) & 0xFFU] ^ t[4][lo >> 24U] ^ t[3][hi & 0xFFU] ^
        t[2][(hi >> 8U) & 0xFFU] ^ t[1][(hi >> 16U) & 0xFFU] ^
        t[0][hi >> 24U];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8U);
  return c;
}

const KernelTable kScalarKernels{scalar_add_assign,
                                 scalar_scale_assign,
                                 scalar_add_scaled,
                                 scalar_dot,
                                 scalar_mt64_twist,
                                 scalar_mt64_low_bytes,
                                 scalar_splitmix_expand,
                                 scalar_crc32_update,
                                 "scalar"};

const NibbleTables& nibble_tables() noexcept {
  // Built from the constexpr exp/log-backed GF256::mul (not the
  // dynamically-initialized full table), so a first call during another
  // TU's static initialization is still well-defined.
  static const NibbleTables tables = [] {
    NibbleTables t{};
    for (unsigned c = 0; c < 256; ++c) {
      for (unsigned x = 0; x < 16; ++x) {
        t.lo[c][x] = GF256::mul(static_cast<Element>(c),
                                static_cast<Element>(x));
        t.hi[c][x] = GF256::mul(static_cast<Element>(c),
                                static_cast<Element>(x << 4U));
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace detail

namespace {

bool cpu_has(Kernels::Kind kind) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  switch (kind) {
    case Kernels::Kind::kSsse3:
      return __builtin_cpu_supports("ssse3") != 0;
    case Kernels::Kind::kAvx2:
      // The AVX2 table's CRC-32 folds with PCLMULQDQ.
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("pclmul") != 0;
    default:
      return true;
  }
#else
  return kind == Kernels::Kind::kScalar || kind == Kernels::Kind::kAuto;
#endif
}

const KernelTable* table_for(Kernels::Kind kind) noexcept {
  switch (kind) {
    case Kernels::Kind::kSsse3:
      return detail::ssse3_kernels();
    case Kernels::Kind::kAvx2:
      return detail::avx2_kernels();
    default:
      return &detail::kScalarKernels;
  }
}

/// Resolve the startup selection: ICOLLECT_GF_KERNEL wins when set to a
/// valid, supported name; otherwise CPUID picks the best kernel. Runs at
/// static initialization of this TU; everything earlier sees the scalar
/// table (correct, just slower).
[[maybe_unused]] const bool kStartupDispatch = [] {
  const char* env = std::getenv("ICOLLECT_GF_KERNEL");
  if (env != nullptr && *env != '\0' && Kernels::select_by_name(env)) {
    return true;
  }
  return Kernels::select(Kernels::Kind::kAuto);
}();

}  // namespace

bool Kernels::supported(Kind kind) noexcept {
  return cpu_has(kind) && table_for(kind) != nullptr;
}

Kernels::Kind Kernels::best() noexcept {
  if (supported(Kind::kAvx2)) return Kind::kAvx2;
  if (supported(Kind::kSsse3)) return Kind::kSsse3;
  return Kind::kScalar;
}

bool Kernels::select(Kind kind) noexcept {
  if (kind == Kind::kAuto) kind = best();
  if (!supported(kind)) return false;
  detail::g_active_kernels = table_for(kind);
  return true;
}

bool Kernels::select_by_name(std::string_view kernel_name) noexcept {
  if (kernel_name == "scalar") return select(Kind::kScalar);
  if (kernel_name == "ssse3") return select(Kind::kSsse3);
  if (kernel_name == "avx2") return select(Kind::kAvx2);
  if (kernel_name == "auto") return select(Kind::kAuto);
  return false;
}

const char* Kernels::name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar: return "scalar";
    case Kind::kSsse3: return "ssse3";
    case Kind::kAvx2: return "avx2";
    case Kind::kAuto: return "auto";
  }
  return "scalar";
}

}  // namespace icollect::gf
