#pragma once

/// \file kernels.h
/// Vectorized bulk kernels with runtime dispatch: the GF(2^8) coding
/// primitives, plus the byte-stream kernels of the payload data plane.
///
/// Every coding operation in the system — encoding, recoding, and the
/// server-side Gaussian elimination — reduces to four bulk primitives
/// over contiguous byte ranges:
///
///   add_assign    dst ^= src                  (field addition)
///   scale_assign  dst  = c * dst              (scalar scaling)
///   add_scaled    dst ^= c * src              (fused multiply-accumulate)
///   dot           xor_i a[i] * b[i]           (inner product)
///
/// The scalar implementations walk the 64 KiB full multiplication table
/// one byte at a time. The SIMD implementations of the first three use
/// the classic nibble-split technique (as in Intel ISA-L / GF-Complete):
/// write the multiplier's table row as two 16-entry half-tables
///   lo[x] = c * x         for x in [0, 16)
///   hi[x] = c * (x << 4)  for x in [0, 16)
/// so that c * b == lo[b & 0xF] ^ hi[b >> 4], then evaluate 16 (SSSE3)
/// or 32 (AVX2) of those lookups per instruction with PSHUFB/VPSHUFB.
/// dot has a different multiplier per byte, so the SIMD kernels
/// bit-slice it instead: with b[i] = sum_k bit_k(b[i]) x^k,
///   xor_i a[i] * b[i] = sum_k x^k * P_k,
///   P_k = xor of the a[i] whose b[i] has bit k set,
/// which needs only AND/XOR per byte, and a Horner fold of the eight
/// P_k in x once per call.
///
/// Payload synthesis and framing add four byte-stream kernels:
///
///   mt64_twist       regenerate the 312-word MT19937-64 state block
///   mt64_low_bytes   out[i] = low byte of temper(words[i])
///   splitmix_expand  words[i] = splitmix64(counter + i)
///   crc32_update     CRC-32 state (inverted in and out) over a range
///
/// Their scalar entries are the reference loops of common/rng.h and
/// common/crc32.h. The AVX2 entries twist and temper four state words
/// per instruction, run splitmix64 four lanes wide, and fold CRC-32
/// 64 bytes per step with PCLMULQDQ (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009),
/// so the AVX2 table needs PCLMULQDQ as well. The SSSE3 table uses the
/// scalar byte-stream entries.
///
/// Dispatch model: a single function-pointer table (`KernelTable`)
/// selected once — at static initialization from CPUID (plus the
/// `ICOLLECT_GF_KERNEL` environment variable), or explicitly via
/// `Kernels::select()` / the `--gf-kernel` CLI flag. The active-table
/// pointer is constant-initialized to the scalar table, so code running
/// before the dispatcher's initializer (or on non-x86 builds) always
/// has a valid, bit-identical fallback. All kernels produce identical
/// results; selection changes speed, never output: the same payload
/// bytes, RNG stream position, CRCs and integrity tags.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "gf/gf256.h"

namespace icollect::gf {

/// Words in one MT19937-64 state block (the `mt64_twist` operand).
inline constexpr std::size_t kMt64StateWords = 312;

/// One complete set of bulk-operation implementations. All pointers are
/// always non-null; `name` is a static string ("scalar", "ssse3",
/// "avx2").
struct KernelTable {
  using AddAssignFn = void (*)(Element* dst, const Element* src,
                               std::size_t n);
  using ScaleAssignFn = void (*)(Element* dst, Element c, std::size_t n);
  using AddScaledFn = void (*)(Element* dst, const Element* src, Element c,
                               std::size_t n);
  using DotFn = Element (*)(const Element* a, const Element* b,
                            std::size_t n);
  using Mt64TwistFn = void (*)(std::uint64_t* state);
  using Mt64LowBytesFn = void (*)(std::uint8_t* out,
                                  const std::uint64_t* words, std::size_t n);
  using SplitmixExpandFn = void (*)(std::uint64_t* words,
                                    std::uint64_t counter, std::size_t n);
  using Crc32UpdateFn = std::uint32_t (*)(std::uint32_t state,
                                          const std::uint8_t* bytes,
                                          std::size_t n);

  AddAssignFn add_assign;
  ScaleAssignFn scale_assign;
  AddScaledFn add_scaled;
  DotFn dot;
  Mt64TwistFn mt64_twist;          ///< state has kMt64StateWords words
  Mt64LowBytesFn mt64_low_bytes;
  SplitmixExpandFn splitmix_expand;
  Crc32UpdateFn crc32_update;
  const char* name;
};

namespace detail {

/// The always-available scalar table (definition in kernels.cpp).
extern const KernelTable kScalarKernels;

/// Active table pointer. Constant-initialized (address constant), so no
/// static-initialization-order hazard: anything running before the
/// dispatcher gets the scalar kernels.
inline const KernelTable* g_active_kernels = &kScalarKernels;

/// The scalar byte-stream entries (definitions in kernels.cpp). The
/// SIMD tables name them for their sub-vector tails and, in the SSSE3
/// table, as whole entries.
void scalar_mt64_twist(std::uint64_t* state);
void scalar_mt64_low_bytes(std::uint8_t* out, const std::uint64_t* words,
                           std::size_t n);
void scalar_splitmix_expand(std::uint64_t* words, std::uint64_t counter,
                            std::size_t n);
[[nodiscard]] std::uint32_t scalar_crc32_update(std::uint32_t state,
                                                const std::uint8_t* bytes,
                                                std::size_t n);

/// Half-table pairs for the PSHUFB nibble-split kernels, one 32-byte
/// pair per multiplier c. Built lazily (Meyers singleton) from the
/// scalar multiplication table; ~8 KiB total.
struct NibbleTables {
  alignas(32) std::uint8_t lo[256][16];
  alignas(32) std::uint8_t hi[256][16];
};
[[nodiscard]] const NibbleTables& nibble_tables() noexcept;

/// SIMD tables, compiled in their own TUs with the matching ISA flags.
/// Return nullptr when the build target is not x86.
[[nodiscard]] const KernelTable* ssse3_kernels() noexcept;
[[nodiscard]] const KernelTable* avx2_kernels() noexcept;

}  // namespace detail

/// Runtime kernel selection facade.
class Kernels {
 public:
  enum class Kind { kScalar, kSsse3, kAvx2, kAuto };

  /// The currently active kernel set. Hot path: a single load.
  [[nodiscard]] static const KernelTable& active() noexcept {
    return *detail::g_active_kernels;
  }

  /// True if `kind` can run on this CPU (kScalar and kAuto always can).
  /// kAvx2 needs both AVX2 and PCLMULQDQ.
  [[nodiscard]] static bool supported(Kind kind) noexcept;

  /// The best kernel this CPU supports.
  [[nodiscard]] static Kind best() noexcept;

  /// Switch the active kernel set. kAuto resolves to best(). Returns
  /// false (and leaves the selection unchanged) if the CPU lacks the
  /// requested ISA. Not thread-safe against concurrent bulk ops —
  /// intended for startup / benchmark harnesses.
  static bool select(Kind kind) noexcept;

  /// select() by name: "scalar", "ssse3", "avx2" or "auto". Returns
  /// false on unknown names or unsupported ISAs.
  static bool select_by_name(std::string_view name) noexcept;

  /// Display name for a kind ("auto" included).
  [[nodiscard]] static const char* name(Kind kind) noexcept;

  Kernels() = delete;  // purely static facade
};

}  // namespace icollect::gf
