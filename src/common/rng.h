#pragma once

/// \file rng.h
/// Deterministic, seedable randomness shared by every layer.
///
/// Every stochastic ingredient of the paper's model flows through this
/// class: exponential inter-event times (Poisson injection at rate λ/s,
/// gossip at μ, TTL expiry at γ, server pulls at c_s, churn lifetimes),
/// uniform-at-random peer / segment / neighbor selection, and uniformly
/// random GF(2^8) coding coefficients. A single seed therefore reproduces
/// an entire simulation run — or a loopback cluster run — bit-for-bit.
///
/// Lives in common/ (not sim/) because the protocol core (src/proto/)
/// draws from the same stream type while staying independent of the
/// discrete-event kernel; sim/random.h re-exports these names for the
/// simulator-side call sites.
///
/// The engine is an in-tree MT19937-64 whose output is draw-for-draw
/// identical to std::mt19937_64 (same seeding, twist and tempering), so
/// every seeded run and golden capture is unchanged by it. It differs
/// only in how the work is laid out: the 312-word state block is
/// regenerated in one call of the active kernel table's `mt64_twist`,
/// and `fill_gf` tempers a whole run of state words into payload bytes
/// with one `mt64_low_bytes` call instead of paying a call and a bounds
/// check per byte (gf/kernels.h; the AVX2 entries work four words per
/// instruction, the scalar ones are the loops of this class). A single
/// draw stays inline. The state stays 312 words + an index — no second
/// output buffer — because a cluster holds one Rng per node.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/assert.h"
#include "gf/gf256.h"
#include "gf/kernels.h"

namespace icollect::common {

/// The SplitMix64 increment and its two mixing multipliers.
inline constexpr std::uint64_t kSplitmixGamma = 0x9E3779B97F4A7C15ULL;
inline constexpr std::uint64_t kSplitmixMul1 = 0xBF58476D1CE4E5B9ULL;
inline constexpr std::uint64_t kSplitmixMul2 = 0x94D049BB133111EBULL;

/// SplitMix64 finalizer (Steele/Lea/Flood; the mixer of
/// std::philox-free seeding folklore): a bijective avalanche on 64 bits.
/// This is the primitive every derived seed in the codebase flows
/// through — runner::SeedSequence builds its per-cell / per-replica
/// stream tree out of it, so two distinct derivation paths never yield
/// correlated mt19937_64 seeds. gf::KernelTable::splitmix_expand
/// evaluates it over a counter range, with the constants below.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += kSplitmixGamma;
  x = (x ^ (x >> 30)) * kSplitmixMul1;
  x = (x ^ (x >> 27)) * kSplitmixMul2;
  return x ^ (x >> 31);
}

/// MT19937-64 (Matsumoto & Nishimura), bit-compatible with
/// std::mt19937_64: same parameters, seeding, twist and tempering, so
/// `Mt19937_64{s}` and `std::mt19937_64{s}` produce the same sequence.
/// Meets UniformRandomBitGenerator with min 0 and max 2^64 - 1, the
/// range the std distributions see from std::mt19937_64, so they draw
/// exactly as they did over the std engine.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  static constexpr std::size_t kN = gf::kMt64StateWords;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kMatrixA = 0xB5026F5AA96619E9ULL;
  static constexpr result_type kUpperMask = ~result_type{0} << 31U;
  static constexpr result_type kLowerMask = ~kUpperMask;
  /// Tempering masks (the standard's d, b and c).
  static constexpr result_type kTemperD = 0x5555555555555555ULL;
  static constexpr result_type kTemperB = 0x71D67FFFEDA60000ULL;
  static constexpr result_type kTemperC = 0xFFF7EEE000000000ULL;

  explicit Mt19937_64(result_type seed) noexcept {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62U)) + i;
    }
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~result_type{0};
  }

  result_type operator()() noexcept {
    if (index_ == kN) twist();
    return temper(state_[index_++]);
  }

  /// out[i] = low byte of the i-th next draw: the same bytes and the
  /// same stream position as out.size() calls of operator() & 0xFF.
  void fill_low_bytes(std::span<std::uint8_t> out) noexcept {
    const auto low_bytes = gf::Kernels::active().mt64_low_bytes;
    std::size_t done = 0;
    while (done < out.size()) {
      if (index_ == kN) twist();
      const std::size_t n = std::min(out.size() - done, kN - index_);
      low_bytes(out.data() + done, state_.data() + index_, n);
      index_ += n;
      done += n;
    }
  }

  /// The tempering transform: state word -> output draw.
  [[nodiscard]] static constexpr result_type temper(result_type y) noexcept {
    y ^= (y >> 29U) & kTemperD;
    y ^= (y << 17U) & kTemperB;
    y ^= (y << 37U) & kTemperC;
    return y ^ (y >> 43U);
  }

  /// One step of the twist recurrence: the new state word from the old
  /// word, its successor and the word kM places ahead.
  [[nodiscard]] static constexpr result_type mix(result_type hi_word,
                                                 result_type lo_word,
                                                 result_type far) noexcept {
    const result_type y = (hi_word & kUpperMask) | (lo_word & kLowerMask);
    return far ^ (y >> 1U) ^ ((0 - (y & 1U)) & kMatrixA);
  }

 private:
  /// Regenerate the whole 312-word block on the active kernel.
  void twist() noexcept {
    gf::Kernels::active().mt64_twist(state_.data());
    index_ = 0;
  }

  std::array<result_type, kN> state_;
  std::size_t index_ = kN;
};

/// Seedable random source. Thin, inlined wrapper over Mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine_);
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    ICOLLECT_EXPECTS(lo <= hi);
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Uniform integer in [0, n). Precondition: n > 0.
  [[nodiscard]] std::size_t uniform_index(std::size_t n) {
    ICOLLECT_EXPECTS(n > 0);
    return std::uniform_int_distribution<std::size_t>{0, n - 1}(engine_);
  }

  /// Exponentially distributed waiting time with the given rate
  /// (mean 1/rate). Precondition: rate > 0.
  [[nodiscard]] double exponential(double rate) {
    ICOLLECT_EXPECTS(rate > 0.0);
    return std::exponential_distribution<double>{rate}(engine_);
  }

  /// Poisson-distributed count with the given mean.
  [[nodiscard]] int poisson(double mean) {
    ICOLLECT_EXPECTS(mean >= 0.0);
    if (mean == 0.0) return 0;
    return std::poisson_distribution<int>{mean}(engine_);
  }

  /// Bernoulli trial with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p) {
    ICOLLECT_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }

  /// Uniformly random GF(2^8) element (0 allowed).
  [[nodiscard]] gf::Element gf_element() {
    return static_cast<gf::Element>(engine_() & 0xFFU);
  }

  /// Uniformly random *non-zero* GF(2^8) element. Used for the leading
  /// coefficient of fresh coded blocks so a combination is never trivially
  /// the zero vector.
  [[nodiscard]] gf::Element gf_nonzero() {
    return static_cast<gf::Element>(1 + uniform_index(255));
  }

  /// Fill a span with uniformly random GF(2^8) elements: the same
  /// elements and stream position as one gf_element() per entry.
  void fill_gf(std::span<gf::Element> out) { engine_.fill_low_bytes(out); }

  /// Pick a uniformly random item from a non-empty vector.
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& items) {
    ICOLLECT_EXPECTS(!items.empty());
    return items[uniform_index(items.size())];
  }

  /// Derive an independent child stream (for sub-components that should
  /// not perturb the parent's sequence when their draw counts change).
  [[nodiscard]] Rng fork() { return Rng{engine_() ^ 0x9E3779B97F4A7C15ULL}; }

  /// Access to the raw engine, for std distributions not wrapped here.
  [[nodiscard]] Mt19937_64& engine() noexcept { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace icollect::common
