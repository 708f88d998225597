#pragma once

/// \file integrity.h
/// Coefficient-aware pollution detection for coded blocks.
///
/// The wire CRC only covers transport corruption: a byzantine peer can
/// emit a perfectly framed block whose payload is garbage, and Gaussian
/// elimination will happily absorb it — one polluted block poisons every
/// re-coded descendant and, eventually, the decoded segment. Per-block
/// verification therefore has to be *homomorphic*: valid under every
/// GF(2^8) linear recombination honest relays apply, invalid for
/// anything else.
///
/// Scheme (a seeded linear MAC, the classic homomorphic-hash shape):
/// for a segment with originals b_1..b_s of payload length L, a trusted
/// authority holding secret key K derives `checks` pseudo-random check
/// vectors r_1..r_k in GF(2^8)^L (PRF-expanded from (K, segment id, j),
/// never transmitted) and publishes per-segment tags
///
///     T[j][k] = <r_j, b_k>           (a checks x s matrix of bytes).
///
/// A coded block (c, p) with p = sum_k c_k * b_k then satisfies, by
/// linearity of the inner product,
///
///     <r_j, p> == sum_k c_k * T[j][k] == <c, T[j]>   for every j,
///
/// and the identity survives arbitrary re-coding: any linear
/// combination of valid blocks is again valid. A forged block that is
/// NOT in the span of the originals passes all k checks with
/// probability 256^-k (each check is a uniformly random linear
/// functional of the forgery's error vector). Because the relation
/// couples c and p, it catches garbage-*coefficient* attacks (honest
/// payload, scrambled c) just as well as payload pollution. Replayed
/// valid blocks pass by construction — replay is measured as
/// redundancy, not filtered here.
///
/// Trust model: the authority is an in-process oracle shared by every
/// honest node of a run (the simulator's Network owns one; the loopback
/// cluster hands one pointer to all nodes). This models out-of-band tag
/// distribution signed by the collecting servers; distributing tags
/// in-band is future work. Tags are registered synchronously at
/// injection time, so an unknown segment at verify time means the block
/// was forged from whole cloth — it is quarantined, not given the
/// benefit of the doubt.
///
/// Determinism: the PRF is a splitmix64 counter chain, deliberately
/// independent of common::Rng so enabling verification adds zero draws
/// to any seeded RNG stream (the golden-run byte-identity contract).
///
/// Cost: r_j is never stored. It is expanded 256 bytes at a time by the
/// active kernel table's `splitmix_expand` (four lanes wide on AVX2) and
/// reduced by its `dot`. Registration expands each chunk of r_j once and
/// reduces all s originals against it, so a segment's tags cost
/// `checks` expansions of one payload length, not `checks * s`.

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "coding/coded_block.h"
#include "coding/segment_id.h"
#include "common/assert.h"
#include "gf/gf256.h"

namespace icollect::proto {

struct IntegrityParams {
  std::uint64_t key = 0;     ///< secret PRF key (per run)
  std::size_t checks = 0;    ///< k independent checks; escape prob 256^-k
};

/// Typed verdict of a per-block check, from most to least trusted.
enum class VerifyResult : std::uint8_t {
  kOk,              ///< all checks hold: block is in the originals' span
  kUnknownSegment,  ///< no tags registered — forged segment id
  kShapeMismatch,   ///< coefficient/payload lengths disagree with the tags
  kCheckFailed,     ///< <r_j, p> != <c, T[j]> for some j: polluted
};

[[nodiscard]] constexpr const char* to_string(VerifyResult r) noexcept {
  switch (r) {
    case VerifyResult::kOk: return "ok";
    case VerifyResult::kUnknownSegment: return "unknown-segment";
    case VerifyResult::kShapeMismatch: return "shape-mismatch";
    case VerifyResult::kCheckFailed: return "check-failed";
  }
  return "?";
}

/// The shared tag oracle. Not thread-safe: both drivers that use it are
/// single-threaded event loops (virtual-time simulator, loopback hub).
class IntegrityAuthority {
 public:
  explicit IntegrityAuthority(IntegrityParams params) : params_{params} {
    ICOLLECT_EXPECTS(params.checks > 0);
  }

  /// Compute and store the tag matrix for a freshly injected segment.
  /// Must be called before any coded block of the segment circulates;
  /// re-registration of a live id is a contract error, raised before
  /// anything is computed, so the live segment's tags stay intact. Every
  /// original must be non-empty and equal-length (checks over empty
  /// payloads would be vacuous).
  void register_segment(const coding::SegmentId& id,
                        std::span<const std::vector<std::uint8_t>> originals);

  /// Check one block against the registered tags.
  [[nodiscard]] VerifyResult verify(const coding::CodedBlock& block) const;

  [[nodiscard]] bool known(const coding::SegmentId& id) const {
    return tags_.contains(id);
  }
  /// Drop a segment's tags. Only for a segment none of whose blocks can
  /// circulate again: blocks of already-decoded segments keep moving and
  /// must keep verifying. The simulator calls it once a segment's last
  /// copy is gone; the live runtime has no such oracle and never does.
  void forget(const coding::SegmentId& id) { tags_.erase(id); }

  [[nodiscard]] std::size_t checks() const noexcept { return params_.checks; }
  [[nodiscard]] std::size_t segments() const noexcept { return tags_.size(); }

 private:
  struct SegmentTags {
    std::size_t segment_size = 0;
    std::size_t payload_len = 0;
    /// Row-major checks x segment_size matrix; row j is T[j].
    std::vector<gf::Element> rows;
  };

  /// <r_j, v> where r_j is the (never-stored) check vector for
  /// (key, id, j), expanded 8 bytes per splitmix64 word into a small
  /// stack buffer and reduced chunk by chunk on the active kernels.
  [[nodiscard]] gf::Element check_dot(
      const coding::SegmentId& id, std::size_t j,
      std::span<const std::uint8_t> v) const;

  IntegrityParams params_;
  std::unordered_map<coding::SegmentId, SegmentTags> tags_;
};

/// The one authority of a run seeded `seed`, or nullptr when `checks`
/// is 0 (verification off). The PRF key is seed-derived but
/// domain-separated from every seed used for an RNG stream, so a
/// simulator run and a loopback-cluster run at the same seed agree on
/// the check vectors.
[[nodiscard]] std::unique_ptr<IntegrityAuthority> make_run_authority(
    std::uint64_t seed, std::size_t checks);

}  // namespace icollect::proto
