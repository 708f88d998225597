#pragma once

/// \file decoder.h
/// Progressive Gaussian-elimination decoder for one segment.
///
/// The logging servers run one of these per segment: every pulled coded
/// block is reduced against the rows already held; innovative blocks
/// raise the rank, redundant ones are counted and discarded. When the
/// rank reaches the segment size s, the internal matrix is (by
/// construction of the incremental reduction) the identity and the stored
/// payload rows *are* the original blocks — the "approximately O(s)
/// operations per input block" decoding the paper cites [8].
///
/// Memory layout is built for the hot loop: rows live in two flat,
/// pre-sized arenas (s x s coefficients, s x payload bytes) allocated
/// once at construction, and reduction runs in reusable scratch buffers.
/// After construction, add() and is_innovative() perform ZERO heap
/// allocations — the steady-state decode path (dominated by redundant
/// blocks at high collection states) is pure arithmetic on warm memory.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "coding/coded_block.h"
#include "coding/segment_id.h"
#include "common/assert.h"
#include "gf/gf256.h"

namespace icollect::coding {

class Decoder {
 public:
  /// Decoder for a segment of `segment_size` blocks whose payloads have
  /// `payload_size` bytes (payload_size may be 0 for coefficient-only use).
  Decoder(SegmentId id, std::size_t segment_size, std::size_t payload_size);

  [[nodiscard]] const SegmentId& id() const noexcept { return id_; }
  [[nodiscard]] std::size_t segment_size() const noexcept { return s_; }
  [[nodiscard]] std::size_t payload_size() const noexcept {
    return payload_size_;
  }

  /// Current rank (number of linearly independent blocks absorbed).
  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }

  /// True once rank() == segment_size(): all originals recoverable.
  [[nodiscard]] bool complete() const noexcept { return rank_ == s_; }

  /// Number of blocks offered that carried no new information.
  [[nodiscard]] std::uint64_t redundant_count() const noexcept {
    return redundant_;
  }

  /// Would this block raise the rank? (const; does not modify state)
  [[nodiscard]] bool is_innovative(const CodedBlock& block) const;

  /// Absorb a coded block. Returns true if it was innovative. A
  /// redundant block is rejected on its coefficients alone, before any
  /// payload byte is copied or reduced, and changes nothing but
  /// redundant_count().
  /// Preconditions: matching segment id, coefficient length s, and (when
  /// payloads are in use) matching payload length.
  bool add(const CodedBlock& block);

  /// Row p of the stored reduced row-echelon form — the pivot row for
  /// column p, all zero while no block has pivoted there: its
  /// coefficients and its payload.
  [[nodiscard]] std::span<const gf::Element> row_coefficients(
      std::size_t p) const {
    ICOLLECT_EXPECTS(p < s_);
    return coeff_row(p);
  }
  [[nodiscard]] std::span<const std::uint8_t> row_payload(
      std::size_t p) const {
    ICOLLECT_EXPECTS(p < s_);
    return payload_row(p);
  }

  /// The k-th recovered original block, as a view into the decoder's row
  /// arena (valid until the decoder is destroyed). Precondition:
  /// complete().
  [[nodiscard]] std::span<const std::uint8_t> original(std::size_t k) const;

  /// All recovered originals in order, copied out. Precondition:
  /// complete().
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> originals() const;

 private:
  /// Reduce (coeffs, payload) against stored rows in place; returns the
  /// pivot column if a non-zero leading coefficient remains, nullopt if
  /// fully eliminated (non-innovative).
  [[nodiscard]] std::optional<std::size_t> reduce(
      std::span<gf::Element> coeffs,
      std::span<std::uint8_t> payload) const;

  // Row views into the flat arenas; row with pivot at column p is row p.
  [[nodiscard]] std::span<gf::Element> coeff_row(std::size_t p) noexcept {
    return {coeff_rows_.data() + p * s_, s_};
  }
  [[nodiscard]] std::span<const gf::Element> coeff_row(
      std::size_t p) const noexcept {
    return {coeff_rows_.data() + p * s_, s_};
  }
  [[nodiscard]] std::span<std::uint8_t> payload_row(std::size_t p) noexcept {
    return {payload_rows_.data() + p * payload_size_, payload_size_};
  }
  [[nodiscard]] std::span<const std::uint8_t> payload_row(
      std::size_t p) const noexcept {
    return {payload_rows_.data() + p * payload_size_, payload_size_};
  }

  SegmentId id_;
  std::size_t s_;
  std::size_t payload_size_;
  std::size_t rank_ = 0;
  std::uint64_t redundant_ = 0;
  // Flat row arenas, sized once at construction (s*s and s*payload).
  std::vector<gf::Element> coeff_rows_;
  std::vector<std::uint8_t> payload_rows_;
  std::vector<std::uint8_t> present_;  // 1 if row p holds a pivot row
  // Reduction scratch, sized once at construction; mutable so the const
  // is_innovative() probe can reuse it (single-threaded use, as before).
  mutable std::vector<gf::Element> scratch_coeffs_;
  mutable std::vector<std::uint8_t> scratch_payload_;
};

}  // namespace icollect::coding
