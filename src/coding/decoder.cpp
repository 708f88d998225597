#include "coding/decoder.h"

#include <algorithm>

#include "gf/gf_vector.h"

namespace icollect::coding {

Decoder::Decoder(SegmentId id, std::size_t segment_size,
                 std::size_t payload_size)
    : id_{id},
      s_{segment_size},
      payload_size_{payload_size},
      coeff_rows_(segment_size * segment_size, gf::Element{0}),
      payload_rows_(segment_size * payload_size, std::uint8_t{0}),
      present_(segment_size, std::uint8_t{0}),
      scratch_coeffs_(segment_size, gf::Element{0}),
      scratch_payload_(payload_size, std::uint8_t{0}) {
  ICOLLECT_EXPECTS(segment_size > 0);
}

std::optional<std::size_t> Decoder::reduce(
    std::span<gf::Element> coeffs, std::span<std::uint8_t> payload) const {
  // Forward elimination against every stored pivot row, in pivot order.
  // After this loop the leading non-zero column (if any) has no stored
  // pivot, so it becomes this block's pivot.
  for (std::size_t p = 0; p < s_; ++p) {
    const gf::Element f = coeffs[p];
    if (f == 0 || present_[p] == 0) continue;
    gf::add_scaled(coeffs, coeff_row(p), f);
    if (!payload.empty()) gf::add_scaled(payload, payload_row(p), f);
  }
  const std::size_t lead = gf::leading_index(coeffs);
  if (lead == s_) return std::nullopt;
  return lead;
}

bool Decoder::is_innovative(const CodedBlock& block) const {
  ICOLLECT_EXPECTS(block.segment == id_);
  ICOLLECT_EXPECTS(block.coefficients.size() == s_);
  if (complete()) return false;
  // Coefficients alone decide innovation; reduce in scratch, no payload.
  std::copy(block.coefficients.begin(), block.coefficients.end(),
            scratch_coeffs_.begin());
  return reduce(scratch_coeffs_, {}).has_value();
}

bool Decoder::add(const CodedBlock& block) {
  ICOLLECT_EXPECTS(block.segment == id_);
  ICOLLECT_EXPECTS(block.coefficients.size() == s_);
  ICOLLECT_EXPECTS(block.payload.empty() ||
                   block.payload.size() == payload_size_);
  // Coefficients alone decide innovation: a redundant block (including
  // every block after completion) is rejected before any payload byte
  // is copied or reduced.
  if (!is_innovative(block)) {
    ++redundant_;
    return false;
  }
  std::copy(block.coefficients.begin(), block.coefficients.end(),
            scratch_coeffs_.begin());
  const std::span<gf::Element> coeffs{scratch_coeffs_};
  const std::span<std::uint8_t> payload{scratch_payload_};
  if (block.payload.empty()) {
    // Callers may legitimately strip payloads (coefficient-only sweeps);
    // track linear algebra with a zero payload so decode stays consistent.
    std::fill(scratch_payload_.begin(), scratch_payload_.end(),
              std::uint8_t{0});
  } else {
    std::copy(block.payload.begin(), block.payload.end(),
              scratch_payload_.begin());
  }
  const auto pivot = reduce(coeffs, payload);
  ICOLLECT_ENSURES(pivot.has_value());  // the same coefficients reduced
  const std::size_t p = *pivot;
  // Normalize so the pivot coefficient is exactly 1.
  const gf::Element lead = coeffs[p];
  if (lead != 1) {
    const gf::Element inv = gf::GF256::inv(lead);
    gf::scale_assign(coeffs, inv);
    gf::scale_assign(payload, inv);
  }
  // Back-substitute into already-stored rows so the matrix stays in
  // reduced row-echelon form and completion implies the identity matrix.
  for (std::size_t q = 0; q < s_; ++q) {
    if (present_[q] == 0) continue;
    const gf::Element f = coeff_row(q)[p];
    if (f == 0) continue;
    gf::add_scaled(coeff_row(q), coeffs, f);
    gf::add_scaled(payload_row(q), payload, f);
  }
  std::copy(coeffs.begin(), coeffs.end(), coeff_row(p).begin());
  std::copy(payload.begin(), payload.end(), payload_row(p).begin());
  present_[p] = 1;
  ++rank_;
  return true;
}

std::span<const std::uint8_t> Decoder::original(std::size_t k) const {
  ICOLLECT_EXPECTS(complete());
  ICOLLECT_EXPECTS(k < s_);
  // In RREF at full rank the coefficient matrix is the identity, so the
  // payload stored at pivot k is exactly original block k.
  return payload_row(k);
}

std::vector<std::vector<std::uint8_t>> Decoder::originals() const {
  ICOLLECT_EXPECTS(complete());
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(s_);
  for (std::size_t k = 0; k < s_; ++k) {
    const auto row = payload_row(k);
    out.emplace_back(row.begin(), row.end());
  }
  return out;
}

}  // namespace icollect::coding
