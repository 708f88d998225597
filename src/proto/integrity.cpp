#include "proto/integrity.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/rng.h"
#include "gf/kernels.h"

namespace icollect::proto {

namespace {

/// Domain-separation constant for the check-vector PRF (distinct from
/// every seed-derivation constant elsewhere in the tree).
constexpr std::uint64_t kCheckDomain = 0xC0EFF1C1E47A65ULL;

/// Counter-mode PRF state for the check vector of (key, id, j).
[[nodiscard]] std::uint64_t check_state(std::uint64_t key,
                                        const coding::SegmentId& id,
                                        std::size_t j) noexcept {
  const std::uint64_t seg =
      (static_cast<std::uint64_t>(id.origin) << 32U) | id.seq;
  std::uint64_t x = common::splitmix64(key ^ kCheckDomain);
  x = common::splitmix64(x ^ seg);
  return common::splitmix64(x ^ (static_cast<std::uint64_t>(j) + 1));
}

/// A PRF word in the byte order the check vector uses (low byte first),
/// so a word buffer read as bytes is the check vector on any host.
[[nodiscard]] constexpr std::uint64_t little_endian(std::uint64_t w) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return w;
  } else {
    std::uint64_t swapped = 0;
    for (int b = 0; b < 8; ++b) {
      swapped = (swapped << 8U) | ((w >> (8 * b)) & 0xFFU);
    }
    return swapped;
  }
}

}  // namespace

gf::Element IntegrityAuthority::check_dot(
    const coding::SegmentId& id, std::size_t j,
    std::span<const std::uint8_t> v) const {
  // r_j is one splitmix64 word per 8 payload bytes, low byte first. It
  // is expanded a chunk at a time into a stack buffer of words, and the
  // active kernel's dot reduces each chunk; the chunk dots XOR together.
  constexpr std::size_t kChunk = 256;
  const auto kernel_dot = gf::Kernels::active().dot;
  std::array<std::uint64_t, kChunk / 8> words{};
  const auto* r = reinterpret_cast<const gf::Element*>(words.data());
  std::uint64_t counter = check_state(params_.key, id, j);
  gf::Element acc = 0;
  for (std::size_t off = 0; off < v.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, v.size() - off);
    for (std::size_t w = 0; w < (n + 7) / 8; ++w) {
      words[w] = little_endian(common::splitmix64(counter++));
    }
    acc ^= kernel_dot(r, v.data() + off, n);
  }
  return acc;
}

void IntegrityAuthority::register_segment(
    const coding::SegmentId& id,
    std::span<const std::vector<std::uint8_t>> originals) {
  ICOLLECT_EXPECTS(!originals.empty());
  const std::size_t len = originals.front().size();
  ICOLLECT_EXPECTS(len > 0);
  for (const auto& b : originals) ICOLLECT_EXPECTS(b.size() == len);

  SegmentTags t;
  t.segment_size = originals.size();
  t.payload_len = len;
  t.rows.resize(params_.checks * t.segment_size);
  for (std::size_t j = 0; j < params_.checks; ++j) {
    for (std::size_t k = 0; k < t.segment_size; ++k) {
      t.rows[j * t.segment_size + k] = check_dot(id, j, originals[k]);
    }
  }
  const auto [it, inserted] = tags_.insert_or_assign(id, std::move(t));
  (void)it;
  // Churn re-uses peer slots under fresh origin ids, so a live id never
  // repeats; seeing one again means the caller re-injected a segment
  // without forgetting it first.
  ICOLLECT_ENSURES(inserted);
}

VerifyResult IntegrityAuthority::verify(
    const coding::CodedBlock& block) const {
  const auto it = tags_.find(block.segment);
  if (it == tags_.end()) return VerifyResult::kUnknownSegment;
  const SegmentTags& t = it->second;
  if (block.segment_size() != t.segment_size ||
      block.payload.size() != t.payload_len) {
    return VerifyResult::kShapeMismatch;
  }
  for (std::size_t j = 0; j < params_.checks; ++j) {
    const gf::Element lhs = check_dot(block.segment, j, block.payload);
    const std::span<const gf::Element> row{
        t.rows.data() + j * t.segment_size, t.segment_size};
    const gf::Element rhs =
        gf::dot(std::span<const gf::Element>{block.coefficients}, row);
    if (lhs != rhs) return VerifyResult::kCheckFailed;
  }
  return VerifyResult::kOk;
}

}  // namespace icollect::proto
