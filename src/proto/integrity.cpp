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

/// Domain-separation constant for a run's key, seed-derived in
/// make_run_authority.
constexpr std::uint64_t kRunKeyDomain = 0x1A76E9D2B4C05A31ULL;

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

/// r_j is expanded and reduced this many payload bytes at a time, from
/// a stack buffer of words.
constexpr std::size_t kChunk = 256;
using ChunkWords = std::array<std::uint64_t, kChunk / 8>;

/// Expand the check-vector words covering the next n <= kChunk payload
/// bytes, one splitmix64 word per 8 bytes, low byte first, so the word
/// buffer read as bytes is the check vector on any host. Returns the
/// counter of the following chunk.
std::uint64_t expand_chunk(ChunkWords& words, std::uint64_t counter,
                           std::size_t n) noexcept {
  const std::size_t count = (n + 7) / 8;
  gf::Kernels::active().splitmix_expand(words.data(), counter, count);
  if constexpr (std::endian::native != std::endian::little) {
    for (std::size_t w = 0; w < count; ++w) {
      std::uint64_t swapped = 0;
      for (int b = 0; b < 8; ++b) {
        swapped = (swapped << 8U) | ((words[w] >> (8 * b)) & 0xFFU);
      }
      words[w] = swapped;
    }
  }
  return counter + count;
}

}  // namespace

gf::Element IntegrityAuthority::check_dot(
    const coding::SegmentId& id, std::size_t j,
    std::span<const std::uint8_t> v) const {
  // The active kernel's dot reduces each chunk of r_j against v; the
  // chunk dots XOR together.
  const auto kernel_dot = gf::Kernels::active().dot;
  ChunkWords words{};
  const auto* r = reinterpret_cast<const gf::Element*>(words.data());
  std::uint64_t counter = check_state(params_.key, id, j);
  gf::Element acc = 0;
  for (std::size_t off = 0; off < v.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, v.size() - off);
    counter = expand_chunk(words, counter, n);
    acc ^= kernel_dot(r, v.data() + off, n);
  }
  return acc;
}

void IntegrityAuthority::register_segment(
    const coding::SegmentId& id,
    std::span<const std::vector<std::uint8_t>> originals) {
  // Churn re-uses peer slots under fresh origin ids, so a live id never
  // repeats; seeing one again means the caller re-injected a segment
  // without forgetting it first. Rejected before anything is computed,
  // so the live segment's tags stay as they were.
  ICOLLECT_EXPECTS(!known(id));
  ICOLLECT_EXPECTS(!originals.empty());
  const std::size_t len = originals.front().size();
  ICOLLECT_EXPECTS(len > 0);
  for (const auto& b : originals) ICOLLECT_EXPECTS(b.size() == len);

  SegmentTags t;
  t.segment_size = originals.size();
  t.payload_len = len;
  t.rows.resize(params_.checks * t.segment_size);
  // T[j][k] = <r_j, b_k> for every k off one expansion of each chunk of
  // r_j: the same chunk dots check_dot would XOR together, per original.
  const auto kernel_dot = gf::Kernels::active().dot;
  ChunkWords words{};
  const auto* r = reinterpret_cast<const gf::Element*>(words.data());
  for (std::size_t j = 0; j < params_.checks; ++j) {
    gf::Element* row = t.rows.data() + j * t.segment_size;
    std::uint64_t counter = check_state(params_.key, id, j);
    for (std::size_t off = 0; off < len; off += kChunk) {
      const std::size_t n = std::min(kChunk, len - off);
      counter = expand_chunk(words, counter, n);
      for (std::size_t k = 0; k < t.segment_size; ++k) {
        row[k] ^= kernel_dot(r, originals[k].data() + off, n);
      }
    }
  }
  tags_.emplace(id, std::move(t));
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

std::unique_ptr<IntegrityAuthority> make_run_authority(std::uint64_t seed,
                                                       std::size_t checks) {
  if (checks == 0) return nullptr;
  return std::make_unique<IntegrityAuthority>(IntegrityParams{
      common::splitmix64(seed ^ kRunKeyDomain), checks});
}

}  // namespace icollect::proto
