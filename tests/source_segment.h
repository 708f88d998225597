#pragma once

/// \file source_segment.h
/// Test helpers for the source side of a segment: random originals,
/// and the SegmentBuffer an origin encodes from. That buffer holds the
/// s originals as s systematic blocks, as proto::PeerCore::inject
/// stores a peer's own segment. A recode over it draws s coefficients
/// and redraws the all-zero vector, so it is uniform over
/// GF(2^8)^s \ {0}: the source encoder of Sec. 2.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coding/coded_block.h"
#include "coding/segment_buffer.h"
#include "common/rng.h"

namespace icollect::fixtures {

/// `s` blocks of `bytes` uniformly random bytes each.
inline std::vector<std::vector<std::uint8_t>> random_originals(
    std::size_t s, std::size_t bytes, common::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> blocks(s);
  for (auto& b : blocks) {
    b.resize(bytes);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.gf_element());
  }
  return blocks;
}

/// Segment `id`'s source buffer over `originals` (see the file comment).
inline coding::SegmentBuffer source_buffer(
    const coding::SegmentId& id,
    const std::vector<std::vector<std::uint8_t>>& originals) {
  const std::size_t s = originals.size();
  coding::SegmentBuffer buf{id, s};
  for (std::size_t k = 0; k < s; ++k) {
    buf.add(k + 1, coding::CodedBlock::systematic(id, s, k, originals[k]));
  }
  return buf;
}

}  // namespace icollect::fixtures
