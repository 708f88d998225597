#pragma once

/// \file source_segment.h
/// Test helpers for the source side of a segment: random originals,
/// and the peer buffer an origin encodes from. That buffer holds the
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
#include "proto/peer_buffer.h"

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

/// Segment `id`'s source (see the file comment): a peer buffer that
/// holds only that segment's systematic blocks.
class SourceSegment {
 public:
  SourceSegment(const coding::SegmentId& id,
                const std::vector<std::vector<std::uint8_t>>& originals)
      : id_{id}, buffer_{originals.size(), originals.size()} {
    const std::size_t s = originals.size();
    for (std::size_t k = 0; k < s; ++k) {
      buffer_.insert(coding::CodedBlock::systematic(id, s, k, originals[k]));
    }
  }

  [[nodiscard]] coding::CodedBlock recode(common::Rng& rng) const {
    return buffer_.find(id_)->recode(rng);
  }

 private:
  coding::SegmentId id_;
  proto::PeerBuffer buffer_;
};

inline SourceSegment source_buffer(
    const coding::SegmentId& id,
    const std::vector<std::vector<std::uint8_t>>& originals) {
  return SourceSegment{id, originals};
}

}  // namespace icollect::fixtures
