#pragma once

/// \file segment_buffer.h
/// Per-peer storage of the coded blocks a peer holds for one segment,
/// with rank queries and re-encoding ("recoding").
///
/// This realizes the paper's rule that "coding operation is not limited
/// to the source": when a peer holding l coded blocks of segment i
/// transfers to another peer, it draws fresh random coefficients
/// c_1..c_l and sends x = sum_j c_j b_j (Sec. 2). Each stored block is
/// one edge of the bipartite graph G of Sec. 3; TTL expiry removes a
/// block, which can lower the segment's rank at this peer, so rank is
/// recomputed (cached, invalidated on mutation).

#include <cstdint>
#include <optional>
#include <vector>

#include "coding/coded_block.h"
#include "coding/segment_id.h"
#include "common/rng.h"

namespace icollect::coding {

/// Stable identifier of a stored block within a peer's buffer; allocated
/// by the owner (see proto::PeerBuffer) and used by TTL expiry events.
using BlockHandle = std::uint64_t;

class SegmentBuffer {
 public:
  SegmentBuffer(SegmentId id, std::size_t segment_size);

  [[nodiscard]] const SegmentId& id() const noexcept { return id_; }
  [[nodiscard]] std::size_t segment_size() const noexcept { return s_; }

  /// Number of stored blocks (the segment's edge multiplicity at this
  /// peer in the bipartite-graph view).
  [[nodiscard]] std::size_t block_count() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return blocks_.empty(); }

  /// Rank of the stored coefficient vectors (<= min(block_count, s)).
  [[nodiscard]] std::size_t rank() const;

  /// True if the peer already holds s linearly independent blocks of
  /// this segment — the gossip rule excludes such peers as receivers.
  [[nodiscard]] bool full_rank() const { return rank() == s_; }

  /// Store a block under the caller-allocated handle.
  /// Precondition: the block belongs to this segment and has the right
  /// coefficient length.
  void add(BlockHandle handle, CodedBlock block);

  /// Remove the block with the given handle. Returns true if present.
  bool remove(BlockHandle handle);

  /// Produce a re-coded block: a uniformly random GF(2^8) combination of
  /// all stored blocks (degenerate all-zero draws are redrawn).
  /// Precondition: !empty().
  [[nodiscard]] CodedBlock recode(common::Rng& rng) const;

  /// recode() into a caller-owned block, reusing its buffers: once
  /// `out`'s vectors have grown to size, repeated calls allocate
  /// nothing — this is what keeps the server pull-and-decode loop
  /// malloc-free. Draws the same RNG stream as recode().
  void recode_into(CodedBlock& out, common::Rng& rng) const;

  /// Handles of all stored blocks (for the owner's bookkeeping).
  [[nodiscard]] std::vector<BlockHandle> handles() const;

  /// Visit every stored block (read-only), e.g. for network-wide rank
  /// censuses.
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    for (const auto& st : blocks_) fn(st.block);
  }

 private:
  struct Stored {
    BlockHandle handle;
    CodedBlock block;
  };

  SegmentId id_;
  std::size_t s_;
  std::vector<Stored> blocks_;
  mutable std::optional<std::size_t> cached_rank_;
};

}  // namespace icollect::coding
