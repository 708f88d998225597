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
/// block, which can lower the segment's rank at this peer.
///
/// Rank is tracked incrementally in an echelon basis of the coefficient
/// rows: one s*s byte arena, allocated on the first rank query of a
/// buffer holding at least two blocks and reused after. Row p holds the
/// basis vector whose leading coefficient (normalised to 1) sits in
/// column p, so row p is present iff its diagonal byte is nonzero. A
/// query absorbs only the blocks added since the previous one; add()
/// just appends, and remove() resets the basis, which the next query
/// rebuilds from the remaining blocks. After warm-up the add -> rank ->
/// remove -> rank cycle allocates nothing.

#include <cstdint>
#include <memory>
#include <span>
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

  /// Reduce one block's coefficients against the basis; a nonzero
  /// remainder joins it as the row of its leading column.
  /// Precondition: rank_ < s_.
  void absorb(std::span<const gf::Element> coeffs) const;

  SegmentId id_;
  std::size_t s_;
  std::vector<Stored> blocks_;
  // Echelon basis (see the file comment): s*s bytes, null until first
  // needed. A pointer and two 32-bit counts keep the buffer small:
  // PeerBuffer shifts its SegmentBuffers when a segment leaves.
  mutable std::unique_ptr<gf::Element[]> basis_;
  mutable std::uint32_t absorbed_ = 0;  ///< blocks_ prefix in basis_
  mutable std::uint32_t rank_ = 0;      ///< rank of that prefix
};

}  // namespace icollect::coding
