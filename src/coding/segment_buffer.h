#pragma once

/// \file segment_buffer.h
/// Per-peer storage of coded blocks: the block slab every stored block
/// lives in, and the per-segment view with rank queries and re-encoding
/// ("recoding").
///
/// This realizes the paper's rule that "coding operation is not limited
/// to the source": when a peer holding l coded blocks of segment i
/// transfers to another peer, it draws fresh random coefficients
/// c_1..c_l and sends x = sum_j c_j b_j (Sec. 2). Each stored block is
/// one edge of the bipartite graph G of Sec. 3; TTL expiry removes a
/// block, which can lower the segment's rank at this peer.
///
/// Layout. A BlockSlab holds one peer's blocks: slot k keeps the block's
/// segment, the serial of its live handle, its insertion-order links
/// within the segment and its payload; its s coefficient bytes sit at
/// k*s in one flat arena. A SegmentBuffer is the per-segment part — a
/// count, the head and tail of its blocks' chain, and the rank basis —
/// and reads rows through the slab. Removing a block is one unlink, and
/// the chain keeps insertion order, so recode draws one coefficient per
/// block in the order the blocks arrived.
///
/// Rank is tracked incrementally in an echelon basis of the coefficient
/// rows: one s*s byte arena, allocated on the first rank query of a
/// buffer holding at least two blocks and reused after. Row p holds the
/// basis vector whose leading coefficient (normalised to 1) sits in
/// column p, so row p is present iff its diagonal byte is nonzero. A
/// query absorbs only the blocks added since the previous one; add()
/// just links, and remove() resets the basis, which the next query
/// rebuilds from the remaining blocks. After warm-up the add -> rank ->
/// remove -> rank cycle allocates nothing.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coding/coded_block.h"
#include "coding/segment_id.h"
#include "common/assert.h"
#include "common/rng.h"

namespace icollect::coding {

/// Stable identifier of a stored block within a peer's buffer: a slab
/// slot in the low BlockSlab::kSlotBits bits and the slot's serial
/// above them. Serials are never reused, so a stale handle (after
/// erase, clear, or an eviction) is recognised in O(1).
using BlockHandle = std::uint64_t;

/// One peer's block storage (see the file comment). Slots are recycled
/// through a free list; a freed slot gives its payload buffer back.
class BlockSlab {
 public:
  /// End of a chain / no slot.
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  /// A handle's slot field; the serial takes the remaining bits.
  static constexpr unsigned kSlotBits = 24;

  struct Slot {
    SegmentId segment;
    std::uint32_t prev = kNil;  ///< previous block of the segment
    std::uint32_t next = kNil;  ///< next block of the segment
    std::uint64_t serial = 0;   ///< of the live handle; 0 while free
    std::vector<std::uint8_t> payload;
  };

  /// Precondition: segment_size > 0.
  explicit BlockSlab(std::size_t segment_size) : s_{segment_size} {
    ICOLLECT_EXPECTS(segment_size > 0);
  }
  // SegmentBuffers hold the slab's address.
  BlockSlab(const BlockSlab&) = delete;
  BlockSlab& operator=(const BlockSlab&) = delete;

  [[nodiscard]] std::size_t segment_size() const noexcept { return s_; }

  /// Store `block` in a free slot and return the slot; its links are
  /// unset. Precondition: the block has s coefficients and is not
  /// degenerate.
  std::uint32_t acquire(CodedBlock&& block);
  /// Free a slot: its handle goes stale and its payload is released.
  void release(std::uint32_t k);
  /// Free every slot. Serials keep counting, so every handle issued so
  /// far stays stale even once its slot is handed out again.
  void clear();

  /// The live slot `handle` names, or kNil if the handle is stale.
  [[nodiscard]] std::uint32_t slot_of(BlockHandle handle) const noexcept {
    const auto k = static_cast<std::uint32_t>(
        handle & ((BlockHandle{1} << kSlotBits) - 1));
    const std::uint64_t serial = handle >> kSlotBits;
    if (k >= slots_.size() || serial == 0 || slots_[k].serial != serial) {
      return kNil;
    }
    return k;
  }
  [[nodiscard]] BlockHandle handle(std::uint32_t k) const noexcept {
    return (slots_[k].serial << kSlotBits) | k;
  }

  [[nodiscard]] const Slot& slot(std::uint32_t k) const { return slots_[k]; }
  [[nodiscard]] Slot& slot(std::uint32_t k) { return slots_[k]; }
  [[nodiscard]] std::span<const gf::Element> coefficients(
      std::uint32_t k) const {
    return {coeffs_.data() + std::size_t{k} * s_, s_};
  }

 private:
  std::size_t s_;
  std::vector<Slot> slots_;
  std::vector<gf::Element> coeffs_;  ///< slot k's row at k*s
  std::vector<std::uint32_t> free_;
  std::uint64_t next_serial_ = 1;
};

class SegmentBuffer {
 public:
  /// An empty buffer of segment `id` over `slab`, which must outlive it
  /// and stay at the same address.
  SegmentBuffer(SegmentId id, BlockSlab& slab) : id_{id}, slab_{&slab} {}

  [[nodiscard]] const SegmentId& id() const noexcept { return id_; }
  [[nodiscard]] std::size_t segment_size() const noexcept {
    return slab_->segment_size();
  }

  /// Number of stored blocks (the segment's edge multiplicity at this
  /// peer in the bipartite-graph view).
  [[nodiscard]] std::size_t block_count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Rank of the stored coefficient vectors (<= min(block_count, s)).
  [[nodiscard]] std::size_t rank() const;

  /// True if the peer already holds s linearly independent blocks of
  /// this segment — the gossip rule excludes such peers as receivers.
  [[nodiscard]] bool full_rank() const { return rank() == segment_size(); }

  /// Link slab slot `k` as this segment's newest block.
  /// Precondition: the slot holds a block of this segment.
  void add(std::uint32_t k);

  /// Unlink slab slot `k`, one of this segment's blocks; the caller
  /// frees the slot.
  void remove(std::uint32_t k);

  /// Produce a re-coded block: a uniformly random GF(2^8) combination of
  /// all stored blocks (degenerate all-zero draws are redrawn).
  /// Precondition: !empty().
  [[nodiscard]] CodedBlock recode(common::Rng& rng) const;

  /// recode() into a caller-owned block, reusing its buffers: once
  /// `out`'s vectors have grown to size, repeated calls allocate
  /// nothing — this is what keeps the server pull-and-decode loop
  /// malloc-free. Draws the same RNG stream as recode().
  void recode_into(CodedBlock& out, common::Rng& rng) const;

  /// Handles of all stored blocks, oldest first.
  [[nodiscard]] std::vector<BlockHandle> handles() const;

  /// Visit every stored block (read-only), oldest first, as
  /// fn(coefficients, payload) — e.g. for network-wide rank censuses.
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    for (std::uint32_t k = head_; k != BlockSlab::kNil;
         k = slab_->slot(k).next) {
      fn(slab_->coefficients(k),
         std::span<const std::uint8_t>{slab_->slot(k).payload});
    }
  }

 private:
  /// Reduce one block's coefficients against the basis; a nonzero
  /// remainder joins it as the row of its leading column.
  /// Precondition: rank_ < s.
  void absorb(std::span<const gf::Element> coeffs) const;

  SegmentId id_;
  BlockSlab* slab_;
  // Echelon basis (see the file comment): s*s bytes, null until first
  // needed. A pointer and 32-bit counts keep the buffer small:
  // PeerBuffer shifts its SegmentBuffers when a segment leaves.
  mutable std::unique_ptr<gf::Element[]> basis_;
  std::uint32_t count_ = 0;
  std::uint32_t head_ = BlockSlab::kNil;  ///< oldest block's slot
  std::uint32_t tail_ = BlockSlab::kNil;  ///< newest block's slot
  /// Last block in basis_, kNil when the basis is empty or reset.
  mutable std::uint32_t absorbed_ = BlockSlab::kNil;
  mutable std::uint32_t rank_ = 0;  ///< rank of the absorbed prefix
};

}  // namespace icollect::coding
