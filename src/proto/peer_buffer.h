#pragma once

/// \file peer_buffer.h
/// A peer's bounded buffer of coded blocks organized by segment — the
/// storage half of the protocol core, shared verbatim by the simulator
/// and the live runtime.
///
/// The buffer realizes the paper's storage rules (Sec. 2): capacity cap
/// of B blocks ("if a peer's buffer is full, it will not accept blocks
/// from its neighbors"), per-block TTL handled by the driver through
/// stable BlockHandles, and uniform random segment selection for both
/// gossip ("chooses a segment r u.a.r. from among all the segments of
/// which it has at least one (coded) block") and server pulls.
///
/// Layout: no hashing. The buffered segment ids form one flat list with
/// a parallel vector of {SegmentBuffer, first-arrival seq}; a segment is
/// appended on its first block and swap-popped on its last, and found by
/// a linear scan — the list holds at most B ids. Handles are allocated
/// here: each packs a slot of a per-buffer handle table (slot → segment)
/// with a serial that is never reused, so a stale handle (after erase,
/// clear, or an eviction) is recognised in O(1).

#include <cstdint>
#include <optional>
#include <vector>

#include "coding/coded_block.h"
#include "coding/segment_buffer.h"
#include "coding/segment_id.h"
#include "common/assert.h"
#include "common/rng.h"

namespace icollect::proto {

class PeerBuffer {
 public:
  /// Precondition: 0 < capacity <= 2^24 (a handle's slot field).
  explicit PeerBuffer(std::size_t capacity) : cap_{capacity} {
    ICOLLECT_EXPECTS(capacity > 0);
    ICOLLECT_EXPECTS(capacity <= (std::size_t{1} << kSlotBits));
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  /// Total blocks currently buffered (the peer's bipartite degree).
  [[nodiscard]] std::size_t size() const noexcept { return total_blocks_; }
  [[nodiscard]] bool empty() const noexcept { return total_blocks_ == 0; }
  [[nodiscard]] bool full() const noexcept { return total_blocks_ >= cap_; }
  [[nodiscard]] bool has_room(std::size_t n) const noexcept {
    return total_blocks_ + n <= cap_;
  }

  /// Number of distinct segments with at least one buffered block.
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return segment_list_.size();
  }

  /// Insert a block; returns its handle, unique over the buffer's
  /// lifetime. Precondition: has_room(1).
  coding::BlockHandle insert(coding::CodedBlock block);

  /// Remove the block with this handle (TTL expiry). Returns the id of
  /// the segment it belonged to, or nullopt if the handle is stale.
  std::optional<coding::SegmentId> erase(coding::BlockHandle handle);

  /// The per-segment store, or nullptr if no block of that segment. The
  /// pointer is invalidated by any insert or erase.
  [[nodiscard]] const coding::SegmentBuffer* find(
      const coding::SegmentId& id) const;
  [[nodiscard]] coding::SegmentBuffer* find(const coding::SegmentId& id);

  /// Uniformly random buffered segment. Precondition: !empty().
  [[nodiscard]] const coding::SegmentId& random_segment(
      common::Rng& rng) const {
    ICOLLECT_EXPECTS(!segment_list_.empty());
    return segment_list_[rng.uniform_index(segment_list_.size())];
  }

  /// The buffered segment this peer most recently saw for the first
  /// time (newest-first gossip). Precondition: !empty().
  [[nodiscard]] const coding::SegmentId& newest_segment() const;

  /// The buffered segment this peer saw first, of those it still holds
  /// (oldest-first pulls: a FIFO report queue). Precondition: !empty().
  [[nodiscard]] const coding::SegmentId& oldest_segment() const;

  /// The buffered segment with the fewest local blocks, ties broken by
  /// recency (rarest-first gossip). Precondition: !empty().
  [[nodiscard]] const coding::SegmentId& rarest_segment() const;

  /// All buffered segment ids: first arrivals append, a segment's last
  /// block leaving swap-pops it.
  [[nodiscard]] const std::vector<coding::SegmentId>& segments()
      const noexcept {
    return segment_list_;
  }

  /// Drop everything (peer departure); every outstanding handle goes
  /// stale. Returns the number of blocks lost.
  std::size_t clear();

 private:
  /// Handle-table slots take the low kSlotBits bits of a handle; the
  /// serial takes the rest.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  struct Entry {
    coding::SegmentBuffer blocks;
    std::uint64_t arrival_seq;  ///< first arrival, monotonic per buffer
  };
  struct HandleSlot {
    coding::SegmentId segment;
    std::uint64_t serial = 0;  ///< of the live handle; 0 while free
  };

  [[nodiscard]] std::size_t index_of(const coding::SegmentId& id) const;
  void drop_segment_at(std::size_t pos);

  std::size_t cap_;
  std::size_t total_blocks_ = 0;
  // Indexable list of buffered segment ids for O(1) uniform selection,
  // and the per-segment stores at the same positions.
  std::vector<coding::SegmentId> segment_list_;
  std::vector<Entry> entries_;
  std::uint64_t next_arrival_seq_ = 0;
  std::vector<HandleSlot> handles_;
  std::vector<std::uint32_t> free_handles_;
  std::uint64_t next_serial_ = 1;
};

}  // namespace icollect::proto
