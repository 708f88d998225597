#include "proto/peer_buffer.h"

#include <utility>

namespace icollect::proto {

coding::BlockHandle PeerBuffer::insert(coding::CodedBlock block) {
  ICOLLECT_EXPECTS(has_room(1));
  const coding::SegmentId id = block.segment;
  const std::uint32_t slot =
      free_handles_.empty() ? static_cast<std::uint32_t>(handles_.size())
                            : free_handles_.back();
  const std::uint64_t serial = next_serial_;
  const coding::BlockHandle handle = (serial << kSlotBits) | slot;
  // Add the block before committing any bookkeeping, so a block the
  // SegmentBuffer rejects leaves the buffer untouched.
  if (const std::size_t pos = index_of(id); pos != kNotFound) {
    entries_[pos].blocks.add(handle, std::move(block));
  } else {
    coding::SegmentBuffer fresh{id, block.coefficients.size()};
    fresh.add(handle, std::move(block));
    entries_.push_back(Entry{std::move(fresh), next_arrival_seq_++});
    segment_list_.push_back(id);
  }
  if (free_handles_.empty()) {
    handles_.emplace_back();
  } else {
    free_handles_.pop_back();
  }
  handles_[slot] = HandleSlot{id, serial};
  ++next_serial_;
  ++total_blocks_;
  return handle;
}

std::optional<coding::SegmentId> PeerBuffer::erase(
    coding::BlockHandle handle) {
  const auto slot = static_cast<std::uint32_t>(
      handle & ((coding::BlockHandle{1} << kSlotBits) - 1));
  const std::uint64_t serial = handle >> kSlotBits;
  if (slot >= handles_.size() || serial == 0 ||
      handles_[slot].serial != serial) {
    return std::nullopt;
  }
  const coding::SegmentId id = handles_[slot].segment;
  handles_[slot].serial = 0;
  free_handles_.push_back(slot);
  const std::size_t pos = index_of(id);
  ICOLLECT_ENSURES(pos != kNotFound);
  coding::SegmentBuffer& sb = entries_[pos].blocks;
  const bool removed = sb.remove(handle);
  ICOLLECT_ENSURES(removed);
  --total_blocks_;
  if (sb.empty()) drop_segment_at(pos);
  return id;
}

const coding::SegmentId& PeerBuffer::newest_segment() const {
  ICOLLECT_EXPECTS(!segment_list_.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].arrival_seq > entries_[best].arrival_seq) best = i;
  }
  return segment_list_[best];
}

const coding::SegmentId& PeerBuffer::oldest_segment() const {
  ICOLLECT_EXPECTS(!segment_list_.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].arrival_seq < entries_[best].arrival_seq) best = i;
  }
  return segment_list_[best];
}

const coding::SegmentId& PeerBuffer::rarest_segment() const {
  ICOLLECT_EXPECTS(!segment_list_.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    const std::size_t count = entries_[i].blocks.block_count();
    const std::size_t best_count = entries_[best].blocks.block_count();
    if (count < best_count ||
        (count == best_count &&
         entries_[i].arrival_seq > entries_[best].arrival_seq)) {
      best = i;
    }
  }
  return segment_list_[best];
}

const coding::SegmentBuffer* PeerBuffer::find(
    const coding::SegmentId& id) const {
  const std::size_t pos = index_of(id);
  return pos == kNotFound ? nullptr : &entries_[pos].blocks;
}

coding::SegmentBuffer* PeerBuffer::find(const coding::SegmentId& id) {
  const std::size_t pos = index_of(id);
  return pos == kNotFound ? nullptr : &entries_[pos].blocks;
}

std::size_t PeerBuffer::clear() {
  const std::size_t lost = total_blocks_;
  segment_list_.clear();
  entries_.clear();
  // Serials keep counting, so every handle issued so far stays stale
  // even once its slot is handed out again.
  handles_.clear();
  free_handles_.clear();
  total_blocks_ = 0;
  return lost;
}

std::size_t PeerBuffer::index_of(const coding::SegmentId& id) const {
  for (std::size_t i = 0; i < segment_list_.size(); ++i) {
    if (segment_list_[i] == id) return i;
  }
  return kNotFound;
}

void PeerBuffer::drop_segment_at(std::size_t pos) {
  const std::size_t last = segment_list_.size() - 1;
  if (pos != last) {
    segment_list_[pos] = segment_list_[last];
    entries_[pos] = std::move(entries_[last]);
  }
  segment_list_.pop_back();
  entries_.pop_back();
}

}  // namespace icollect::proto
