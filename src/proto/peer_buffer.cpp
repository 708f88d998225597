#include "proto/peer_buffer.h"

#include <utility>

namespace icollect::proto {

coding::BlockHandle PeerBuffer::insert(coding::CodedBlock block) {
  ICOLLECT_EXPECTS(has_room(1));
  const coding::SegmentId id = block.segment;
  // The slab checks the block's shape before it takes anything, so a
  // rejected block leaves the buffer untouched.
  const std::uint32_t k = slab_->acquire(std::move(block));
  if (const std::size_t pos = index_of(id); pos != kNotFound) {
    entries_[pos].blocks.add(k);
  } else {
    entries_.push_back(
        Entry{coding::SegmentBuffer{id, *slab_}, next_arrival_seq_++});
    entries_.back().blocks.add(k);
    segment_list_.push_back(id);
  }
  ++total_blocks_;
  return slab_->handle(k);
}

std::optional<coding::SegmentId> PeerBuffer::erase(
    coding::BlockHandle handle) {
  const std::uint32_t k = slab_->slot_of(handle);
  if (k == coding::BlockSlab::kNil) return std::nullopt;
  const coding::SegmentId id = slab_->slot(k).segment;
  const std::size_t pos = index_of(id);
  ICOLLECT_ENSURES(pos != kNotFound);
  coding::SegmentBuffer& sb = entries_[pos].blocks;
  sb.remove(k);
  slab_->release(k);
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
  slab_->clear();
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
