#include "coding/segment_buffer.h"

#include <algorithm>
#include <utility>

#include "gf/gf_vector.h"

namespace icollect::coding {

std::uint32_t BlockSlab::acquire(CodedBlock&& block) {
  ICOLLECT_EXPECTS(block.coefficients.size() == s_);
  ICOLLECT_EXPECTS(!block.is_degenerate());
  std::uint32_t k = 0;
  if (free_.empty()) {
    ICOLLECT_EXPECTS(slots_.size() < (std::size_t{1} << kSlotBits));
    k = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    coeffs_.resize(slots_.size() * s_);
    // Every slot can be free at once: sized with the table, the free
    // list never grows past the table's high-water mark.
    free_.reserve(slots_.capacity());
  } else {
    k = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[k];
  slot.segment = block.segment;
  slot.prev = kNil;
  slot.next = kNil;
  slot.serial = next_serial_++;
  slot.payload = std::move(block.payload);
  std::copy(block.coefficients.begin(), block.coefficients.end(),
            coeffs_.begin() + static_cast<std::ptrdiff_t>(k * s_));
  return k;
}

void BlockSlab::release(std::uint32_t k) {
  Slot& slot = slots_[k];
  slot.serial = 0;
  // Give the buffer back: a kept capacity would pin a payload's worth
  // of memory per slot at the high-water mark.
  std::vector<std::uint8_t>{}.swap(slot.payload);
  free_.push_back(k);
}

void BlockSlab::clear() {
  slots_.clear();
  coeffs_.clear();
  free_.clear();
}

std::size_t SegmentBuffer::rank() const {
  // A stored block is never degenerate, so one block has rank 1.
  if (count_ < 2) return count_;
  const std::size_t s = segment_size();
  if (basis_ == nullptr) {
    basis_ = std::make_unique_for_overwrite<gf::Element[]>(s * s);
  }
  std::uint32_t k = head_;
  if (absorbed_ == BlockSlab::kNil) {
    // Fresh, or reset by remove(): clearing the diagonal empties the
    // basis, since a row is present iff its diagonal byte is nonzero.
    for (std::size_t p = 0; p < s; ++p) basis_[p * s + p] = 0;
    rank_ = 0;
  } else {
    k = slab_->slot(absorbed_).next;
  }
  while (k != BlockSlab::kNil && rank_ < s) {
    absorb(slab_->coefficients(k));
    absorbed_ = k;
    k = slab_->slot(k).next;
  }
  return rank_;
}

void SegmentBuffer::absorb(std::span<const gf::Element> coeffs) const {
  const std::size_t s = segment_size();
  // Reduce in the first absent row: every row above it is present, so
  // the remainder's leading column is this row's or a later one.
  std::size_t free = 0;
  while (basis_[free * s + free] != 0) ++free;
  const std::span<gf::Element> row{basis_.get() + free * s, s};
  std::copy(coeffs.begin(), coeffs.end(), row.begin());
  for (std::size_t p = 0; p < s; ++p) {
    const gf::Element f = row[p];
    if (f == 0) continue;
    if (p != free && basis_[p * s + p] != 0) {
      gf::add_scaled(row, {basis_.get() + p * s, s}, f);
      continue;
    }
    // Leading column p has no basis row: the remainder becomes it. Row
    // `free` keeps a zero diagonal if the remainder moves further down.
    gf::scale_assign(row, gf::GF256::inv(f));
    if (p != free) std::copy(row.begin(), row.end(), basis_.get() + p * s);
    ++rank_;
    return;
  }
}

void SegmentBuffer::add(std::uint32_t k) {
  BlockSlab::Slot& slot = slab_->slot(k);
  ICOLLECT_EXPECTS(slot.segment == id_);
  slot.prev = tail_;
  slot.next = BlockSlab::kNil;
  if (tail_ == BlockSlab::kNil) {
    head_ = k;
  } else {
    slab_->slot(tail_).next = k;
  }
  tail_ = k;
  ++count_;
}

void SegmentBuffer::remove(std::uint32_t k) {
  ICOLLECT_EXPECTS(count_ > 0);
  const BlockSlab::Slot& slot = slab_->slot(k);
  ICOLLECT_EXPECTS(slot.segment == id_);
  if (slot.prev == BlockSlab::kNil) {
    head_ = slot.next;
  } else {
    slab_->slot(slot.prev).next = slot.next;
  }
  if (slot.next == BlockSlab::kNil) {
    tail_ = slot.prev;
  } else {
    slab_->slot(slot.next).prev = slot.prev;
  }
  --count_;
  absorbed_ = BlockSlab::kNil;
}

CodedBlock SegmentBuffer::recode(common::Rng& rng) const {
  CodedBlock out;
  recode_into(out, rng);
  return out;
}

void SegmentBuffer::recode_into(CodedBlock& out, common::Rng& rng) const {
  ICOLLECT_EXPECTS(count_ > 0);
  const std::size_t payload_size = slab_->slot(head_).payload.size();
  out.segment = id_;
  do {
    out.coefficients.assign(segment_size(), gf::Element{0});
    out.payload.assign(payload_size, 0);
    for (std::uint32_t k = head_; k != BlockSlab::kNil;
         k = slab_->slot(k).next) {
      const gf::Element c = rng.gf_element();
      if (c == 0) continue;
      gf::add_scaled(out.coefficients, slab_->coefficients(k), c);
      if (payload_size > 0) {
        gf::add_scaled(out.payload, slab_->slot(k).payload, c);
      }
    }
  } while (out.is_degenerate());
}

std::vector<BlockHandle> SegmentBuffer::handles() const {
  std::vector<BlockHandle> out;
  out.reserve(count_);
  for (std::uint32_t k = head_; k != BlockSlab::kNil;
       k = slab_->slot(k).next) {
    out.push_back(slab_->handle(k));
  }
  return out;
}

}  // namespace icollect::coding
