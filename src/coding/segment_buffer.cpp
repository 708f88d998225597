#include "coding/segment_buffer.h"

#include <algorithm>
#include <utility>

#include "gf/gf_vector.h"

namespace icollect::coding {

SegmentBuffer::SegmentBuffer(SegmentId id, std::size_t segment_size)
    : id_{id}, s_{segment_size} {
  ICOLLECT_EXPECTS(segment_size > 0);
}

std::size_t SegmentBuffer::rank() const {
  // A stored block is never degenerate, so one block has rank 1.
  if (blocks_.size() < 2) return blocks_.size();
  if (basis_ == nullptr) {
    basis_ = std::make_unique_for_overwrite<gf::Element[]>(s_ * s_);
  }
  if (absorbed_ == 0) {
    // Fresh, or reset by remove(): clearing the diagonal empties the
    // basis, since a row is present iff its diagonal byte is nonzero.
    for (std::size_t p = 0; p < s_; ++p) basis_[p * s_ + p] = 0;
    rank_ = 0;
  }
  while (absorbed_ < blocks_.size() && rank_ < s_) {
    absorb(blocks_[absorbed_++].block.coefficients);
  }
  return rank_;
}

void SegmentBuffer::absorb(std::span<const gf::Element> coeffs) const {
  // Reduce in the first absent row: every row above it is present, so
  // the remainder's leading column is this row's or a later one.
  std::size_t free = 0;
  while (basis_[free * s_ + free] != 0) ++free;
  const std::span<gf::Element> row{basis_.get() + free * s_, s_};
  std::copy(coeffs.begin(), coeffs.end(), row.begin());
  for (std::size_t p = 0; p < s_; ++p) {
    const gf::Element f = row[p];
    if (f == 0) continue;
    if (p != free && basis_[p * s_ + p] != 0) {
      gf::add_scaled(row, {basis_.get() + p * s_, s_}, f);
      continue;
    }
    // Leading column p has no basis row: the remainder becomes it. Row
    // `free` keeps a zero diagonal if the remainder moves further down.
    gf::scale_assign(row, gf::GF256::inv(f));
    if (p != free) std::copy(row.begin(), row.end(), basis_.get() + p * s_);
    ++rank_;
    return;
  }
}

void SegmentBuffer::add(BlockHandle handle, CodedBlock block) {
  ICOLLECT_EXPECTS(block.segment == id_);
  ICOLLECT_EXPECTS(block.coefficients.size() == s_);
  ICOLLECT_EXPECTS(!block.is_degenerate());
  blocks_.push_back(Stored{handle, std::move(block)});
}

bool SegmentBuffer::remove(BlockHandle handle) {
  const auto it =
      std::find_if(blocks_.begin(), blocks_.end(),
                   [handle](const Stored& s) { return s.handle == handle; });
  if (it == blocks_.end()) return false;
  blocks_.erase(it);
  absorbed_ = 0;
  return true;
}

CodedBlock SegmentBuffer::recode(common::Rng& rng) const {
  CodedBlock out;
  recode_into(out, rng);
  return out;
}

void SegmentBuffer::recode_into(CodedBlock& out, common::Rng& rng) const {
  ICOLLECT_EXPECTS(!blocks_.empty());
  const std::size_t payload_size = blocks_.front().block.payload.size();
  out.segment = id_;
  do {
    out.coefficients.assign(s_, gf::Element{0});
    out.payload.assign(payload_size, 0);
    for (const auto& st : blocks_) {
      const gf::Element c = rng.gf_element();
      if (c == 0) continue;
      gf::add_scaled(out.coefficients, st.block.coefficients, c);
      if (payload_size > 0) {
        gf::add_scaled(out.payload, st.block.payload, c);
      }
    }
  } while (out.is_degenerate());
}

std::vector<BlockHandle> SegmentBuffer::handles() const {
  std::vector<BlockHandle> out;
  out.reserve(blocks_.size());
  for (const auto& st : blocks_) out.push_back(st.handle);
  return out;
}

}  // namespace icollect::coding
