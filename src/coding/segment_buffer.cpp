#include "coding/segment_buffer.h"

#include <algorithm>
#include <utility>

#include "coding/decoder.h"
#include "gf/gf_vector.h"

namespace icollect::coding {

SegmentBuffer::SegmentBuffer(SegmentId id, std::size_t segment_size)
    : id_{id}, s_{segment_size} {
  ICOLLECT_EXPECTS(segment_size > 0);
}

std::size_t SegmentBuffer::rank() const {
  if (cached_rank_) return *cached_rank_;
  // Rank of the coefficient rows via a throwaway progressive decoder —
  // block counts per segment are small (O(s)), so this stays cheap.
  Decoder probe{id_, s_, 0};
  for (const auto& st : blocks_) {
    CodedBlock coeff_only;
    coeff_only.segment = id_;
    coeff_only.coefficients = st.block.coefficients;
    probe.add(coeff_only);
    if (probe.complete()) break;
  }
  cached_rank_ = probe.rank();
  return *cached_rank_;
}

void SegmentBuffer::add(BlockHandle handle, CodedBlock block) {
  ICOLLECT_EXPECTS(block.segment == id_);
  ICOLLECT_EXPECTS(block.coefficients.size() == s_);
  ICOLLECT_EXPECTS(!block.is_degenerate());
  blocks_.push_back(Stored{handle, std::move(block)});
  cached_rank_.reset();
}

bool SegmentBuffer::remove(BlockHandle handle) {
  const auto it =
      std::find_if(blocks_.begin(), blocks_.end(),
                   [handle](const Stored& s) { return s.handle == handle; });
  if (it == blocks_.end()) return false;
  blocks_.erase(it);
  cached_rank_.reset();
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
