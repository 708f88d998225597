#include "proto/server_bank.h"

#include "common/crc32.h"

namespace icollect::proto {

std::size_t ServerBank::DecodeEvent::crc_mismatches(
    std::span<const std::uint32_t> crcs) const {
  if (decoder == nullptr) return 0;
  ICOLLECT_EXPECTS(crcs.size() <= segment_size);
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < crcs.size(); ++k) {
    if (common::crc32(decoder->original(k)) != crcs[k]) ++mismatches;
  }
  return mismatches;
}

ServerBank::PullResult ServerBank::offer(const coding::CodedBlock& block,
                                         double now) {
  ++pulls_;
  const coding::SegmentId id = block.segment;
  if (decoded_.contains(id)) {
    ++redundant_;
    return PullResult::kAlreadyDecoded;
  }
  auto it = decoders_.find(id);
  if (it == decoders_.end()) {
    it = decoders_
             .emplace(id, coding::Decoder{id, block.segment_size(),
                                          block.payload.size()})
             .first;
  }
  const bool innovative = it->second.add(block);
  if (!innovative) {
    ++redundant_;
    return PullResult::kRedundant;
  }
  ++innovative_;
  if (it->second.complete()) {
    original_blocks_ += it->second.segment_size();
    if (on_decode_) {
      on_decode_(DecodeEvent{id, it->second.segment_size(), now,
                             &it->second});
    }
    if (keep_payloads_ && it->second.payload_size() > 0) {
      payloads_.emplace(id, it->second.originals());
    }
    decoded_.emplace(id, it->second.segment_size());
    decoders_.erase(it);
  }
  return PullResult::kInnovative;
}

ServerBank::PullResult ServerBank::offer_counted(
    const coding::SegmentId& id, std::size_t segment_size, double now) {
  ICOLLECT_EXPECTS(segment_size > 0);
  ++pulls_;
  if (decoded_.contains(id)) {
    ++redundant_;
    return PullResult::kAlreadyDecoded;
  }
  std::size_t& state = counters_[id];
  ++state;
  ++innovative_;
  if (state >= segment_size) {
    original_blocks_ += segment_size;
    if (on_decode_) {
      on_decode_(DecodeEvent{id, segment_size, now, nullptr});
    }
    decoded_.emplace(id, segment_size);
    counters_.erase(id);
  }
  return PullResult::kInnovative;
}

void ServerBank::forget(const coding::SegmentId& id) {
  decoders_.erase(id);
  counters_.erase(id);
}

std::size_t ServerBank::state(const coding::SegmentId& id) const {
  const auto dit = decoded_.find(id);
  if (dit != decoded_.end()) return dit->second;  // final state: s
  const auto cit = counters_.find(id);
  if (cit != counters_.end()) return cit->second;
  const auto it = decoders_.find(id);
  return it == decoders_.end() ? 0 : it->second.rank();
}

const std::vector<std::vector<std::uint8_t>>* ServerBank::originals(
    const coding::SegmentId& id) const {
  const auto it = payloads_.find(id);
  return it == payloads_.end() ? nullptr : &it->second;
}

}  // namespace icollect::proto
