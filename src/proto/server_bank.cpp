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
    // Retire the decoder before the callback, which may re-enter the
    // bank (the simulator's ACK path forgets the resolved segment).
    auto node = decoders_.extract(it);
    const coding::Decoder& decoder = node.mapped();
    original_blocks_ += decoder.segment_size();
    if (on_decode_) {
      on_decode_(DecodeEvent{id, decoder.segment_size(), now, &decoder});
    }
    if (keep_payloads_ && decoder.payload_size() > 0) {
      payloads_.emplace(id, decoder.originals());
    }
    decoded_.emplace(id, decoder.segment_size());
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
  const std::size_t state = ++counters_[id];
  ++innovative_;
  if (state >= segment_size) {
    counters_.erase(id);  // before the callback, as in offer()
    original_blocks_ += segment_size;
    if (on_decode_) {
      on_decode_(DecodeEvent{id, segment_size, now, nullptr});
    }
    decoded_.emplace(id, segment_size);
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
