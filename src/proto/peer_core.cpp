#include "proto/peer_core.h"

#include <utility>

#include "common/crc32.h"

namespace icollect::proto {

PeerCore::PeerCore(const Params& params, coding::OriginId origin,
                   common::Rng& rng)
    : params_{params}, origin_{origin}, rng_{rng},
      buffer_{params.buffer_cap} {
  ICOLLECT_EXPECTS(params.segment_size > 0);
  ICOLLECT_EXPECTS(params.buffer_cap >= params.segment_size);
  ICOLLECT_EXPECTS(params.gamma > 0.0);
}

PeerCore::Injected PeerCore::inject() {
  ICOLLECT_EXPECTS(can_inject());
  ICOLLECT_EXPECTS(arm_ttl_ != nullptr);
  const std::size_t s = params_.segment_size;
  const coding::SegmentId id{origin_, next_seq_++};

  // Draw every original payload before any block is stored: both
  // drivers always produced payloads first, TTL draws second, so the
  // shared stream order is payloads, then s lifetimes.
  std::vector<std::vector<std::uint8_t>> originals;
  std::vector<std::uint32_t> crcs;
  if (params_.payload_bytes > 0) {
    if (payload_source_) {
      originals = payload_source_(id, s, params_.payload_bytes);
      ICOLLECT_ENSURES(originals.size() == s);
      for (const auto& b : originals) {
        ICOLLECT_ENSURES(b.size() == params_.payload_bytes);
      }
    } else {
      originals.resize(s);
      for (auto& b : originals) {
        b.resize(params_.payload_bytes);
        rng_.fill_gf(b);
      }
    }
    crcs.reserve(s);
    for (const auto& b : originals) crcs.push_back(common::crc32(b));
  } else {
    originals.assign(s, {});
  }
  if (params_.record_own_crcs && !crcs.empty()) own_crcs_.emplace(id, crcs);
  // Tags must exist before any block of the segment circulates — the
  // systematic self-stores below already fire driver hooks that may
  // gossip. (Registration requires payloads; set_integrity enforces it.)
  if (integrity_ != nullptr) integrity_->register_segment(id, originals);

  // The source seeds its own buffer with the s systematic blocks —
  // "s new edges are added to each peer ... together with a new segment
  // incident to these s edges" (Sec. 3). Under retention they are
  // pinned until the first ACK: the segment keeps rank s, so the buffer
  // itself is its encoder (a recode of s independent blocks is uniform
  // over GF(2^8)^s \ {0}, like a fresh encode) and accept() refuses
  // relayed copies of it.
  const bool pin = params_.retain_own_until_acked;
  for (std::size_t k = 0; k < s; ++k) {
    auto block =
        coding::CodedBlock::systematic(id, s, k, std::move(originals[k]));
    if (!pin) {
      store(std::move(block));
      continue;
    }
    const std::size_t before = buffer_.size();
    buffer_.insert(std::move(block));
    if (stored_) stored_(id, before);
  }
  if (pin) ++retained_;
  return Injected{id, std::move(crcs)};
}

const coding::SegmentId& PeerCore::choose_gossip_segment() {
  ICOLLECT_EXPECTS(!buffer_.empty());
  switch (params_.gossip_policy) {
    case GossipPolicy::kUniformSegment:
      return buffer_.random_segment(rng_);
    case GossipPolicy::kNewestFirst:
      return buffer_.newest_segment();
    case GossipPolicy::kRarestFirst:
      return buffer_.rarest_segment();
  }
  return buffer_.random_segment(rng_);  // unreachable
}

coding::CodedBlock PeerCore::recode(const coding::SegmentId& seg) {
  const coding::SegmentBuffer* sb = buffer_.find(seg);
  ICOLLECT_EXPECTS(sb != nullptr && !sb->empty());
  return sb->recode(rng_);
}

void PeerCore::recode_into(const coding::SegmentId& seg,
                           coding::CodedBlock& out) {
  const coding::SegmentBuffer* sb = buffer_.find(seg);
  ICOLLECT_EXPECTS(sb != nullptr && !sb->empty());
  sb->recode_into(out, rng_);
}

PeerCore::AcceptResult PeerCore::accept(coding::CodedBlock&& block) {
  if (block.segment_size() != params_.segment_size ||
      block.is_degenerate()) {
    // Shape mismatch slipped past the handshake, or a degenerate block
    // an honest encoder never emits — junk either way.
    return AcceptResult::kShapeMismatch;
  }
  if (integrity_ != nullptr &&
      integrity_->verify(block) != VerifyResult::kOk) {
    // Quarantine BEFORE any storage decision: a polluted block must
    // never enter the buffer where re-coding would spread it.
    return AcceptResult::kPolluted;
  }
  if (params_.drop_on_ack && acked_.contains(block.segment)) {
    return AcceptResult::kAckedSegment;
  }
  if (buffer_.full()) return AcceptResult::kBufferFull;
  if (const coding::SegmentBuffer* sb = buffer_.find(block.segment);
      sb != nullptr && sb->full_rank()) {
    return AcceptResult::kSegmentFullRank;
  }
  store(std::move(block));
  return AcceptResult::kStored;
}

coding::BlockHandle PeerCore::store(coding::CodedBlock block) {
  ICOLLECT_EXPECTS(arm_ttl_ != nullptr);
  const std::size_t before = buffer_.size();
  const coding::SegmentId seg = block.segment;
  const coding::BlockHandle handle = buffer_.insert(std::move(block));
  if (stored_) stored_(seg, before);
  arm_ttl_(handle, rng_.exponential(params_.gamma));
  return handle;
}

bool PeerCore::answer_pull(coding::CodedBlock& out) {
  if (buffer_.empty()) return false;
  recode_into(choose_pull_segment(), out);
  return true;
}

bool PeerCore::answer_pull_for(const coding::SegmentId& seg,
                               coding::CodedBlock& out) {
  const coding::SegmentBuffer* sb = buffer_.find(seg);
  if (sb == nullptr || sb->empty()) return false;
  sb->recode_into(out, rng_);
  return true;
}

PeerCore::EgressResult PeerCore::corrupt_egress(coding::CodedBlock& block) {
  if (!params_.byzantine) return EgressResult::kHonest;
  switch (params_.corruption) {
    case CorruptionStrategy::kRandomPayload:
      // Honest coding vector, scrambled data: the classic pollution
      // attack. Undetectable without a payload-aware check; with one,
      // caught w.p. 1 - 256^-checks.
      rng_.fill_gf(block.payload);
      break;
    case CorruptionStrategy::kGarbageCoefficients:
      // Honest payload, scrambled header: frames and transport CRCs all
      // pass; only the coupled (c, p) relation exposes it. Kept
      // non-degenerate so the junk filter honest peers already run
      // cannot catch it trivially.
      rng_.fill_gf(block.coefficients);
      if (block.is_degenerate()) {
        block.coefficients.front() = rng_.gf_nonzero();
      }
      break;
    case CorruptionStrategy::kReplay:
      // Resend the first block this occupant genuinely produced: valid
      // by construction, so it passes every per-block check and is
      // measured as redundancy instead.
      if (!replay_cache_) {
        replay_cache_ = block;
        return EgressResult::kReplayCached;
      }
      block = *replay_cache_;
      break;
  }
  return EgressResult::kCorrupted;
}

std::optional<coding::SegmentId> PeerCore::on_ttl_expired(
    coding::BlockHandle handle) {
  return buffer_.erase(handle);
}

PeerCore::AckResult PeerCore::on_ack(const coding::SegmentId& id) {
  const bool own = is_own(id);
  if (!own && !params_.drop_on_ack) return AckResult::kOtherSegment;
  if (!acked_.insert(id).second) return AckResult::kDuplicate;
  const bool pinned = own && params_.retain_own_until_acked;
  if (pinned) --retained_;  // delivery guaranteed; release the originals
  if (coding::SegmentBuffer* sb = buffer_.find(id); sb != nullptr) {
    if (params_.drop_on_ack) {
      for (const coding::BlockHandle h : sb->handles()) buffer_.erase(h);
    } else if (pinned) {
      // Arming fresh Exp(γ) lifetimes now is exact in distribution: a
      // block's residual lifetime is memoryless.
      for (const coding::BlockHandle h : sb->handles()) {
        arm_ttl_(h, rng_.exponential(params_.gamma));
      }
    }
  }
  return own ? AckResult::kOwnSegment : AckResult::kOtherSegment;
}

void PeerCore::rebirth(coding::OriginId new_origin) {
  origin_ = new_origin;
  next_seq_ = 0;
  // The fresh occupant shares nothing with its predecessor.
  acked_.clear();
  own_crcs_.clear();
  retained_ = 0;
  replay_cache_.reset();
}

const std::vector<std::uint32_t>* PeerCore::original_crcs(
    const coding::SegmentId& id) const {
  const auto it = own_crcs_.find(id);
  return it == own_crcs_.end() ? nullptr : &it->second;
}

}  // namespace icollect::proto
