#pragma once

/// \file server_core.h
/// The server half of the Sec. 2 protocol as a driver-agnostic state
/// machine: a ServerBank plus the decisions around it — how an incoming
/// block is accounted (demanded pull vs. sibling forward) and whether a
/// pulled block is worth forwarding to the other servers.
///
/// Time is injected as an obs::ClockSource so decode events carry the
/// driver's time base without the core knowing whether "now" is the
/// simulator's virtual clock, a loopback hub, or the wall clock. The
/// *choice* of which peer to pull from stays with the driver: it owns
/// the candidate set (exact non-empty slots in the simulator, an
/// occupancy heuristic over the live roster) and draws from it with
/// proto::uniform_over_eligible or a plain uniform index.
///
/// When an IntegrityAuthority is attached, every incoming block is
/// verified BEFORE it reaches the bank's Gaussian elimination: a
/// polluted block is quarantined (PullResult::kPolluted) and leaves the
/// decoders untouched, so pollution can never poison a decoded segment.

#include <cstddef>
#include <cstdint>
#include <utility>

#include "coding/coded_block.h"
#include "coding/segment_id.h"
#include "common/assert.h"
#include "obs/clock.h"
#include "proto/integrity.h"
#include "proto/server_bank.h"

namespace icollect::proto {

class ServerCore {
 public:
  /// `clock` must outlive the core; `keep_payloads` as in ServerBank.
  ServerCore(bool keep_payloads, const obs::ClockSource& clock)
      : bank_{keep_payloads}, clock_{&clock} {}

  /// Fired when a segment's collection completes; the event is stamped
  /// with the injected clock's now().
  void set_decode_callback(ServerBank::DecodeCallback cb) {
    bank_.set_decode_callback(std::move(cb));
  }

  /// Attach the shared tag oracle (nullptr disables verification — the
  /// default, preserving pre-integrity behavior bit for bit). The
  /// authority must outlive the core.
  void set_integrity(const IntegrityAuthority* authority) {
    integrity_ = authority;
  }

  /// A demanded pull returned this block (real-coding fidelity).
  ServerBank::PullResult on_pull_block(const coding::CodedBlock& block) {
    if (!verified(block)) return ServerBank::PullResult::kPolluted;
    return bank_.offer(block, clock_->now());
  }

  /// A demanded pull of `id` under the paper's idealized collection-
  /// state process (state-counter fidelity).
  ServerBank::PullResult on_pull_counted(const coding::SegmentId& id,
                                         std::size_t segment_size) {
    return bank_.offer_counted(id, segment_size, clock_->now());
  }

  /// A sibling server forwarded a block it pulled (pooled-state rule):
  /// absorb it into the bank without pull accounting at this layer.
  /// Verified anyway — forwarding servers may themselves be compromised.
  ServerBank::PullResult on_forwarded_block(const coding::CodedBlock& block) {
    if (!verified(block)) return ServerBank::PullResult::kPolluted;
    return bank_.offer(block, clock_->now());
  }

  /// Pooled-state forwarding rule: a pulled block is re-sent to the
  /// other servers exactly when it was innovative for this bank.
  [[nodiscard]] static bool should_forward(
      ServerBank::PullResult result) noexcept {
    return result == ServerBank::PullResult::kInnovative;
  }

  /// Blocks quarantined by the integrity check (never offered to the
  /// bank, so they appear in no pull/redundancy counter).
  [[nodiscard]] std::uint64_t polluted_blocks() const noexcept {
    return polluted_;
  }

  [[nodiscard]] const ServerBank& bank() const noexcept { return bank_; }
  [[nodiscard]] ServerBank& bank() noexcept { return bank_; }
  [[nodiscard]] const obs::ClockSource& clock() const noexcept {
    return *clock_;
  }

 private:
  [[nodiscard]] bool verified(const coding::CodedBlock& block) {
    if (integrity_ == nullptr) return true;
    if (integrity_->verify(block) == VerifyResult::kOk) return true;
    ++polluted_;
    return false;
  }

  ServerBank bank_;
  const obs::ClockSource* clock_;
  const IntegrityAuthority* integrity_ = nullptr;
  std::uint64_t polluted_ = 0;
};

}  // namespace icollect::proto
