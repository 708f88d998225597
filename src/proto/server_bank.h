#pragma once

/// \file server_bank.h
/// The collaborating logging servers' collection state.
///
/// The paper's N_s servers share the goal of reconstructing every
/// segment; "no buffer comparison is made between a server and peers or
/// among the servers" (Sec. 2), so pulls can be redundant. We model the
/// servers' pooled storage as one decoder bank: each segment has a
/// progressive decoder whose rank is the segment's collection state
/// j ∈ {0..s} of Sec. 3; a pull that does not raise any rank is counted
/// as redundant. Decoded segments release their decoder and keep a
/// lightweight completion record. A driver that knows a segment can
/// never be offered again (its last copy is gone) releases the partial
/// decoder too, via forget(); without that call partial state lives as
/// long as the bank.
///
/// Times are plain doubles in the driver's time base (virtual seconds in
/// the simulator, wheel seconds in the live runtime) — the bank never
/// reads a clock itself.

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "coding/coded_block.h"
#include "coding/decoder.h"
#include "coding/segment_id.h"
#include "common/assert.h"

namespace icollect::proto {

class ServerBank {
 public:
  enum class PullResult {
    kInnovative,     ///< raised the segment's collection state
    kRedundant,      ///< linearly dependent on already-collected blocks
    kAlreadyDecoded, ///< segment was already in state s (pure waste)
    /// Failed the per-block integrity check and was quarantined before
    /// touching any decoder. The bank itself never returns this — it is
    /// ServerCore's verdict (proto/integrity.h), sharing the enum so
    /// every driver switches over one result type.
    kPolluted,
  };

  /// `keep_payloads` false discards recovered payloads after invoking the
  /// completion callback (memory control in long sweeps).
  explicit ServerBank(bool keep_payloads = true)
      : keep_payloads_{keep_payloads} {}

  /// Fired when a segment's collection completes (state/rank reaches s).
  /// `decoder` points at the complete decoder in real-coding mode and is
  /// nullptr in state-counter mode. The bank has already retired the
  /// segment's in-progress state and records it as decoded only after
  /// the callback returns, so the callback may call forget().
  struct DecodeEvent {
    coding::SegmentId id;
    std::size_t segment_size = 0;
    double when = 0.0;
    const coding::Decoder* decoder = nullptr;

    /// End-to-end payload check: how many recovered originals differ,
    /// by CRC-32, from `crcs`, the origin's record of them at injection
    /// (one per original, in order). 0 in state-counter mode, where
    /// there are no payloads to check.
    [[nodiscard]] std::size_t crc_mismatches(
        std::span<const std::uint32_t> crcs) const;
  };
  using DecodeCallback = std::function<void(const DecodeEvent&)>;
  void set_decode_callback(DecodeCallback cb) { on_decode_ = std::move(cb); }

  /// Offer one pulled coded block at time `now` (real-coding fidelity:
  /// true Gaussian elimination decides innovation).
  PullResult offer(const coding::CodedBlock& block, double now);

  /// Register one pull of `id` at time `now` under the paper's idealized
  /// collection-state process (state-counter fidelity): the state
  /// advances on every pull until it reaches `segment_size`.
  PullResult offer_counted(const coding::SegmentId& id,
                           std::size_t segment_size, double now);

  /// Drop the partial decoder or state counter of a segment none of
  /// whose blocks can be offered again. The decoded record and the
  /// recovered payloads stay, so is_decoded() and originals() keep
  /// answering; forgetting a decoded or unknown id changes nothing.
  void forget(const coding::SegmentId& id);

  /// Collection state j of a segment (0 if never seen or forgotten; s
  /// once decoded).
  [[nodiscard]] std::size_t state(const coding::SegmentId& id) const;

  [[nodiscard]] bool is_decoded(const coding::SegmentId& id) const {
    return decoded_.contains(id);
  }

  /// Recovered originals of a decoded segment (only if keep_payloads).
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>* originals(
      const coding::SegmentId& id) const;

  // --- aggregate counters -------------------------------------------------
  [[nodiscard]] std::uint64_t pulls() const noexcept { return pulls_; }
  [[nodiscard]] std::uint64_t innovative_pulls() const noexcept {
    return innovative_;
  }
  [[nodiscard]] std::uint64_t redundant_pulls() const noexcept {
    return redundant_;
  }
  [[nodiscard]] std::uint64_t segments_decoded() const noexcept {
    return decoded_.size();
  }
  [[nodiscard]] std::uint64_t original_blocks_recovered() const noexcept {
    return original_blocks_;
  }
  /// Segments currently in partial states 0 < j < s.
  [[nodiscard]] std::size_t segments_in_progress() const noexcept {
    return decoders_.size() + counters_.size();
  }

 private:
  bool keep_payloads_;
  DecodeCallback on_decode_;
  // State-counter fidelity: pulls registered per not-yet-complete segment.
  std::unordered_map<coding::SegmentId, std::size_t> counters_;
  std::unordered_map<coding::SegmentId, coding::Decoder> decoders_;
  // Decoded segments: id -> segment size (the final collection state s).
  std::unordered_map<coding::SegmentId, std::size_t> decoded_;
  std::unordered_map<coding::SegmentId,
                     std::vector<std::vector<std::uint8_t>>>
      payloads_;
  std::uint64_t pulls_ = 0;
  std::uint64_t innovative_ = 0;
  std::uint64_t redundant_ = 0;
  std::uint64_t original_blocks_ = 0;
};

}  // namespace icollect::proto
