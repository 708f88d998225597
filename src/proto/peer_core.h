#pragma once

/// \file peer_core.h
/// The peer half of the Sec. 2 protocol as a pure, driver-agnostic state
/// machine. One implementation serves both drivers: the discrete-event
/// simulator (p2p::Network) feeds it from the event queue, the live
/// runtime (node::PeerNode) from wire frames — the core never touches a
/// transport, a timer wheel, or a clock.
///
/// Inputs are typed method calls (inject fired, gossip fired, block
/// arrived, pull asked, timer expired, ACK seen); outputs are return
/// values plus two injected sinks: `arm_ttl` (schedule this block's
/// Exp(γ) expiry — the only timing the core ever requests, expressed as
/// a delay so it is clock-agnostic) and an optional `stored` hook for
/// per-block driver bookkeeping (the simulator's registry degree,
/// occupancy lists and time-weighted metrics).
///
/// Determinism contract: all randomness flows through the injected
/// common::Rng in a fixed draw order — segment choice, coding
/// coefficients, payload bytes, TTL lifetimes, byzantine corruption.
/// The simulator shares one stream across every core; the live runtime
/// gives each node its own.
/// Seeded outputs of both drivers are byte-identical to the
/// pre-extraction implementations (tests/golden/, proto-differential).

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "coding/coded_block.h"
#include "coding/segment_buffer.h"
#include "coding/segment_id.h"
#include "common/assert.h"
#include "common/rng.h"
#include "proto/adversary.h"
#include "proto/integrity.h"
#include "proto/peer_buffer.h"
#include "proto/policy.h"

namespace icollect::proto {

class PeerCore {
 public:
  struct Params {
    std::size_t segment_size = 4;   ///< s blocks per segment
    std::size_t buffer_cap = 32;    ///< B, max blocks buffered
    double gamma = 1.0;             ///< per-block TTL expiry rate γ
    std::size_t payload_bytes = 0;  ///< real payload per block (0 = none)
    GossipPolicy gossip_policy = GossipPolicy::kUniformSegment;
    /// Drop/refuse blocks of segments a server already ACKed decoded
    /// (live-runtime option; the simulator's direct baseline drops its
    /// own reports this way).
    bool drop_on_ack = false;
    /// Pin an own segment's s systematic blocks (no TTL) until its
    /// first ACK, then let them age at rate γ like any other block, so
    /// a finite collection always completes (live-runtime option; the
    /// simulator's direct baseline pins every report this way).
    bool retain_own_until_acked = false;
    /// Answer untargeted pulls from the oldest buffered segment instead
    /// of a uniformly random one: a FIFO report queue (the simulator's
    /// direct baseline).
    bool pull_oldest_first = false;
    /// Record per-block CRC-32s of own injected payloads for end-to-end
    /// verification (live tests); the simulator keeps them in its
    /// registry instead and leaves this off.
    bool record_own_crcs = false;
    /// Byzantine peer: corrupt_egress() corrupts every block it is
    /// handed per `corruption` (proto/adversary.h). Filled from
    /// AdversaryConfig by the simulator and from NodeConfig::byzantine
    /// by a live peer; honest by default.
    bool byzantine = false;
    CorruptionStrategy corruption = CorruptionStrategy::kRandomPayload;
  };

  /// Required sink: schedule the Exp(γ) expiry of a stored block after
  /// `delay` seconds; the driver must call on_ttl_expired(handle) then.
  using ArmTtlFn = std::function<void(coding::BlockHandle, double delay)>;
  /// Optional sink: a block of `segment` entered the buffer, which held
  /// `blocks_before` blocks. Fires after insertion, before the TTL draw.
  using StoredFn =
      std::function<void(const coding::SegmentId&, std::size_t blocks_before)>;
  /// Optional override for the s original payload blocks of a new
  /// segment (workload generators). Default: deterministic
  /// pseudo-random bytes from the core's RNG stream.
  using PayloadSourceFn =
      std::function<std::vector<std::vector<std::uint8_t>>(
          const coding::SegmentId& id, std::size_t segment_size,
          std::size_t payload_bytes)>;

  /// The core draws from — but does not own — `rng`, so a driver can
  /// share one stream across many cores (simulator) or dedicate one per
  /// node (live runtime). Both must outlive the core.
  PeerCore(const Params& params, coding::OriginId origin, common::Rng& rng);

  void set_arm_ttl(ArmTtlFn fn) { arm_ttl_ = std::move(fn); }
  void set_stored_hook(StoredFn fn) { stored_ = std::move(fn); }
  void set_payload_source(PayloadSourceFn fn) {
    payload_source_ = std::move(fn);
  }
  /// Attach the run's shared tag oracle (proto/integrity.h). The core
  /// then registers every segment it injects and quarantines received
  /// blocks that fail verification. nullptr (the default) disables both,
  /// preserving pre-integrity behavior bit for bit. Requires
  /// payload_bytes > 0 — checks over empty payloads are vacuous. The
  /// authority must outlive the core.
  void set_integrity(IntegrityAuthority* authority) {
    ICOLLECT_EXPECTS(authority == nullptr || params_.payload_bytes > 0);
    integrity_ = authority;
  }

  // --- injection ----------------------------------------------------------
  /// Room for a whole segment ("degree no more than B − s", Sec. 2)?
  [[nodiscard]] bool can_inject() const {
    return buffer_.has_room(params_.segment_size);
  }
  /// The id inject() will assign next (for drivers that must register
  /// the segment before the per-block stored hooks fire).
  [[nodiscard]] coding::SegmentId next_segment_id() const {
    return coding::SegmentId{origin_, next_seq_};
  }

  struct Injected {
    coding::SegmentId id;
    /// CRC-32 per original block; empty when payload_bytes == 0.
    std::vector<std::uint32_t> crcs;
  };
  /// Inject one fresh segment: draw payloads, seed the buffer with its s
  /// systematic blocks, arming one TTL each — or none under
  /// retain_own_until_acked, which pins them until the first ACK.
  /// Precondition: can_inject().
  Injected inject();

  // --- gossip -------------------------------------------------------------
  [[nodiscard]] bool has_blocks() const { return !buffer_.empty(); }
  /// The segment this gossip firing re-codes, per the configured policy
  /// (uniform draws once; newest/rarest draw nothing).
  /// Precondition: has_blocks().
  [[nodiscard]] const coding::SegmentId& choose_gossip_segment();
  /// Fresh random GF(2^8) recombination of the buffered blocks of `seg`.
  /// Precondition: the segment is buffered and non-empty.
  [[nodiscard]] coding::CodedBlock recode(const coding::SegmentId& seg);
  /// recode() into a caller-owned block (allocation-free steady state).
  void recode_into(const coding::SegmentId& seg, coding::CodedBlock& out);

  // --- receiving ----------------------------------------------------------
  enum class AcceptResult : std::uint8_t {
    kStored,           ///< accepted and buffered (TTL armed)
    kShapeMismatch,    ///< wrong segment size / degenerate block — junk
    kPolluted,         ///< failed the integrity check — quarantined
    kAckedSegment,     ///< drop_on_ack and the segment is already ACKed
    kBufferFull,       ///< "if a peer's buffer is full, it will not accept"
    kSegmentFullRank,  ///< peer already holds s independent blocks
  };
  /// Receiver-side acceptance rule (live runtime: the sender picks
  /// blindly and the receiver filters).
  AcceptResult accept(coding::CodedBlock&& block);
  /// Sender-side eligibility rule (simulator: the global view filters
  /// receivers before sending) — the storage-related half of accept().
  [[nodiscard]] bool can_accept(const coding::SegmentId& seg) const {
    if (buffer_.full()) return false;
    const coding::SegmentBuffer* sb = buffer_.find(seg);
    return sb == nullptr || !sb->full_rank();
  }
  /// Store a block unconditionally (simulator delivery after sender-side
  /// filtering). Precondition: the buffer has room.
  coding::BlockHandle store(coding::CodedBlock block);

  // --- server pulls -------------------------------------------------------
  /// The segment a pull is answered from: uniform over buffered
  /// segments ("a (re-coded) block of a random segment", Sec. 2), or
  /// the oldest under pull_oldest_first (no draw).
  /// Precondition: has_blocks().
  [[nodiscard]] const coding::SegmentId& choose_pull_segment() {
    ICOLLECT_EXPECTS(!buffer_.empty());
    if (params_.pull_oldest_first) return buffer_.oldest_segment();
    return buffer_.random_segment(rng_);
  }
  /// Answer a pull request: false (and `out` untouched) when the buffer
  /// is empty, else a re-coded block of a random buffered segment.
  bool answer_pull(coding::CodedBlock& out);
  /// Answer a pull that wants a *specific* segment (scheduling
  /// policies): false (and `out` untouched, no RNG draw) when the
  /// segment is not buffered or empty, else a re-code of it.
  bool answer_pull_for(const coding::SegmentId& seg, coding::CodedBlock& out);

  // --- byzantine egress ---------------------------------------------------
  enum class EgressResult : std::uint8_t {
    kHonest,        ///< honest core: block untouched, nothing drawn
    kCorrupted,     ///< corrupted per strategy, or swapped for the replay
    kReplayCached,  ///< kReplay: this genuine block filled the cache and
                    ///< goes out as is
  };
  /// The egress rule, applied by the driver to every block this peer is
  /// about to send — gossip and pull replies alike. An honest core
  /// returns kHonest at once. A byzantine one scrambles the payload
  /// (kRandomPayload), scrambles the coefficients but keeps them
  /// non-degenerate (kGarbageCoefficients), or resends the first block
  /// it was ever handed (kReplay), drawing from the core's stream.
  EgressResult corrupt_egress(coding::CodedBlock& block);
  /// The block a replaying core resends; nullptr until its first
  /// egress, and again after rebirth().
  [[nodiscard]] const coding::CodedBlock* replay_block() const noexcept {
    return replay_cache_ ? &*replay_cache_ : nullptr;
  }

  // --- TTL ----------------------------------------------------------------
  /// The armed expiry for `handle` fired. Returns the segment the block
  /// belonged to, or nullopt if it was already gone (drop_on_ack, churn).
  std::optional<coding::SegmentId> on_ttl_expired(coding::BlockHandle handle);

  // --- ACKs ---------------------------------------------------------------
  enum class AckResult : std::uint8_t {
    kDuplicate,     ///< already ACKed (multi-server)
    kOwnSegment,    ///< first ACK of a segment this peer injected
    kOtherSegment,  ///< a relayed segment (first ACK under drop_on_ack)
  };
  /// A server announced the segment decoded: release a pinned own
  /// segment — arm one Exp(γ) TTL per block, or under drop_on_ack evict
  /// them, as it does any ACKed segment's blocks. Only own
  /// segments, and foreign ones under drop_on_ack, are remembered as
  /// ACKed: without drop_on_ack a foreign ACK changes nothing, so it
  /// must not grow state (a forged stream of them would otherwise grow
  /// the set forever).
  AckResult on_ack(const coding::SegmentId& id);

  // --- churn (simulator's replacement model) ------------------------------
  /// The occupant departs: drop every buffered block. Returns the number
  /// of blocks lost. Armed TTLs for them become stale no-ops.
  std::size_t clear_all() { return buffer_.clear(); }
  /// A fresh peer takes the slot under a new origin id. It keeps the
  /// slot's Params (a byzantine slot stays byzantine) but none of the
  /// predecessor's history, its replay block included.
  void rebirth(coding::OriginId new_origin);

  // --- observers ----------------------------------------------------------
  [[nodiscard]] const PeerBuffer& buffer() const noexcept { return buffer_; }
  [[nodiscard]] PeerBuffer& buffer() noexcept { return buffer_; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] coding::OriginId origin() const noexcept { return origin_; }
  [[nodiscard]] bool is_acked(const coding::SegmentId& id) const {
    return acked_.contains(id);
  }
  [[nodiscard]] std::size_t acked_count() const noexcept {
    return acked_.size();
  }
  /// A segment this occupant injected: its own segments are exactly
  /// (origin, 0..next_seq-1), so no set is kept.
  [[nodiscard]] bool is_own(const coding::SegmentId& id) const noexcept {
    return id.origin == origin_ && id.seq < next_seq_;
  }
  /// CRC-32 of each original block of an own injected segment (only
  /// when record_own_crcs and payload_bytes > 0).
  [[nodiscard]] const std::vector<std::uint32_t>* original_crcs(
      const coding::SegmentId& id) const;
  /// Own segments with recorded CRCs (record_own_crcs; never shrinks
  /// before rebirth()).
  [[nodiscard]] std::size_t own_crc_count() const noexcept {
    return own_crcs_.size();
  }
  /// Own segments pinned and not yet ACKed (0 without retention).
  [[nodiscard]] std::size_t retained_segments() const noexcept {
    return retained_;
  }

 private:
  Params params_;
  coding::OriginId origin_;
  common::Rng& rng_;
  PeerBuffer buffer_;
  std::uint32_t next_seq_ = 0;

  ArmTtlFn arm_ttl_;
  StoredFn stored_;
  PayloadSourceFn payload_source_;
  IntegrityAuthority* integrity_ = nullptr;

  std::unordered_set<coding::SegmentId> acked_;
  std::unordered_map<coding::SegmentId, std::vector<std::uint32_t>>
      own_crcs_;
  std::size_t retained_ = 0;
  /// kReplay: the first block corrupt_egress() was handed.
  std::optional<coding::CodedBlock> replay_cache_;
};

}  // namespace icollect::proto
