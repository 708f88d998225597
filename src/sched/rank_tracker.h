#pragma once

/// \file rank_tracker.h
/// Server-side scheduling state: per-segment rank deficit plus per-peer
/// availability estimates, read by the want rule of the pull policies
/// (sched/pull_policies.h).
///
/// The tracker closes the feedback loop between what a server still
/// needs and what it pulls. It is fed from two sides:
///  - deficit side: every bank outcome the driver sees (innovative
///    advance, decode, redundant pull) lands here through one call,
///    sched::feed_outcome, which reads the bank's collection state. A
///    decoded segment reports state s from then on, so it leaves the
///    open set for good and nothing reopens it.
///  - availability side: merge_summary() ingests a peer's BUFFER_SUMMARY
///    (the live wire message, or exact buffer contents in tests). Each
///    report replaces the peer's previous one wholesale and is trusted
///    only for `staleness_bound` seconds — after that peer_has() answers
///    false and the driver should request a refresh. An inverted index,
///    segment -> peers whose last report lists it (advertisers()), lets
///    a driver find a want's holders without scanning its roster;
///    merge_summary() and forget_peer() keep it exact, and it holds no
///    segment nobody advertises.
///
/// Suspension keeps rarest-first from wedging on a stuck segment: a
/// segment whose pulls go redundant `redundant_suspend_streak` times in
/// a row (its holders' spans are exhausted, or the segment is
/// effectively lost) is parked out of the open set. Fresh evidence — an
/// innovative advance, a summary advertising the segment, or an
/// explicit reactivate_all() once the open set drains — puts it back.
///
/// Determinism: open segments iterate in insertion order with swap-pop
/// removal — the same discipline as proto::PeerBuffer — so policy
/// tie-breaks are reproducible under a fixed seed.

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "coding/segment_id.h"

namespace icollect::sched {

struct RankTrackerOptions {
  /// Seconds a peer's BUFFER_SUMMARY stays trusted.
  double staleness_bound = 1.0;
  /// Consecutive redundant pulls of one segment before it is suspended.
  /// Low on purpose: under RLNC a redundant pull means the answering
  /// peer's whole span for the segment is already known, so even short
  /// streaks are strong evidence the reachable holders are exhausted —
  /// and rarest-first concentrates pulls, so every extra strike is a
  /// whole wasted pull.
  std::uint32_t redundant_suspend_streak = 2;
};

class RankTracker final {
 public:
  explicit RankTracker(RankTrackerOptions opts = {}) : opts_(opts) {}

  // --- deficit bookkeeping -----------------------------------------------
  /// The server's collection state for `id` advanced to `collected` of
  /// `segment_size` blocks. Opens the segment if unseen, reactivates it
  /// if suspended, and resets its redundancy streak. `collected >=
  /// segment_size` means decoded: the segment and its exhaustion
  /// evidence leave the tracker.
  void on_state(const coding::SegmentId& id, std::size_t collected,
                std::size_t segment_size);

  /// A pull of `id` came back redundant. Streaks of these suspend the
  /// segment (see file comment); any innovative advance resets the
  /// streak.
  void on_redundant(const coding::SegmentId& id);

  /// Park an open segment (e.g. no known holder). No-op if not open.
  void suspend(const coding::SegmentId& id);

  /// A pull of `id` answered by `peer` came back redundant — under RLNC
  /// that means the peer's entire span for the segment is already known
  /// to the server, so targeting it again for `id` is a guaranteed
  /// waste. The pair stays excluded until the segment cycles through a
  /// suspension (spans drift as gossip and TTL churn the buffers) or
  /// decodes.
  void mark_exhausted(std::uint64_t peer, const coding::SegmentId& id);

  /// Whether `peer`'s span for `id` is known-exhausted (see above).
  [[nodiscard]] bool is_exhausted(std::uint64_t peer,
                                  const coding::SegmentId& id) const;

  /// Return every suspended segment to the open set — the escape hatch
  /// drivers use when the open set drains while work remains.
  void reactivate_all();

  /// Remaining deficit of `id`; 0 when unknown or decoded.
  [[nodiscard]] std::size_t deficit(const coding::SegmentId& id) const;

  [[nodiscard]] bool is_suspended(const coding::SegmentId& id) const {
    return susp_pos_.contains(id);
  }
  [[nodiscard]] std::size_t suspended_count() const noexcept {
    return suspended_.size();
  }

  // --- the open set, in its deterministic order ---------------------------
  /// Segments known to the server, not decoded and not suspended.
  [[nodiscard]] std::size_t open_count() const noexcept {
    return open_.size();
  }
  /// The i-th open segment (i < open_count()), stable between mutations.
  [[nodiscard]] const coding::SegmentId& open_segment(std::size_t i) const {
    return open_[i].id;
  }
  /// Remaining rank deficit of the i-th open segment (>= 1).
  [[nodiscard]] std::size_t open_deficit(std::size_t i) const {
    return open_[i].deficit;
  }
  /// Sum of open_deficit over all open segments.
  [[nodiscard]] std::size_t total_deficit() const noexcept {
    return total_deficit_;
  }

  // --- per-peer availability ---------------------------------------------
  /// Ingest one BUFFER_SUMMARY from `peer` at time `now`, replacing any
  /// previous report wholesale. Suspended segments advertised in the
  /// summary reactivate (fresh evidence of a live holder).
  void merge_summary(std::uint64_t peer,
                     std::span<const coding::SegmentId> segments, double now);

  /// Whether `peer`'s last summary is within the staleness bound at
  /// `now` and advertises `id`. Unknown or stale peers answer false.
  [[nodiscard]] bool peer_has(std::uint64_t peer, const coding::SegmentId& id,
                              double now) const;

  /// Whether `peer` reported within the staleness bound — when false
  /// the driver should piggyback a summary request on its next pull.
  [[nodiscard]] bool peer_fresh(std::uint64_t peer, double now) const;

  /// Peers whose last summary lists `id`, fresh or stale, in no fixed
  /// order; empty when none. Valid until the next merge_summary() or
  /// forget_peer().
  [[nodiscard]] std::span<const std::uint64_t> advertisers(
      const coding::SegmentId& id) const;

  /// Drop `peer`'s report and its advertiser index entries.
  void forget_peer(std::uint64_t peer);
  [[nodiscard]] std::size_t tracked_peers() const noexcept {
    return peers_.size();
  }
  /// Segments at least one tracked report lists: the advertiser index's
  /// size.
  [[nodiscard]] std::size_t advertised_segments() const noexcept {
    return advertisers_.size();
  }

  [[nodiscard]] const RankTrackerOptions& options() const noexcept {
    return opts_;
  }

 private:
  struct Slot {
    coding::SegmentId id;
    std::size_t deficit = 0;
    std::uint32_t streak = 0;  ///< consecutive redundant pulls
  };
  struct PeerReport {
    double reported_at = 0.0;
    std::vector<coding::SegmentId> segments;  ///< sorted, distinct
  };
  using PosMap = std::unordered_map<coding::SegmentId, std::size_t>;

  /// Swap-pop `i` out of (list, pos), keeping the moved slot indexed.
  static Slot take_at(std::vector<Slot>& list, PosMap& pos, std::size_t i);

  void open_slot(Slot slot);
  void reactivate(const coding::SegmentId& id);
  void unindex_advertiser(const coding::SegmentId& id, std::uint64_t peer);

  RankTrackerOptions opts_;
  std::vector<Slot> open_;       ///< insertion order, swap-pop removal
  PosMap open_pos_;              ///< id -> index into open_
  std::vector<Slot> suspended_;  ///< same discipline as open_
  PosMap susp_pos_;
  std::unordered_map<std::uint64_t, PeerReport> peers_;
  /// The advertiser index: segment -> peers whose report lists it, as
  /// an unordered list (swap-pop removal); never holds an empty list.
  std::unordered_map<coding::SegmentId, std::vector<std::uint64_t>>
      advertisers_;
  /// merge_summary's sorted copy of the incoming ids, kept for its
  /// capacity.
  std::vector<coding::SegmentId> merge_scratch_;
  /// Per-segment set of peers whose span went redundant for it; cleared
  /// when the segment reactivates from suspension or decodes.
  std::unordered_map<coding::SegmentId, std::unordered_set<std::uint64_t>>
      exhausted_;
  std::size_t total_deficit_ = 0;
};

}  // namespace icollect::sched
