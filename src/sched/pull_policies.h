#pragma once

/// \file pull_policies.h
/// The rank-feedback loop both drivers run under the feedback pull
/// policies, written once: the want rule (which segment to pull next)
/// and the feed rule (what a bank outcome tells the tracker), plus the
/// live server's target rule (which peer to ask for the want).
///
/// Rarest first wants the lowest rank-deficit segment (random
/// tie-break); deficit weighted samples segments proportional to their
/// remaining deficit. Both keep the uniform peer-selection primitives:
/// the *bias toward peers holding the wanted segment* depends on how
/// availability is testable — exact buffers in the simulator, which
/// biases its own pick, and BUFFER_SUMMARY reports live, whose rule is
/// pick_advertiser() below; see docs/PULL_POLICIES.md.
///
/// Determinism (fixed seed => fixed schedule):
///  - RarestFirst: zero draws when one segment holds the minimum
///    deficit, exactly one uniform_index(ties) draw otherwise.
///  - DeficitWeighted: exactly one uniform_index(total_deficit) draw.
/// Both return nullopt (zero draws) on an empty open set, and
/// next_want() draws nothing under the uniform kinds.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "coding/segment_id.h"
#include "common/rng.h"
#include "proto/pull_policy.h"
#include "proto/selection.h"
#include "proto/server_bank.h"
#include "sched/rank_tracker.h"

namespace icollect::sched {

/// Pull the segment closest to decoding: minimum remaining deficit,
/// uniform tie-break over the (deterministically ordered) minima.
class RarestFirstPullPolicy final {
 public:
  [[nodiscard]] std::optional<coding::SegmentId> want_segment(
      common::Rng& rng, const RankTracker& tracker) const;
};

/// Sample the wanted segment with probability proportional to its
/// remaining deficit — spreads pulls across open segments instead of
/// serializing on one, while still starving decoded ones.
class DeficitWeightedPullPolicy final {
 public:
  [[nodiscard]] std::optional<coding::SegmentId> want_segment(
      common::Rng& rng, const RankTracker& tracker) const;
};

/// The want rule, once per pull: when the open set has drained while
/// segments sit suspended, reactivate them all, then ask `kind`'s rule.
/// nullopt lets the answering peer choose from its own buffer (the
/// paper's rule); it is the answer under both uniform kinds.
[[nodiscard]] std::optional<coding::SegmentId> next_want(
    proto::PullPolicyKind kind, common::Rng& rng, RankTracker& tracker);

/// The target rule for a want, over a roster of `roster_size` peers:
/// uniform over the roster indices whose peer advertises `want` in a
/// fresh report (RankTracker::advertisers, peer_fresh), is not
/// exhausted for it and passes `eligible(index)`. `roster_index(peer)`
/// maps a tracked peer to its roster index, or proto::kNoSelection when
/// the peer is not on the roster. `candidates` is scratch space.
///
/// The candidates come from the advertiser index, so the cost is
/// O(advertisers) rather than O(roster). The draws are exactly those of
/// proto::uniform_over_eligible(rng, roster_size, probes, pred) with
/// pred(i) = eligible(i) && tracker.peer_has(roster[i], want, now) &&
/// !tracker.is_exhausted(roster[i], want) — the roster scan this rule
/// replaced — via proto::uniform_over_candidates. Returns
/// proto::kNoSelection when no peer qualifies.
template <typename RosterIndex>
[[nodiscard]] std::size_t pick_advertiser(
    common::Rng& rng, const RankTracker& tracker,
    const coding::SegmentId& want, double now, std::size_t roster_size,
    int probes, const RosterIndex& roster_index, proto::EligibleRef eligible,
    std::vector<std::size_t>& candidates) {
  candidates.clear();
  for (const std::uint64_t peer : tracker.advertisers(want)) {
    if (!tracker.peer_fresh(peer, now) || tracker.is_exhausted(peer, want)) {
      continue;
    }
    const std::size_t i = roster_index(peer);
    if (i != proto::kNoSelection && eligible(i)) candidates.push_back(i);
  }
  std::sort(candidates.begin(), candidates.end());
  return proto::uniform_over_candidates(rng, roster_size, probes,
                                        candidates);
}

/// The feed rule, once per block the bank took (`result` is not
/// kPolluted): an innovative block moves `id` to the bank's collection
/// state, which is s once it decoded; a redundant *pulled* block marks
/// the answering peer `puller` exhausted for `id` and extends the
/// segment's redundancy streak. A forwarded block (`puller` nullopt)
/// that brings nothing says nothing about any peer's span.
void feed_outcome(RankTracker& tracker, const proto::ServerBank& bank,
                  const coding::SegmentId& id, std::size_t segment_size,
                  proto::ServerBank::PullResult result,
                  std::optional<std::uint64_t> puller);

}  // namespace icollect::sched
