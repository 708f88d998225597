#pragma once

/// \file pull_policies.h
/// The rank-feedback loop both drivers run under the feedback pull
/// policies, written once: the want rule (which segment to pull next)
/// and the feed rule (what a bank outcome tells the tracker).
///
/// Rarest first wants the lowest rank-deficit segment (random
/// tie-break); deficit weighted samples segments proportional to their
/// remaining deficit. Both keep the uniform peer-selection primitives:
/// the *bias toward peers holding the wanted segment* is the driver's
/// job, because only the driver knows how availability is testable
/// (exact buffers in the simulator, BUFFER_SUMMARY reports live); see
/// docs/PULL_POLICIES.md.
///
/// Determinism (fixed seed => fixed schedule):
///  - RarestFirst: zero draws when one segment holds the minimum
///    deficit, exactly one uniform_index(ties) draw otherwise.
///  - DeficitWeighted: exactly one uniform_index(total_deficit) draw.
/// Both return nullopt (zero draws) on an empty open set, and
/// next_want() draws nothing under the uniform kinds.

#include <cstddef>
#include <cstdint>
#include <optional>

#include "coding/segment_id.h"
#include "common/rng.h"
#include "proto/pull_policy.h"
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
