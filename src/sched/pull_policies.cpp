#include "sched/pull_policies.h"

#include <cstddef>
#include <limits>

namespace icollect::sched {

std::optional<coding::SegmentId> RarestFirstPullPolicy::want_segment(
    common::Rng& rng, const RankTracker& tracker) const {
  const std::size_t n = tracker.open_count();
  if (n == 0) return std::nullopt;
  // Pass 1: minimum deficit and tie count over the deterministic order.
  std::size_t best = std::numeric_limits<std::size_t>::max();
  std::size_t ties = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t d = tracker.open_deficit(i);
    if (d < best) {
      best = d;
      ties = 1;
    } else if (d == best) {
      ++ties;
    }
  }
  // Pass 2: the j-th minimum, j uniform (no draw on a unique minimum).
  std::size_t j = ties > 1 ? rng.uniform_index(ties) : 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (tracker.open_deficit(i) == best && j-- == 0) {
      return tracker.open_segment(i);
    }
  }
  return std::nullopt;  // unreachable
}

std::optional<coding::SegmentId> DeficitWeightedPullPolicy::want_segment(
    common::Rng& rng, const RankTracker& tracker) const {
  const std::size_t total = tracker.total_deficit();
  if (total == 0) return std::nullopt;
  std::size_t r = rng.uniform_index(total);
  const std::size_t n = tracker.open_count();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t d = tracker.open_deficit(i);
    if (r < d) return tracker.open_segment(i);
    r -= d;
  }
  return std::nullopt;  // unreachable: deficits sum to total
}

std::optional<coding::SegmentId> next_want(proto::PullPolicyKind kind,
                                           common::Rng& rng,
                                           RankTracker& tracker) {
  if (tracker.open_count() == 0 && tracker.suspended_count() > 0) {
    tracker.reactivate_all();
  }
  switch (kind) {
    case proto::PullPolicyKind::kRarestFirst:
      return RarestFirstPullPolicy{}.want_segment(rng, tracker);
    case proto::PullPolicyKind::kDeficitWeighted:
      return DeficitWeightedPullPolicy{}.want_segment(rng, tracker);
    case proto::PullPolicyKind::kUniform:
    case proto::PullPolicyKind::kUniformAll:
      break;
  }
  return std::nullopt;
}

void feed_outcome(RankTracker& tracker, const proto::ServerBank& bank,
                  const coding::SegmentId& id, std::size_t segment_size,
                  proto::ServerBank::PullResult result,
                  std::optional<std::uint64_t> puller) {
  if (result == proto::ServerBank::PullResult::kInnovative) {
    tracker.on_state(id, bank.state(id), segment_size);
  } else if (puller &&
             result == proto::ServerBank::PullResult::kRedundant) {
    // Under RLNC a redundant recode means the answering peer's whole
    // span for `id` is already known: stop targeting it for `id` until
    // the suspension cycle resets the evidence.
    tracker.mark_exhausted(*puller, id);
    tracker.on_redundant(id);
  }
}

}  // namespace icollect::sched
