#include "sched/pull_policies.h"

#include <cstddef>
#include <limits>

namespace icollect::sched {

std::optional<coding::SegmentId> RarestFirstPullPolicy::want_segment(
    common::Rng& rng, const proto::DeficitView& view) const {
  const std::size_t n = view.open_count();
  if (n == 0) return std::nullopt;
  // Pass 1: minimum deficit and tie count over the deterministic order.
  std::size_t best = std::numeric_limits<std::size_t>::max();
  std::size_t ties = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t d = view.open_deficit(i);
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
    if (view.open_deficit(i) == best && j-- == 0) return view.open_segment(i);
  }
  return std::nullopt;  // unreachable
}

std::optional<coding::SegmentId> DeficitWeightedPullPolicy::want_segment(
    common::Rng& rng, const proto::DeficitView& view) const {
  const std::size_t total = view.total_deficit();
  if (total == 0) return std::nullopt;
  std::size_t r = rng.uniform_index(total);
  const std::size_t n = view.open_count();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t d = view.open_deficit(i);
    if (r < d) return view.open_segment(i);
    r -= d;
  }
  return std::nullopt;  // unreachable: deficits sum to total
}

std::unique_ptr<proto::PullPolicy> make_pull_policy(
    proto::PullPolicyKind kind) {
  switch (kind) {
    case proto::PullPolicyKind::kRarestFirst:
      return std::make_unique<RarestFirstPullPolicy>();
    case proto::PullPolicyKind::kDeficitWeighted:
      return std::make_unique<DeficitWeightedPullPolicy>();
    case proto::PullPolicyKind::kUniform:
    case proto::PullPolicyKind::kUniformAll:
      break;
  }
  return std::make_unique<proto::UniformPullPolicy>();
}

}  // namespace icollect::sched
