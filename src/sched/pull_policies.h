#pragma once

/// \file pull_policies.h
/// The concrete scheduling policies behind proto::PullPolicy: rarest
/// first (lowest rank-deficit segment, random tie-break) and deficit
/// weighted (sample segments proportional to remaining deficit). Both
/// keep the uniform peer-selection primitives — the *bias toward peers
/// advertising the wanted segment* is the driver's job, because only
/// the driver knows how availability is testable (exact buffers in the
/// simulator, RankTracker summaries live); see docs/PULL_POLICIES.md.
///
/// Determinism (fixed seed => fixed schedule):
///  - RarestFirst: zero draws when one segment holds the minimum
///    deficit, exactly one uniform_index(ties) draw otherwise.
///  - DeficitWeighted: exactly one uniform_index(total_deficit) draw.
/// Both return nullopt (zero draws) on an empty deficit view.

#include <memory>
#include <optional>

#include "proto/pull_policy.h"

namespace icollect::sched {

/// Pull the segment closest to decoding: minimum remaining deficit,
/// uniform tie-break over the (deterministically ordered) minima.
class RarestFirstPullPolicy final : public proto::PullPolicy {
 public:
  [[nodiscard]] std::size_t pick(common::Rng& rng,
                                 std::size_t n) const override {
    return rng.uniform_index(n);
  }
  [[nodiscard]] std::size_t pick_filtered(
      common::Rng& rng, std::size_t n, int probes,
      proto::EligibleRef eligible) const override {
    return proto::uniform_over_eligible(rng, n, probes, eligible);
  }
  [[nodiscard]] std::optional<coding::SegmentId> want_segment(
      common::Rng& rng, const proto::DeficitView& view) const override;
  [[nodiscard]] bool wants_feedback() const noexcept override { return true; }
};

/// Sample the wanted segment with probability proportional to its
/// remaining deficit — spreads pulls across open segments instead of
/// serializing on one, while still starving decoded ones.
class DeficitWeightedPullPolicy final : public proto::PullPolicy {
 public:
  [[nodiscard]] std::size_t pick(common::Rng& rng,
                                 std::size_t n) const override {
    return rng.uniform_index(n);
  }
  [[nodiscard]] std::size_t pick_filtered(
      common::Rng& rng, std::size_t n, int probes,
      proto::EligibleRef eligible) const override {
    return proto::uniform_over_eligible(rng, n, probes, eligible);
  }
  [[nodiscard]] std::optional<coding::SegmentId> want_segment(
      common::Rng& rng, const proto::DeficitView& view) const override;
  [[nodiscard]] bool wants_feedback() const noexcept override { return true; }
};

/// Instantiate the policy for a kind. Both uniform kinds get
/// proto::UniformPullPolicy; the driver owns the candidate set.
[[nodiscard]] std::unique_ptr<proto::PullPolicy> make_pull_policy(
    proto::PullPolicyKind kind);

}  // namespace icollect::sched
