#pragma once

/// \file pull_policy.h
/// Strategy seam for the server-side pull scheduling decision.
///
/// The paper's rule (Sec. 2) is uniform over "all the peers with
/// non-null buffers"; UniformPullPolicy realizes it and is the default
/// in both drivers. Smarter policies (rarest-first by server-side rank
/// deficit, deficit-weighted sampling — see docs/PULL_POLICIES.md) live
/// in src/sched/ behind this seam and are written once for the
/// simulator and the live ServerNode alike.
///
/// A policy answers two questions per pull:
///  - *which segment* does the server want next? want_segment() consults
///    a DeficitView (the abstract face of sched::RankTracker); the
///    uniform policy wants nothing specific and lets the peer answer
///    from its own buffer.
///  - *which peer* gets the request? Two entry points, matching the two
///    ways a driver knows eligibility:
///     - pick(): the candidate set is already filtered (the simulator's
///       exact non-empty-slot list) — one uniform draw.
///     - pick_filtered(): eligibility is only testable per candidate
///       (the live server's occupancy heuristic) — probe-then-scan
///       selection via proto::uniform_over_eligible.
///
/// Determinism contract: every policy draws from the caller's Rng in a
/// documented, fixed order. UniformPullPolicy::pick draws exactly one
/// uniform_index(n); want_segment draws nothing when it returns nullopt.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "coding/segment_id.h"
#include "common/rng.h"
#include "proto/selection.h"

namespace icollect::proto {

/// Driver-facing names for the concrete policies: the one enum both
/// drivers and every tool name a pull policy by. It lives in proto (not
/// sched) so node/ and p2p/ configs can name a policy without depending
/// on the scheduling subsystem.
///
/// kUniform is the paper's rule, uniform over peers with non-null
/// buffers (Sec. 2), which presumes the servers track buffer occupancy.
/// kUniformAll drops that assumption: servers probe blindly and waste
/// the pull when they hit an empty peer, an ablation that matters
/// exactly when z_0 is non-negligible. Only the simulator can run it
/// (live servers always steer by reported occupancy), so live
/// validation rejects it.
enum class PullPolicyKind : std::uint8_t {
  kUniform = 0,
  kRarestFirst = 1,
  kDeficitWeighted = 2,
  kUniformAll = 3,
};

[[nodiscard]] constexpr const char* to_string(PullPolicyKind k) noexcept {
  switch (k) {
    case PullPolicyKind::kUniform: return "uniform";
    case PullPolicyKind::kRarestFirst: return "rarest";
    case PullPolicyKind::kDeficitWeighted: return "deficit";
    case PullPolicyKind::kUniformAll: return "uniform-all";
  }
  return "?";
}

/// Parse a policy name: the to_string() names plus the aliases
/// "non-empty", "all", "rarest-first" and "deficit-weighted". The one
/// name table behind the `pull=` key and every --pull-policy flag;
/// nullopt on unknown names.
[[nodiscard]] inline std::optional<PullPolicyKind> parse_pull_policy_kind(
    std::string_view name) noexcept {
  if (name == "uniform" || name == "non-empty") {
    return PullPolicyKind::kUniform;
  }
  if (name == "uniform-all" || name == "all") {
    return PullPolicyKind::kUniformAll;
  }
  if (name == "rarest" || name == "rarest-first") {
    return PullPolicyKind::kRarestFirst;
  }
  if (name == "deficit" || name == "deficit-weighted") {
    return PullPolicyKind::kDeficitWeighted;
  }
  return std::nullopt;
}

/// Read-only view of the server's per-segment rank deficit, exposed to
/// policies in a deterministic iteration order. Implemented by
/// sched::RankTracker; proto/ sees only this face (layering: proto
/// must not include sched).
class DeficitView {
 public:
  virtual ~DeficitView() = default;

  /// Segments known to the server and not yet decoded ("open").
  [[nodiscard]] virtual std::size_t open_count() const noexcept = 0;
  /// The i-th open segment (i < open_count()), stable between mutations.
  [[nodiscard]] virtual const coding::SegmentId& open_segment(
      std::size_t i) const = 0;
  /// Remaining rank deficit of the i-th open segment (>= 1).
  [[nodiscard]] virtual std::size_t open_deficit(std::size_t i) const = 0;
  /// Sum of open_deficit over all open segments.
  [[nodiscard]] virtual std::size_t total_deficit() const noexcept = 0;
};

class PullPolicy {
 public:
  virtual ~PullPolicy() = default;

  /// Pick among n candidates all known to be eligible. Precondition:
  /// n > 0.
  [[nodiscard]] virtual std::size_t pick(common::Rng& rng,
                                         std::size_t n) const = 0;

  /// Pick among n candidates when eligibility must be tested per index:
  /// `probes` rejection samples, then one exhaustive scan. Returns
  /// kNoSelection when no candidate is eligible.
  [[nodiscard]] virtual std::size_t pick_filtered(
      common::Rng& rng, std::size_t n, int probes,
      EligibleRef eligible) const = 0;

  /// The segment this policy wants pulled next, given the server's
  /// current deficit view — or nullopt to let the answering peer choose
  /// uniformly from its own buffer (the paper's rule, and every
  /// policy's behavior when the view has no open segments). Must not
  /// touch the Rng when returning nullopt.
  [[nodiscard]] virtual std::optional<coding::SegmentId> want_segment(
      common::Rng& rng, const DeficitView& view) const {
    (void)rng;
    (void)view;
    return std::nullopt;
  }

  /// Whether the driver should maintain a RankTracker and request
  /// BUFFER_SUMMARY feedback for this policy. False for uniform — the
  /// default wire traffic and RNG draw sequence stay byte-identical.
  [[nodiscard]] virtual bool wants_feedback() const noexcept { return false; }
};

/// The paper's rule: uniform at random over eligible peers, no segment
/// preference. pick() draws exactly one uniform_index(n).
class UniformPullPolicy final : public PullPolicy {
 public:
  [[nodiscard]] std::size_t pick(common::Rng& rng,
                                 std::size_t n) const override {
    return rng.uniform_index(n);
  }

  [[nodiscard]] std::size_t pick_filtered(common::Rng& rng, std::size_t n,
                                          int probes,
                                          EligibleRef eligible) const override {
    return uniform_over_eligible(rng, n, probes, eligible);
  }
};

}  // namespace icollect::proto
