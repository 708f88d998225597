#pragma once

/// \file pull_policy.h
/// The pull-policy vocabulary both drivers and every tool share.
///
/// The paper's rule (Sec. 2) is uniform over "all the peers with
/// non-null buffers". The feedback policies (rarest first by
/// server-side rank deficit, deficit-weighted sampling; see
/// docs/PULL_POLICIES.md) add one decision on top of it: which segment
/// the server wants next. That rule and the bank-outcome feed behind it
/// live in src/sched/ and are written once for the simulator and the
/// live ServerNode. Peer choice stays with the drivers, which draw it
/// with rng.uniform_index or proto::uniform_over_eligible under every
/// policy.

#include <cstdint>
#include <optional>
#include <string_view>

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

/// Whether a policy runs the rank feedback loop: the driver keeps a
/// sched::RankTracker, asks it for a wanted segment on every pull and
/// requests BUFFER_SUMMARY feedback. False for both uniform kinds, so
/// their wire traffic and RNG draw sequence carry no scheduling state.
[[nodiscard]] constexpr bool wants_feedback(PullPolicyKind k) noexcept {
  return k == PullPolicyKind::kRarestFirst ||
         k == PullPolicyKind::kDeficitWeighted;
}

}  // namespace icollect::proto
