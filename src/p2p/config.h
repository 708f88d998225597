#pragma once

/// \file config.h
/// Configuration of the indirect-collection protocol simulation: every
/// symbol of the paper's model (Sec. 2) in one validated aggregate.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "proto/adversary.h"
#include "proto/policy.h"
#include "proto/pull_policy.h"

namespace icollect::p2p {

/// How peers are wired to each other for gossip.
enum class TopologyKind {
  kComplete,       ///< every peer neighbors every other (the ODE regime)
  kErdosRenyi,     ///< G(n, p) with p chosen for a target mean degree
  kRandomRegular,  ///< every peer has exactly `degree` neighbors
};

[[nodiscard]] constexpr const char* to_string(TopologyKind k) noexcept {
  switch (k) {
    case TopologyKind::kComplete: return "complete";
    case TopologyKind::kErdosRenyi: return "erdos-renyi";
    case TopologyKind::kRandomRegular: return "random-regular";
  }
  return "?";
}

/// How server-side collection progress is tracked.
///
/// The paper's model (Sec. 3, "Server Collection") advances a segment's
/// collection state on *every* pull while the state is below s — i.e. it
/// idealizes coded blocks as always innovative until the segment is
/// decodable. kStateCounter reproduces that process exactly (and is what
/// the paper's own simulations evaluate). kRealCoding instead runs true
/// GF(2^8) Gaussian elimination at the servers: a pulled block can be
/// non-innovative when the pulled peer's span is already known to the
/// servers (e.g. after TTL expiries shrink a segment's global rank), so
/// measured throughput is a strict lower bound on the model's.
enum class CollectionFidelity {
  kRealCoding,    ///< true RLNC decoding at the servers (deployment truth)
  kStateCounter,  ///< the paper's idealized collection-state process
};

[[nodiscard]] constexpr const char* to_string(CollectionFidelity f) noexcept {
  switch (f) {
    case CollectionFidelity::kRealCoding: return "real-coding";
    case CollectionFidelity::kStateCounter: return "state-counter";
  }
  return "?";
}

/// How a server picks the peer to pull from.
///
/// The paper's rule is uniform over "all the peers with non-null
/// buffers" (Sec. 2), which presumes the servers track buffer occupancy.
/// kUniformAll drops that assumption — servers probe blindly and waste
/// the pull when they hit an empty peer — an ablation of the design
/// choice that matters exactly when z_0 is non-negligible.
enum class PullPolicy {
  kUniformNonEmpty,  ///< the paper's rule (occupancy-aware)
  kUniformAll,       ///< blind probing; empty hits are wasted
  kRarestFirst,      ///< lowest rank-deficit segment first (sched::)
  kDeficitWeighted,  ///< segments sampled ∝ remaining deficit (sched::)
};

[[nodiscard]] constexpr const char* to_string(PullPolicy p) noexcept {
  switch (p) {
    case PullPolicy::kUniformNonEmpty: return "uniform-non-empty";
    case PullPolicy::kUniformAll: return "uniform-all";
    case PullPolicy::kRarestFirst: return "rarest-first";
    case PullPolicy::kDeficitWeighted: return "deficit-weighted";
  }
  return "?";
}

/// The sched-layer policy kind a simulator PullPolicy maps to (both
/// occupancy variants are the uniform paper rule).
[[nodiscard]] constexpr proto::PullPolicyKind pull_policy_kind(
    PullPolicy p) noexcept {
  switch (p) {
    case PullPolicy::kUniformNonEmpty:
    case PullPolicy::kUniformAll:
      return proto::PullPolicyKind::kUniform;
    case PullPolicy::kRarestFirst:
      return proto::PullPolicyKind::kRarestFirst;
    case PullPolicy::kDeficitWeighted:
      return proto::PullPolicyKind::kDeficitWeighted;
  }
  return proto::PullPolicyKind::kUniform;
}

/// Parse a simulator pull-policy name: the proto names ("uniform" is
/// the paper's non-empty rule) plus "non-empty" and "all" for the two
/// uniform variants. The one name table behind both the `pull=` key and
/// icollect_sim's --pull-policy; nullopt on unknown names.
[[nodiscard]] inline std::optional<PullPolicy> parse_pull_policy(
    std::string_view name) noexcept {
  if (name == "non-empty") return PullPolicy::kUniformNonEmpty;
  if (name == "all") return PullPolicy::kUniformAll;
  const auto kind = proto::parse_pull_policy_kind(name);
  if (!kind) return std::nullopt;
  switch (*kind) {
    case proto::PullPolicyKind::kUniform: return PullPolicy::kUniformNonEmpty;
    case proto::PullPolicyKind::kRarestFirst: return PullPolicy::kRarestFirst;
    case proto::PullPolicyKind::kDeficitWeighted:
      return PullPolicy::kDeficitWeighted;
  }
  return std::nullopt;
}

/// GossipPolicy — how a gossiping peer picks which buffered segment to
/// re-code and send — is protocol surface shared with the live runtime;
/// it lives in proto/policy.h and is re-exported here for the
/// simulator-facing configuration vocabulary.
using proto::GossipPolicy;
using proto::to_string;

/// How peer lifetimes are distributed under churn.
enum class LifetimeDistribution {
  kExponential,  ///< the paper's memoryless model (Sec. 4)
  kPareto,       ///< heavy-tailed, as measured in real P2P systems [7]
  kLogNormal,    ///< the eDonkey measurement study's session-length fit
};

[[nodiscard]] constexpr const char* to_string(LifetimeDistribution d) noexcept {
  switch (d) {
    case LifetimeDistribution::kExponential: return "exponential";
    case LifetimeDistribution::kPareto: return "pareto";
    case LifetimeDistribution::kLogNormal: return "log-normal";
  }
  return "?";
}

/// Lifetime-based churn with replacement (Sec. 4, refs [7],[8]): each
/// peer lives for a random lifetime with mean `mean_lifetime`; on expiry
/// its buffer is lost and a fresh peer takes its slot, keeping the
/// population size constant.
struct ChurnConfig {
  bool enabled = false;
  double mean_lifetime = 0.0;  ///< mean L of the lifetime distribution
  LifetimeDistribution distribution = LifetimeDistribution::kExponential;
  double pareto_shape = 2.0;  ///< α > 1 (only for kPareto); 2 = very heavy
  /// σ of the underlying normal (only for kLogNormal); the location is
  /// derived so the configured mean is preserved. σ≈1.5–2 matches the
  /// eDonkey study's spread between minute-scale and day-scale sessions.
  double lognormal_sigma = 1.5;
};

/// Byzantine-peer adversary (scenario pack): a fixed fraction of the
/// population corrupts every block it emits — gossip and pull replies
/// alike — per the configured strategy, and per-block integrity
/// verification quarantines what it can (proto/integrity.h).
struct AdversaryConfig {
  /// Fraction of peers that are dishonest, in [0, 1]. The first
  /// ⌊N·fraction⌋ slots are chosen — deterministic under a fixed seed,
  /// and unbiased under the complete topology where slots are
  /// exchangeable.
  double dishonest_fraction = 0.0;
  proto::CorruptionStrategy strategy =
      proto::CorruptionStrategy::kRandomPayload;
  /// Homomorphic integrity checks per block (0 = verification off).
  /// Escape probability for a forged block is 256^-checks.
  std::size_t integrity_checks = 0;
};

struct ProtocolConfig {
  // --- population & workload -------------------------------------------
  std::size_t num_peers = 200;   ///< N
  double lambda = 20.0;          ///< per-peer original-block rate λ
  std::size_t segment_size = 10; ///< s blocks per segment (1 = no coding)

  // --- peer resources ---------------------------------------------------
  double mu = 10.0;             ///< per-peer gossip upload rate μ
  double gamma = 1.0;           ///< per-block TTL expiry rate γ
  std::size_t buffer_cap = 120; ///< B, max blocks buffered per peer

  // --- servers ------------------------------------------------------------
  std::size_t num_servers = 4; ///< N_s collaborating logging servers
  double server_rate = 100.0;  ///< c_s, pulls per unit time per server

  // --- data plane ---------------------------------------------------------
  /// Bytes of real payload per block; 0 runs coefficients-only (exact
  /// linear algebra, no payload bytes — the right mode for large sweeps).
  std::size_t payload_bytes = 0;

  /// Server-side collection fidelity (see CollectionFidelity).
  CollectionFidelity fidelity = CollectionFidelity::kRealCoding;

  /// Server peer-selection rule (see PullPolicy).
  PullPolicy pull_policy = PullPolicy::kUniformNonEmpty;

  /// Gossip segment-selection rule (see GossipPolicy).
  GossipPolicy gossip_policy = GossipPolicy::kUniformSegment;

  /// Failure injection: probability that a gossiped block is lost in
  /// transit (the sender's μ is spent, nothing arrives). The paper
  /// assumes reliable transfers; this knob stresses that assumption.
  double gossip_loss = 0.0;

  // --- environment ----------------------------------------------------------
  TopologyKind topology = TopologyKind::kComplete;
  std::size_t mean_degree = 20;  ///< for Erdős–Rényi / random-regular
  ChurnConfig churn{};
  AdversaryConfig adversary{};
  std::uint64_t seed = 1;

  /// Normalized server capacity c = c_s * N_s / N (the paper's key knob).
  [[nodiscard]] double normalized_capacity() const noexcept {
    return server_rate * static_cast<double>(num_servers) /
           static_cast<double>(num_peers);
  }

  /// Set `server_rate` so that the normalized capacity equals `c`.
  void set_normalized_capacity(double c) {
    if (c < 0.0) throw std::invalid_argument("normalized capacity < 0");
    server_rate = c * static_cast<double>(num_peers) /
                  static_cast<double>(num_servers);
  }

  /// Throw std::invalid_argument on any inconsistent setting.
  void validate() const {
    auto fail = [](const std::string& what) {
      throw std::invalid_argument("ProtocolConfig: " + what);
    };
    if (num_peers < 2) fail("need at least 2 peers");
    if (lambda < 0.0) fail("lambda must be >= 0");
    if (segment_size == 0) fail("segment size must be >= 1");
    if (mu < 0.0) fail("mu must be >= 0");
    if (gamma <= 0.0) fail("gamma must be > 0");
    if (buffer_cap < segment_size) {
      fail("buffer cap must hold at least one segment (B >= s)");
    }
    if (num_servers == 0) fail("need at least one server");
    if (server_rate < 0.0) fail("server rate must be >= 0");
    if (topology != TopologyKind::kComplete) {
      if (mean_degree < 2) fail("mean degree must be >= 2");
      if (mean_degree >= num_peers) fail("mean degree must be < N");
    }
    if (churn.enabled && churn.mean_lifetime <= 0.0) {
      fail("churn mean lifetime must be > 0");
    }
    if (churn.enabled &&
        churn.distribution == LifetimeDistribution::kPareto &&
        churn.pareto_shape <= 1.0) {
      fail("Pareto lifetime shape must be > 1 (finite mean)");
    }
    if (churn.enabled &&
        churn.distribution == LifetimeDistribution::kLogNormal &&
        churn.lognormal_sigma <= 0.0) {
      fail("log-normal lifetime sigma must be > 0");
    }
    if (adversary.dishonest_fraction < 0.0 ||
        adversary.dishonest_fraction > 1.0) {
      fail("dishonest fraction must be in [0, 1]");
    }
    if (adversary.integrity_checks > 0 && payload_bytes == 0) {
      fail(
          "integrity checks need real payloads (payload_bytes > 0); "
          "checks over empty payloads are vacuous");
    }
    if (adversary.dishonest_fraction > 0.0 &&
        fidelity == CollectionFidelity::kStateCounter) {
      fail(
          "byzantine peers need real-coding fidelity (state-counter "
          "pulls carry no blocks to corrupt)");
    }
    if (adversary.dishonest_fraction > 0.0 && payload_bytes == 0 &&
        adversary.strategy == proto::CorruptionStrategy::kRandomPayload) {
      fail(
          "random-payload corruption needs payload_bytes > 0 (there is "
          "no payload to corrupt)");
    }
    if (gossip_loss < 0.0 || gossip_loss >= 1.0) {
      fail("gossip loss probability must be in [0, 1)");
    }
    if (fidelity == CollectionFidelity::kStateCounter && payload_bytes > 0) {
      fail(
          "state-counter fidelity cannot carry payloads (nothing is "
          "actually decoded); use real-coding fidelity");
    }
  }
};

}  // namespace icollect::p2p
