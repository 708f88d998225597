#pragma once

/// \file config.h
/// Configuration of the indirect-collection protocol simulation: the
/// shared operating point (proto/operating_point.h) plus the
/// simulator-only knobs, in one validated struct.

#include <cstddef>
#include <stdexcept>
#include <string>

#include "proto/operating_point.h"
#include "proto/policy.h"

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

/// The simulator's configuration: the shared operating point (N, N_s,
/// s, B, payload, λ, μ, γ, c_s, pull policy, adversary, seed; see
/// proto/operating_point.h, which holds their defaults and rules) plus
/// what only a global simulation has — collection fidelity, topology,
/// churn, gossip policy and gossip loss.
struct ProtocolConfig : proto::OperatingPoint {
  /// Server-side collection fidelity (see CollectionFidelity).
  CollectionFidelity fidelity = CollectionFidelity::kRealCoding;

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

  /// Throw std::invalid_argument on any inconsistent setting.
  void validate() const {
    OperatingPoint::validate();
    auto fail = [](const std::string& what) {
      throw std::invalid_argument("ProtocolConfig: " + what);
    };
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
    if (adversary.dishonest_fraction > 0.0 &&
        fidelity == CollectionFidelity::kStateCounter) {
      fail(
          "byzantine peers need real-coding fidelity (state-counter "
          "pulls carry no blocks to corrupt)");
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
