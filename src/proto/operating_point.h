#pragma once

/// \file operating_point.h
/// The paper's model symbols (Sec. 2), declared and validated once for
/// every driver.
///
///  - NodeParams: what one node needs to know — s, B, the payload size,
///    λ, μ, γ, c_s and the server pull policy. node::NodeConfig (one
///    live peer or server) derives from it.
///  - OperatingPoint: NodeParams plus the population — N, N_s, the
///    adversary and the root seed. p2p::ProtocolConfig (the simulator)
///    and node::ClusterConfig (the loopback cluster) derive from it, so
///    one OperatingPoint parameterizes both drivers
///    (tests/node_vs_sim_test.cpp).
///
/// The defaults below are the simulator's paper-scale point. Each
/// derived config resets its own defaults in its constructor and adds
/// only its driver-specific fields and rules.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "proto/adversary.h"
#include "proto/pull_policy.h"

namespace icollect::proto {

struct NodeParams {
  std::size_t segment_size = 10;  ///< s blocks per segment (1 = no coding)
  std::size_t buffer_cap = 120;   ///< B, max blocks buffered per peer
  /// Bytes of real payload per block; 0 runs coefficients-only (exact
  /// linear algebra, no payload bytes — the right mode for large sweeps).
  std::size_t payload_bytes = 0;
  double lambda = 20.0;        ///< per-peer original-block rate λ
  double mu = 10.0;            ///< per-peer gossip upload rate μ
  double gamma = 1.0;          ///< per-block TTL expiry rate γ
  double server_rate = 100.0;  ///< c_s, pulls per unit time per server
  /// Server pull scheduling (docs/PULL_POLICIES.md). kUniform is the
  /// paper's rule and keeps the RNG draw sequence and the wire traffic
  /// of pre-scheduling builds. Ignored by peers.
  PullPolicyKind pull_policy = PullPolicyKind::kUniform;

  /// Throw std::invalid_argument unless s >= 1, B >= s, γ > 0 and
  /// λ, μ, c_s >= 0.
  void validate() const {
    if (segment_size == 0) fail("segment size must be >= 1");
    if (buffer_cap < segment_size) {
      fail("buffer cap must hold at least one segment (B >= s)");
    }
    if (lambda < 0.0) fail("lambda must be >= 0");
    if (mu < 0.0) fail("mu must be >= 0");
    if (gamma <= 0.0) fail("gamma must be > 0");
    if (server_rate < 0.0) fail("server rate must be >= 0");
  }

  /// Throw std::invalid_argument unless a peer corrupting per
  /// `strategy` has something to corrupt.
  void validate_corruption(CorruptionStrategy strategy) const {
    if (payload_bytes == 0 && strategy == CorruptionStrategy::kRandomPayload) {
      fail(
          "random-payload corruption needs payload_bytes > 0 (there is "
          "no payload to corrupt)");
    }
  }

 protected:
  [[noreturn]] static void fail(const std::string& what) {
    throw std::invalid_argument("operating point: " + what);
  }
};

struct OperatingPoint : NodeParams {
  std::size_t num_peers = 200;  ///< N
  std::size_t num_servers = 4;  ///< N_s collaborating logging servers
  AdversaryConfig adversary{};
  std::uint64_t seed = 1;

  /// Normalized server capacity c = c_s · N_s / N (the paper's key knob).
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

  /// NodeParams::validate() plus the population rules: N >= 2,
  /// N_s >= 1, a dishonest fraction in [0, 1], and payload bytes for
  /// integrity checks and for random-payload corruption.
  void validate() const {
    NodeParams::validate();
    if (num_peers < 2) fail("need at least 2 peers");
    if (num_servers == 0) fail("need at least one server");
    if (adversary.dishonest_fraction < 0.0 ||
        adversary.dishonest_fraction > 1.0) {
      fail("dishonest fraction must be in [0, 1]");
    }
    if (adversary.integrity_checks > 0 && payload_bytes == 0) {
      fail(
          "integrity checks need real payloads (payload_bytes > 0); "
          "checks over empty payloads are vacuous");
    }
    if (adversary.dishonest_fraction > 0.0) {
      validate_corruption(adversary.strategy);
    }
  }
};

}  // namespace icollect::proto
