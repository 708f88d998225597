#pragma once

/// \file node_config.h
/// Configuration of one live node (peer or server): the shared per-node
/// symbols (proto::NodeParams — s, B, payload, λ, μ, γ, c_s, pull
/// policy) plus what only a live node has. ClusterConfig and
/// p2p::ProtocolConfig share the same base, so a live node and a
/// simulated peer are parameterized from one operating point and
/// compared head-to-head (tests/node_vs_sim_test.cpp).

#include <cstdint>
#include <stdexcept>
#include <string>

#include "proto/adversary.h"
#include "proto/operating_point.h"

namespace icollect::node {

struct NodeConfig : proto::NodeParams {
  NodeConfig() {
    segment_size = 4;
    buffer_cap = 32;
    lambda = 0.0;
    mu = 0.0;
    server_rate = 0.0;  // pulls per second (servers)
  }

  std::uint32_t node_id = 1;  ///< stable identity sent in HELLO

  /// Stop injecting after this many segments (0 = unbounded). The
  /// collection harness uses a finite budget so "all injected segments
  /// recovered" is a well-defined finish line.
  std::size_t max_segments = 0;

  /// listen(2) backlog for live nodes that accept connections (servers
  /// under a connect storm — e.g. the 10k-peer load generator ramping
  /// up). 0 = SOMAXCONN; the kernel clamps larger values to
  /// net.core.somaxconn anyway.
  int listen_backlog = 0;

  /// When true, a peer drops its buffered blocks of a segment once a
  /// SEGMENT_DECODED_ACK for it arrives. Off by default: the paper's
  /// model has no ack channel, and keeping it off preserves
  /// simulator-comparable storage dynamics.
  bool drop_on_ack = false;

  /// When true, a peer guarantees delivery of its *own* segments: their
  /// s systematic blocks carry no TTL until the first ACK, so each own
  /// un-ACKed segment stays at rank s in the buffer; at the ACK they
  /// start to age at rate γ like any other block. The paper's model
  /// has no such retention — every block decays at γ and
  /// a segment whose rank dies before collection is lost — so this is
  /// off by default and node_vs_sim_test keeps it off; the collection
  /// harness turns it on to make "all injected segments recovered" a
  /// guarantee rather than a race against γ.
  bool retain_own_until_acked = false;

  /// Byzantine adversary (scenario pack): when true this peer corrupts
  /// every block it emits — gossip and pull replies alike — per
  /// `corruption`. Receivers with an attached proto::IntegrityAuthority
  /// quarantine what verification catches.
  bool byzantine = false;
  proto::CorruptionStrategy corruption =
      proto::CorruptionStrategy::kRandomPayload;

  std::uint64_t seed = 1;

  /// The rules every live node adds to NodeParams: s rides in a 16-bit
  /// wire field, and kUniformAll (blind probing) is simulator-only.
  static void validate_live(const proto::NodeParams& p) {
    if (p.segment_size > 0xFFFF) {
      throw std::invalid_argument(
          "live node: segment size must fit in 16 bits");
    }
    if (p.pull_policy == proto::PullPolicyKind::kUniformAll) {
      throw std::invalid_argument(
          "live node: pull policy uniform-all is simulator-only (live "
          "servers pull by reported occupancy)");
    }
  }

  void validate() const {
    NodeParams::validate();
    validate_live(*this);
    auto fail = [](const std::string& what) {
      throw std::invalid_argument("NodeConfig: " + what);
    };
    if (node_id == 0) fail("node id must be nonzero");
    if (listen_backlog < 0) fail("listen backlog must be >= 0");
    if (byzantine) validate_corruption(corruption);
  }
};

}  // namespace icollect::node
