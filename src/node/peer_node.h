#pragma once

/// \file peer_node.h
/// The live realization of a protocol peer (Sec. 2): a proto::PeerCore
/// driven by wire frames and the shared TimerWheel. The core owns every
/// protocol decision — injection payloads and systematic seeding, gossip
/// segment choice, the receiver-side acceptance rule, Exp(γ) TTLs, pull
/// answers, ACK handling, source-side retention; this class
/// owns what only a live node has — sessions, frames, timers, metrics.
///
/// All timing flows through the shared TimerWheel and all randomness
/// through one seeded common::Rng, so a peer behaves identically — and
/// deterministically — over the loopback transport and over TCP.
///
/// One deliberate divergence from the simulator: the simulator filters
/// gossip *receivers* at the sender (proto::PeerCore::can_accept), which
/// needs global state a live node cannot have. Here the sender picks
/// blindly and the receiver drops ineligible blocks via
/// proto::PeerCore::accept, counting them. At simulator-comparable
/// operating points (buffers not saturated) the two policies measurably
/// agree — node_vs_sim_test pins that equivalence inside the simulator's
/// confidence interval.

#include <cstdint>
#include <vector>

#include "coding/coded_block.h"
#include "coding/segment_id.h"
#include "common/rng.h"
#include "node/node_base.h"
#include "proto/integrity.h"
#include "proto/peer_core.h"
#include "workload/generators.h"

namespace icollect::node {

class PeerNode final : public NodeBase {
 public:
  PeerNode(const NodeConfig& cfg, net::Transport& transport,
           net::TimerWheel& wheel, obs::MetricsRegistry* metrics = nullptr,
           const std::string& metric_prefix = "peer.");

  /// Arm the injection and gossip processes. Call once, after wiring.
  void start();

  /// Stop injecting new segments (gossip and TTL keep running).
  void stop_injection();

  /// Attach the shared per-run integrity authority (scenario pack).
  /// Call before start(): own injected segments register their tags
  /// with it and incoming gossip is verified against it, quarantining
  /// polluted blocks before they reach the buffer. Pass nullptr (the
  /// default) and the peer behaves exactly as before — no extra RNG
  /// draws, bit-identical runs.
  void set_integrity(proto::IntegrityAuthority* authority) {
    core_.set_integrity(authority);
    integrity_ = authority;
  }

  /// Shape injection by a time-varying block rate λ(t) instead of the
  /// constant `lambda` (scenario pack: trace replay). Segments then
  /// arrive as a nonhomogeneous Poisson process at rate λ(t)/s, sampled
  /// by Lewis-Shedler thinning against the profile's max_rate(). Call
  /// before start(); the profile is not owned and must outlive the
  /// node. nullptr (the default) keeps the constant-rate process — and
  /// its exact RNG draw sequence, so existing seeded runs are
  /// bit-identical.
  void set_arrival_profile(const workload::ArrivalProfile* profile) {
    arrival_ = profile;
  }

  [[nodiscard]] const proto::PeerBuffer& buffer() const noexcept {
    return core_.buffer();
  }

  // --- progress -----------------------------------------------------------
  [[nodiscard]] std::uint64_t segments_injected() const noexcept {
    return segments_injected_;
  }
  /// Of this node's own injected segments, how many have been ACKed
  /// decoded by a server.
  [[nodiscard]] std::uint64_t own_segments_acked() const noexcept {
    return own_acked_;
  }
  /// True once injection is done and every segment this peer injected
  /// has been ACKed (and at least one was injected).
  [[nodiscard]] bool all_injected_acked() const noexcept {
    return injection_done() && segments_injected_ > 0 &&
           own_acked_ == segments_injected_;
  }
  /// True once the finite injection budget (max_segments) is spent.
  [[nodiscard]] bool injection_done() const noexcept;

  /// CRC-32 of each original block of an own injected segment (only
  /// recorded when payload_bytes > 0) — lets tests verify byte-exact
  /// end-to-end recovery against the server's decoded originals.
  [[nodiscard]] const std::vector<std::uint32_t>* original_crcs(
      const coding::SegmentId& id) const {
    return core_.original_crcs(id);
  }

  // --- counters -----------------------------------------------------------
  [[nodiscard]] std::uint64_t gossip_sent() const noexcept {
    return gossip_sent_;
  }
  [[nodiscard]] std::uint64_t gossip_idle() const noexcept {
    return gossip_idle_;
  }
  [[nodiscard]] std::uint64_t gossip_no_target() const noexcept {
    return gossip_no_target_;
  }
  [[nodiscard]] std::uint64_t blocks_received() const noexcept {
    return blocks_received_;
  }
  [[nodiscard]] std::uint64_t blocks_dropped_full() const noexcept {
    return blocks_dropped_full_;
  }
  [[nodiscard]] std::uint64_t blocks_dropped_rank() const noexcept {
    return blocks_dropped_rank_;
  }
  [[nodiscard]] std::uint64_t blocks_dropped_acked() const noexcept {
    return blocks_dropped_acked_;
  }
  [[nodiscard]] std::uint64_t ttl_expirations() const noexcept {
    return ttl_expirations_;
  }
  [[nodiscard]] std::uint64_t injection_blocked() const noexcept {
    return injection_blocked_;
  }
  [[nodiscard]] std::uint64_t pull_replies() const noexcept {
    return pull_replies_;
  }
  [[nodiscard]] std::uint64_t pull_empty_replies() const noexcept {
    return pull_empty_replies_;
  }
  [[nodiscard]] std::uint64_t acks_received() const noexcept {
    return acks_received_;
  }
  /// Segments the core remembers as ACKed (own ones, plus foreign ones
  /// only under drop_on_ack).
  [[nodiscard]] std::size_t acked_segments() const noexcept {
    return core_.acked_count();
  }
  /// Incoming gossip rejected by integrity verification.
  [[nodiscard]] std::uint64_t blocks_quarantined() const noexcept {
    return blocks_quarantined_;
  }
  /// Outgoing blocks this (byzantine) peer corrupted before sending.
  [[nodiscard]] std::uint64_t blocks_corrupted() const noexcept {
    return blocks_corrupted_;
  }
  [[nodiscard]] bool is_acked(const coding::SegmentId& id) const {
    return core_.is_acked(id);
  }
  /// Own segments pinned at full rank until their first ACK.
  [[nodiscard]] std::size_t retained_segments() const noexcept {
    return core_.retained_segments();
  }

 protected:
  [[nodiscard]] wire::NodeRole role() const noexcept override {
    return wire::NodeRole::kPeer;
  }
  /// Only a drop_on_ack peer acts on other origins' ACKs, so only it
  /// asks servers for them.
  [[nodiscard]] std::uint8_t hello_flags() const noexcept override {
    return config().drop_on_ack ? wire::kHelloAllAcks : 0;
  }
  void handle_message(Session& session, wire::Message&& message) override;

 private:
  [[nodiscard]] static proto::PeerCore::Params core_params(
      const NodeConfig& cfg);

  void schedule_inject();
  void schedule_gossip();
  void do_inject();
  void do_gossip();
  void accept_block(coding::CodedBlock&& block, net::NodeId from);
  void on_ttl_expire(coding::BlockHandle handle);
  void handle_pull_request(Session& session, const wire::PullRequest& req);
  void handle_ack(const coding::SegmentId& id);

  common::Rng rng_;
  proto::PeerCore core_;
  proto::IntegrityAuthority* integrity_ = nullptr;
  const workload::ArrivalProfile* arrival_ = nullptr;
  bool injection_stopped_ = false;

  std::uint64_t segments_injected_ = 0;
  std::uint64_t own_acked_ = 0;
  std::uint64_t injection_blocked_ = 0;
  std::uint64_t gossip_sent_ = 0;
  std::uint64_t gossip_idle_ = 0;
  std::uint64_t gossip_no_target_ = 0;
  std::uint64_t blocks_received_ = 0;
  std::uint64_t blocks_dropped_full_ = 0;
  std::uint64_t blocks_dropped_rank_ = 0;
  std::uint64_t blocks_dropped_acked_ = 0;
  std::uint64_t ttl_expirations_ = 0;
  std::uint64_t pull_replies_ = 0;
  std::uint64_t pull_empty_replies_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t blocks_quarantined_ = 0;
  std::uint64_t blocks_corrupted_ = 0;
};

}  // namespace icollect::node
