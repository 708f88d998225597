#pragma once

/// \file cluster.h
/// N live peers + M live servers wired over the deterministic loopback
/// transport, all in one process and one thread: the multi-node
/// collection harness behind tools/icollect_cluster and the
/// node-vs-simulator validation.
///
/// Each node gets an independent splitmix64-derived RNG stream and all
/// timing goes through the loopback's virtual TimerWheel, so a fixed
/// seed reproduces an entire cluster run bit-for-bit — the same
/// determinism contract the replica engine gives the simulator.
///
/// Measurement mirrors p2p::Network: normalized throughput is the rate
/// of innovative server pulls over N·λ, and mean blocks per peer is a
/// virtual-time average of total buffered blocks, both since
/// begin_measurement() (so a warm-up window can be excluded).

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "coding/segment_id.h"
#include "net/loopback.h"
#include "node/node_config.h"
#include "node/peer_node.h"
#include "node/server_node.h"
#include "obs/metrics_registry.h"
#include "proto/integrity.h"
#include "proto/operating_point.h"
#include "workload/generators.h"

namespace icollect::node {

/// The loopback cluster's configuration: the shared operating point
/// (proto/operating_point.h — N, N_s, s, B, payload, λ, μ, γ, c_s, pull
/// policy, adversary, seed) plus the harness's own knobs. Every node's
/// NodeConfig takes its NodeParams from here; a byzantine population
/// corrupts per `adversary.strategy`, and `adversary.integrity_checks`
/// > 0 gives the cluster one shared authority — the trusted in-process
/// analogue of a key distributed out of band.
struct ClusterConfig : proto::OperatingPoint {
  ClusterConfig() {
    num_peers = 16;
    num_servers = 2;
    segment_size = 4;
    buffer_cap = 32;
    lambda = 8.0;
    mu = 4.0;
    server_rate = 16.0;
  }

  /// Injection budget per peer (0 = unbounded; required for
  /// run_to_completion, which needs a finite finish line).
  std::size_t segments_per_peer = 0;
  bool drop_on_ack = false;
  /// Peers pin their own segments' originals until the first ACK (see
  /// NodeConfig::retain_own_until_acked).
  /// Leave off for simulator-fidelity runs (node_vs_sim_test); turn on
  /// for finite collections that must reach 100% recovery.
  bool retain_own_until_acked = false;

  /// Optional time-varying injection shape (block rate λ(t), replacing
  /// the constant `lambda`). Not owned; must outlive the cluster.
  const workload::ArrivalProfile* arrival = nullptr;

  net::LoopbackNet::Options net{};
  /// Virtual-time interval of the occupancy sampler feeding
  /// mean_blocks_per_peer().
  double sample_interval = 0.05;

  /// Throw std::invalid_argument on a shape the cluster cannot run,
  /// before any node is built.
  void validate() const {
    OperatingPoint::validate();
    NodeConfig::validate_live(*this);
  }
};

class LoopbackCluster {
 public:
  /// `metrics`, when given, receives cluster-level aggregate gauges
  /// (cluster.*), per-node gauges (peer<i>.* / server<i>.*, 1-based
  /// peer numbering matching their NodeConfig ids), per-server latency
  /// histograms, and the loopback hub's counters (loopback.*) — all
  /// pull-based, so attaching metrics never perturbs the seeded RNG
  /// streams and runs stay bit-reproducible.
  explicit LoopbackCluster(const ClusterConfig& cfg,
                           obs::MetricsRegistry* metrics = nullptr);

  /// Fan one trace sink out to every node (each gets a copy).
  void set_trace_sink(proto::TraceSink sink);

  [[nodiscard]] const ClusterConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] net::LoopbackNet& net() noexcept { return net_; }
  [[nodiscard]] double now() const noexcept { return net_.now(); }

  [[nodiscard]] PeerNode& peer(std::size_t i) { return *peers_.at(i); }
  [[nodiscard]] ServerNode& server(std::size_t i) { return *servers_.at(i); }

  void run_until(double t) { net_.run_until(t); }
  void run_for(double dt) { net_.run_for(dt); }

  /// Fault injection: partition the first ⌊N·fraction⌋ peers away from
  /// every other node on [at, heal_at) — the live analogue of
  /// p2p::Network::set_isolation_window. No-op when that is no peer.
  void set_isolation_window(double fraction, double at, double heal_at);

  /// Advance virtual time until every injected segment has been decoded
  /// by every server (or `max_virtual_time` passes). Requires a finite
  /// segments_per_peer. Returns whether the collection completed.
  bool run_to_completion(double max_virtual_time);

  /// True when all peers have spent their injection budget and every
  /// injected segment is decoded at every server.
  [[nodiscard]] bool complete() const;

  /// The byzantine-run finish line: every *honest* peer has spent its
  /// budget and had every injected segment ACKed decoded. Byzantine
  /// peers corrupt all their egress, so their own segments can never
  /// complete — complete() is unreachable at dishonest_fraction > 0.
  [[nodiscard]] bool honest_complete() const;

  /// True for the first ⌊N·dishonest_fraction⌋ slots.
  [[nodiscard]] bool is_byzantine(std::size_t i) const noexcept {
    return i < dishonest_count_;
  }
  [[nodiscard]] std::size_t dishonest_count() const noexcept {
    return dishonest_count_;
  }
  /// The shared per-run authority (nullptr when integrity_checks == 0).
  [[nodiscard]] const proto::IntegrityAuthority* integrity() const noexcept {
    return integrity_.get();
  }

  // --- cluster-wide aggregates --------------------------------------------
  [[nodiscard]] std::uint64_t segments_injected() const;
  /// Segments decoded by at least one server (the union view).
  [[nodiscard]] std::size_t segments_decoded() const {
    return decoded_union_.size();
  }
  /// Innovative pulls summed over servers (pooled-throughput analogue).
  [[nodiscard]] std::uint64_t innovative_pulls() const;
  [[nodiscard]] std::uint64_t pulls_sent() const;
  [[nodiscard]] std::uint64_t gossip_sent() const;
  [[nodiscard]] std::uint64_t total_buffered_blocks() const;
  /// Segments injected by honest peers only.
  [[nodiscard]] std::uint64_t honest_segments_injected() const;
  /// Blocks corrupted by byzantine peers, summed.
  [[nodiscard]] std::uint64_t blocks_corrupted() const;
  /// Polluted gossip quarantined at peers, summed.
  [[nodiscard]] std::uint64_t blocks_quarantined() const;
  /// Polluted pulls quarantined at servers, summed.
  [[nodiscard]] std::uint64_t polluted_pulls() const;

  // --- end-to-end payload integrity ---------------------------------------
  /// Servers keep no decoded payloads, so every decode is checked as it
  /// happens: each recovered original is CRC-32-compared with the one
  /// its origin peer recorded at injection (the rule of the simulator's
  /// payload_crc_failures). Originals checked so far, summed over
  /// servers; 0 without payloads.
  [[nodiscard]] std::uint64_t payload_originals_checked() const noexcept {
    return originals_checked_;
  }
  /// Checked originals whose CRC did not match.
  [[nodiscard]] std::uint64_t payload_crc_failures() const noexcept {
    return crc_failures_;
  }

  // --- measurement window -------------------------------------------------
  /// Re-anchor measurement at the current virtual time (post-warm-up).
  void begin_measurement();

  /// Innovative pulls per unit time / (N·λ) since begin_measurement().
  [[nodiscard]] double normalized_throughput() const;

  /// Virtual-time mean of buffered blocks per peer since
  /// begin_measurement().
  [[nodiscard]] double mean_blocks_per_peer() const;

 private:
  void schedule_sampler();
  void on_decode(const proto::ServerBank::DecodeEvent& event);

  ClusterConfig cfg_;
  net::LoopbackNet net_;
  std::unique_ptr<proto::IntegrityAuthority> integrity_;
  std::size_t dishonest_count_ = 0;
  std::vector<std::unique_ptr<PeerNode>> peers_;
  std::vector<std::unique_ptr<ServerNode>> servers_;
  std::unordered_set<coding::SegmentId> decoded_union_;
  std::uint64_t originals_checked_ = 0;
  std::uint64_t crc_failures_ = 0;

  double measure_start_ = 0.0;
  std::uint64_t base_innovative_ = 0;
  double blocks_time_sum_ = 0.0;  ///< sum of per-sample total blocks
  std::uint64_t samples_ = 0;
};

}  // namespace icollect::node
