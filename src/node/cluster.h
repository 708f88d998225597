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
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "coding/segment_id.h"
#include "net/loopback.h"
#include "node/node_config.h"
#include "node/peer_node.h"
#include "node/server_node.h"
#include "obs/metrics_registry.h"
#include "proto/adversary.h"
#include "proto/integrity.h"
#include "workload/generators.h"

namespace icollect::node {

struct ClusterConfig {
  std::size_t num_peers = 16;
  std::size_t num_servers = 2;
  std::size_t segment_size = 4;   ///< s
  std::size_t buffer_cap = 32;    ///< B
  std::size_t payload_bytes = 0;
  double lambda = 8.0;            ///< per-peer block rate λ
  double mu = 4.0;                ///< per-peer gossip rate μ
  double gamma = 1.0;             ///< per-block TTL rate γ
  double server_rate = 16.0;      ///< c_s per server
  /// Injection budget per peer (0 = unbounded; required for
  /// run_to_completion, which needs a finite finish line).
  std::size_t segments_per_peer = 0;
  bool drop_on_ack = false;
  /// Peers keep their own segments' originals until ACKed and re-seed
  /// them after TTL losses (see NodeConfig::retain_own_until_acked).
  /// Leave off for simulator-fidelity runs (node_vs_sim_test); turn on
  /// for finite collections that must reach 100% recovery.
  bool retain_own_until_acked = false;

  // --- adversary (scenario pack) ------------------------------------------
  /// Fraction of peers that are byzantine (the first ⌊N·fraction⌋ by
  /// slot — deterministic under a fixed seed). They corrupt every block
  /// they emit per `corruption`.
  double dishonest_fraction = 0.0;
  proto::CorruptionStrategy corruption =
      proto::CorruptionStrategy::kRandomPayload;
  /// Homomorphic integrity checks per block (0 = verification off;
  /// requires payload_bytes > 0 when enabled). The cluster owns one
  /// shared authority — the trusted in-process analogue of a key
  /// distributed out of band.
  std::size_t integrity_checks = 0;

  /// Optional time-varying injection shape (block rate λ(t), replacing
  /// the constant `lambda`). Not owned; must outlive the cluster.
  const workload::ArrivalProfile* arrival = nullptr;

  /// Server pull scheduling, copied into every server's NodeConfig
  /// (docs/PULL_POLICIES.md). Uniform is the paper's rule and the
  /// byte-identical default.
  proto::PullPolicyKind pull_policy = proto::PullPolicyKind::kUniform;

  std::uint64_t seed = 1;
  net::LoopbackNet::Options net{};
  /// Virtual-time interval of the occupancy sampler feeding
  /// mean_blocks_per_peer().
  double sample_interval = 0.05;

  /// Normalized server capacity c = c_s · N_s / N (the paper's knob).
  [[nodiscard]] double normalized_capacity() const noexcept {
    return server_rate * static_cast<double>(num_servers) /
           static_cast<double>(num_peers);
  }

  /// Throw std::invalid_argument on a shape the cluster cannot run.
  void validate() const {
    auto fail = [](const std::string& what) {
      throw std::invalid_argument("ClusterConfig: " + what);
    };
    if (num_peers < 2) fail("need at least 2 peers");
    if (num_servers == 0) fail("need at least one server");
    if (dishonest_fraction < 0.0 || dishonest_fraction > 1.0) {
      fail("dishonest fraction must be in [0, 1]");
    }
    // Integrity checks are over payload bytes; with none they are vacuous.
    if (integrity_checks > 0 && payload_bytes == 0) {
      fail("integrity checks need payload bytes > 0");
    }
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
  void on_decode(const coding::SegmentId& id);

  ClusterConfig cfg_;
  net::LoopbackNet net_;
  std::unique_ptr<proto::IntegrityAuthority> integrity_;
  std::size_t dishonest_count_ = 0;
  std::vector<std::unique_ptr<PeerNode>> peers_;
  std::vector<std::unique_ptr<ServerNode>> servers_;
  std::unordered_set<coding::SegmentId> decoded_union_;

  double measure_start_ = 0.0;
  std::uint64_t base_innovative_ = 0;
  double blocks_time_sum_ = 0.0;  ///< sum of per-sample total blocks
  std::uint64_t samples_ = 0;
};

}  // namespace icollect::node
