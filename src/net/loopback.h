#pragma once

/// \file loopback.h
/// Deterministic in-process transport: N endpoints wired through one
/// hub, with a virtual clock, seeded delivery, and injectable link
/// faults. The simulator's ground-truth twin on the transport side —
/// a whole multi-node cluster (tools/icollect_cluster) runs in one
/// thread, instantly, and bit-reproducibly for a fixed seed.
///
/// Semantics:
///  - send() queues the bytes for delivery `latency (+ jitter)` of
///    virtual time later, via the shared TimerWheel — so delivery order
///    is a deterministic function of (send order, latency draws). The
///    in-flight bytes sit in a hub-owned, free-listed pool of frame
///    buffers, so after warm-up a send -> deliver round trip allocates
///    nothing.
///  - drop_probability drops a send at the link (the bytes vanish;
///    the sender's counters record it) — gossip-loss fault injection.
///  - chunk_bytes > 0 splits each delivery into chunks of that size,
///    exercising the receivers' stream reassembly exactly like a TCP
///    read pattern would.
///  - Per-endpoint in-flight backpressure: when more than
///    `send_queue_cap_bytes` are queued from one endpoint, send()
///    refuses — mirroring the TCP transport's send-queue cap.
///
/// Fault injection (scenario pack):
///  - block_link(from, to) blackholes one *direction* of a link: the
///    sender's send() still succeeds (it cannot observe the fault, just
///    like a NAT-ed or firewalled path), nothing arrives, and neither
///    side sees on_peer_down. unblock_link() heals it.
///  - set_isolated(id) blackholes every path touching one endpoint —
///    the building block of network partitions; schedule_partition()
///    arms an isolate-then-heal window on the virtual clock.
///  - set_drain_rate(id, bytes_per_sec) turns an endpoint into a slow
///    reader: deliveries to it serialize through a token-bucket-style
///    drain, so a fast sender's in-flight bytes pile up against the
///    send-queue cap — the slowloris scenario.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/timer_wheel.h"
#include "net/transport.h"
#include "obs/metrics_registry.h"
#include "sim/random.h"

namespace icollect::net {

class LoopbackNet {
 public:
  struct Options {
    double tick_seconds = 0.0005;   ///< virtual tick of the shared wheel
    double latency = 0.001;         ///< one-way delivery latency (seconds)
    double latency_jitter = 0.0;    ///< uniform extra in [0, jitter)
    double drop_probability = 0.0;  ///< per-send link loss
    std::size_t chunk_bytes = 0;    ///< 0 = deliver whole; else split
    std::size_t send_queue_cap_bytes = 4U << 20U;  ///< per-endpoint in-flight
    std::uint64_t seed = 1;         ///< drives drops and jitter only
  };

  explicit LoopbackNet(Options opts);

  LoopbackNet(const LoopbackNet&) = delete;
  LoopbackNet& operator=(const LoopbackNet&) = delete;

  /// One attached endpoint. NodeIds handed to handlers are the *remote*
  /// endpoint's index in this hub.
  class Endpoint final : public Transport {
   public:
    void set_handler(TransportHandler* handler) override {
      handler_ = handler;
    }
    bool send(NodeId peer, std::span<const std::uint8_t> bytes) override;
    void close_peer(NodeId peer) override;

    [[nodiscard]] NodeId id() const noexcept { return id_; }

   private:
    friend class LoopbackNet;
    Endpoint(LoopbackNet* hub, NodeId id) : hub_{hub}, id_{id} {}

    LoopbackNet* hub_;
    NodeId id_;
    TransportHandler* handler_ = nullptr;
    std::vector<std::uint8_t> links_;     ///< links_[peer] != 0 iff connected
    std::size_t in_flight_bytes_ = 0;
    bool isolated_ = false;               ///< partitioned away (blackhole)
    double drain_rate_ = 0.0;             ///< bytes/sec a slow reader absorbs
    double drain_next_free_ = 0.0;        ///< when its drain queue empties
  };

  /// Create a new endpoint; its NodeId is the creation index.
  Endpoint& create_endpoint();

  [[nodiscard]] std::size_t endpoint_count() const noexcept {
    return endpoints_.size();
  }
  [[nodiscard]] Endpoint& endpoint(NodeId id) {
    return *endpoints_.at(id);
  }

  /// Wire two endpoints (symmetric); fires on_peer_up on both handlers.
  void connect(NodeId a, NodeId b);

  /// Tear a link down (symmetric); fires on_peer_down on both sides.
  void disconnect(NodeId a, NodeId b);

  // --- fault injection ----------------------------------------------------
  /// Blackhole the `from`→`to` direction only: sends succeed from the
  /// sender's point of view, the bytes vanish (counted in
  /// fault_drops()), and no on_peer_down fires — a NAT-like one-way
  /// reachability failure. The reverse direction is unaffected.
  void block_link(NodeId from, NodeId to);
  void unblock_link(NodeId from, NodeId to);
  [[nodiscard]] bool link_blocked(NodeId from, NodeId to) const;

  /// Blackhole every path to and from `id` (both directions). Bytes
  /// already in flight toward an endpoint isolated before delivery are
  /// eaten too — partitions don't wait for the pipe to empty.
  void set_isolated(NodeId id, bool isolated);
  [[nodiscard]] bool is_isolated(NodeId id) const {
    return endpoints_.at(id)->isolated_;
  }

  /// Arm a partition window on the virtual clock: every id in `ids`
  /// becomes isolated at time `at` and heals at `heal_at`.
  /// Preconditions: now() <= at < heal_at.
  void schedule_partition(double at, double heal_at,
                          std::vector<NodeId> ids);

  /// Make `id` a slow reader absorbing at most `bytes_per_second`
  /// (0 restores unlimited drain). Deliveries to it serialize through
  /// the drain, holding each sender's in-flight bytes until absorbed —
  /// so a slow reader pushes fast senders into send-queue refusals.
  void set_drain_rate(NodeId id, double bytes_per_second);

  [[nodiscard]] TimerWheel& timers() noexcept { return wheel_; }
  [[nodiscard]] double now() const noexcept { return wheel_.now(); }

  /// Advance virtual time (delivering messages, firing node timers).
  void run_until(double t) { wheel_.advance_to(t); }
  void run_for(double dt) { wheel_.advance_to(wheel_.now() + dt); }

  // --- fault/traffic accounting -----------------------------------------
  [[nodiscard]] std::uint64_t sends() const noexcept { return sends_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  /// Sends eaten by injected faults (blocked links / isolation), as
  /// opposed to the random `drop_probability` losses in drops().
  [[nodiscard]] std::uint64_t fault_drops() const noexcept {
    return fault_drops_;
  }
  [[nodiscard]] std::uint64_t backpressure_refusals() const noexcept {
    return refusals_;
  }
  [[nodiscard]] std::uint64_t bytes_delivered() const noexcept {
    return bytes_delivered_;
  }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_;
  }
  [[nodiscard]] std::uint64_t deliveries() const noexcept {
    return deliveries_;
  }
  [[nodiscard]] std::uint64_t chunks() const noexcept { return chunks_; }
  /// Bytes currently in flight across all endpoints / the largest such
  /// total ever observed.
  [[nodiscard]] std::size_t in_flight_bytes() const noexcept {
    return in_flight_total_;
  }
  [[nodiscard]] std::size_t in_flight_high_watermark() const noexcept {
    return in_flight_hwm_;
  }

  /// Export the hub's counters and in-flight gauges into `registry` as
  /// pull-based gauges under `prefix`. Telemetry never touches the hub's
  /// RNG, so seeded runs stay bit-reproducible with metrics attached.
  void attach_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "loopback.");

 private:
  bool do_send(Endpoint& from, NodeId to,
               std::span<const std::uint8_t> bytes);
  void deliver(NodeId from, NodeId to, std::uint32_t frame);
  void sever(NodeId a, NodeId b);

  Options opts_;
  TimerWheel wheel_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  /// One-way blocked directions, keyed (from << 32) | to.
  std::unordered_set<std::uint64_t> blocked_links_;
  /// In-flight frame bytes, indexed by the delivery timer's frame id.
  /// free_frames_ lists the pool slots not in flight; a freed slot keeps
  /// its capacity for the next frame.
  std::vector<std::vector<std::uint8_t>> frames_;
  std::vector<std::uint32_t> free_frames_;
  std::uint64_t sends_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t fault_drops_ = 0;
  std::uint64_t refusals_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t chunks_ = 0;
  std::size_t in_flight_total_ = 0;  ///< across all endpoints
  std::size_t in_flight_hwm_ = 0;
};

}  // namespace icollect::net
