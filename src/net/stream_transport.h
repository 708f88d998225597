#pragma once

/// \file stream_transport.h
/// Real-socket transport: nonblocking TCP driven by one single-threaded
/// event loop. Same Transport interface the loopback provides, so node
/// state machines move between the deterministic in-process world and
/// the OS network without a line of change.
///
///  - Readiness comes from one level-triggered epoll instance, so a
///    wakeup costs O(ready) however many connections are open (Linux
///    only; docs/PERFORMANCE.md, "Reactor architecture").
///  - Outbound connects are asynchronous with a connect timeout and a
///    bounded retry budget (linear backoff); the handler sees
///    on_peer_up on success or on_peer_down once the budget is spent.
///  - send() only appends to the connection's contiguous output queue.
///    poll_once() flushes every dirty connection once, after IO
///    dispatch and timers, so a burst of frames leaves in one send(2).
///    The queue is capped at `send_queue_cap_bytes`; send() refuses
///    (and counts) beyond it — backpressure surfaces to the caller
///    instead of ballooning memory.
///  - Reads drain into one reused transport-wide buffer, at most 16
///    chunks per fd per round so one busy peer cannot starve the rest.
///    Steady-state traffic allocates nothing.
///  - An optional idle read timeout reaps connections gone silent.
///  - The node TimerWheel is advanced off the wall clock by poll_once,
///    so node-level timers (gossip, TTL, pulls) fire with tick
///    granularity while the loop sleeps in epoll_wait.
///  - Counters are plain integer adds; attach_metrics() exports them as
///    pull-based gauges, so telemetry adds nothing to the IO hot path.
///  - Interrupted syscalls (EINTR — e.g. the SIGUSR1 stats dump) are
///    retried, never surfaced as transport errors.
///
/// Every TransportHandler callback fires on the thread driving
/// poll_once(); the transport starts no threads.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/timer_wheel.h"
#include "net/transport.h"
#include "obs/metrics_registry.h"

namespace icollect::net {

namespace detail {
class Epoll;  ///< the transport's epoll instance; stream_transport.cpp
}  // namespace detail

struct StreamOptions {
  double tick_seconds = 0.001;  ///< TimerWheel granularity
  std::size_t send_queue_cap_bytes = 4U << 20U;
  std::size_t read_chunk_bytes = 64U * 1024U;
  double connect_timeout = 5.0;  ///< per attempt, seconds
  int connect_retries = 3;       ///< attempts after the first
  double retry_backoff = 0.5;    ///< seconds, grows linearly
  double idle_timeout = 0.0;     ///< close silent conns; 0 = off
  int listen_backlog = 0;        ///< listen(2) backlog; 0 = SOMAXCONN
  int so_sndbuf = 0;             ///< SO_SNDBUF per conn; 0 = kernel default
};

class StreamTransport final : public Transport {
 public:
  /// Throws std::runtime_error when the epoll instance cannot be made.
  explicit StreamTransport(StreamOptions opts = {});
  ~StreamTransport() override;

  StreamTransport(const StreamTransport&) = delete;
  StreamTransport& operator=(const StreamTransport&) = delete;

  void set_handler(TransportHandler* handler) override { handler_ = handler; }

  /// Bind + listen. Pass port 0 for an ephemeral port; the bound port
  /// is returned either way. Throws std::runtime_error on failure.
  std::uint16_t listen(const std::string& host, std::uint16_t port);

  /// Begin an asynchronous connect; returns the connection handle
  /// immediately. Outcome arrives as on_peer_up / on_peer_down.
  NodeId connect(const std::string& host, std::uint16_t port);

  bool send(NodeId peer, std::span<const std::uint8_t> bytes) override;

  /// Flush what is queued for `peer` as far as the socket takes it
  /// without blocking, then close; on_peer_down fires before return.
  void close_peer(NodeId peer) override;

  /// Node-level timers (gossip, TTL, pulls); use only from the driving
  /// thread.
  [[nodiscard]] TimerWheel& timers() noexcept { return wheel_; }
  /// Wall-clock seconds since construction (the wheel's time base).
  [[nodiscard]] double now() const;

  /// One event-loop round: wait for IO for up to `max_wait` seconds
  /// (never past the next wheel tick, and not at all while sends are
  /// pending), dispatch handler callbacks, advance the timer wheel to
  /// the wall clock, then flush every dirty connection once.
  void poll_once(double max_wait = 0.05);

  /// Connections not yet closed (established + still connecting).
  [[nodiscard]] std::size_t open_connections() const noexcept {
    return conns_.size() - dead_.size();
  }
  [[nodiscard]] std::uint64_t backpressure_refusals() const noexcept {
    return refusals_;
  }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_;
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_;
  }
  [[nodiscard]] std::uint64_t connects_failed() const noexcept {
    return connects_failed_;
  }
  [[nodiscard]] std::uint64_t sends() const noexcept { return sends_; }
  [[nodiscard]] std::uint64_t accepts() const noexcept { return accepts_; }
  [[nodiscard]] std::uint64_t connects_ok() const noexcept {
    return connects_ok_;
  }
  [[nodiscard]] std::uint64_t connect_retries() const noexcept {
    return connect_retries_;
  }
  [[nodiscard]] std::uint64_t closes() const noexcept { return closes_; }
  [[nodiscard]] std::uint64_t idle_reaps() const noexcept { return reaps_; }
  [[nodiscard]] std::uint64_t partial_drains() const noexcept {
    return partial_drains_;
  }
  /// epoll_wait calls returned / ready fds they reported.
  [[nodiscard]] std::uint64_t wakeups() const noexcept { return wakeups_; }
  [[nodiscard]] std::uint64_t events_dispatched() const noexcept {
    return events_;
  }
  /// Unsent bytes currently queued across all connections / the largest
  /// such total ever observed.
  [[nodiscard]] std::size_t send_queue_bytes() const noexcept {
    return outq_bytes_;
  }
  [[nodiscard]] std::size_t send_queue_high_watermark() const noexcept {
    return outq_hwm_;
  }

  /// Export the transport's counters and queue gauges into `registry`
  /// as pull-based gauges under `prefix` (see docs/OBSERVABILITY.md for
  /// the inventory). The registry must outlive the transport's use.
  void attach_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix);

 private:
  enum class ConnState : std::uint8_t { kConnecting, kUp, kClosed };

  struct Conn {
    NodeId id = kInvalidNodeId;
    int fd = -1;
    ConnState state = ConnState::kConnecting;
    std::uint32_t interest = 0;  ///< epoll mask registered for fd; 0 = none
    bool dirty = false;          ///< queued for this round's flush
    std::string host;            ///< for retries (outbound only)
    std::uint16_t port = 0;
    int attempts = 0;
    TimerWheel::TimerId connect_timer = TimerWheel::kInvalidTimer;
    std::vector<std::uint8_t> outq;
    std::size_t out_head = 0;
    double last_activity = 0.0;
  };

  Conn* find_conn(NodeId id);
  Conn& register_conn(int fd, ConnState state);
  void accept_all();
  void dispatch(NodeId key, std::uint32_t events);
  void start_connect_attempt(Conn& conn);
  void fail_connect_attempt(Conn& conn);
  void finish_connect(Conn& conn);
  void close_fd(Conn& conn);
  void close_conn(Conn& conn);
  void update_interest(Conn& conn);
  void mark_dirty(Conn& conn);
  void handle_readable(Conn& conn);
  void flush_outq(Conn& conn);
  void flush_dirty();
  void reap_idle();
  void reap_closed();

  StreamOptions opts_;
  std::unique_ptr<detail::Epoll> epoll_;
  TimerWheel wheel_;
  TransportHandler* handler_ = nullptr;
  int listen_fd_ = -1;
  NodeId next_id_ = 1;
  std::unordered_map<NodeId, std::unique_ptr<Conn>> conns_;
  std::vector<NodeId> dead_;    ///< closed, erased at the end of a round
  std::vector<Conn*> dirty_;    ///< conns with sends since the last flush
  std::vector<std::uint8_t> read_buf_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t refusals_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t connects_failed_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t accepts_ = 0;
  std::uint64_t connects_ok_ = 0;
  std::uint64_t connect_retries_ = 0;
  std::uint64_t closes_ = 0;
  std::uint64_t reaps_ = 0;
  std::uint64_t partial_drains_ = 0;
  std::uint64_t wakeups_ = 0;
  std::uint64_t events_ = 0;
  std::size_t outq_bytes_ = 0;  ///< unsent bytes across all conns
  std::size_t outq_hwm_ = 0;
};

}  // namespace icollect::net
