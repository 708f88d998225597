#pragma once

/// \file node_base.h
/// Session plumbing shared by PeerNode and ServerNode: per-connection
/// frame reassembly, the HELLO handshake with version negotiation, and
/// role-sorted rosters of established sessions.
///
/// A node never trusts the transport for identity or message framing —
/// each connection gets its own wire::FrameDecoder, and a session only
/// becomes *established* (eligible for gossip/pulls) after a HELLO
/// whose version range intersects ours and whose segment size matches.
/// Any framing error or protocol violation ends the session with a BYE
/// and a counter, never an exception: malformed bytes from one peer
/// must not take the node down.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/timer_wheel.h"
#include "net/transport.h"
#include "node/node_config.h"
#include "obs/metrics_registry.h"
#include "proto/trace.h"
#include "wire/frame.h"
#include "wire/message.h"

namespace icollect::node {

class NodeBase : public net::TransportHandler {
 public:
  NodeBase(const NodeConfig& cfg, net::Transport& transport,
           net::TimerWheel& wheel, obs::MetricsRegistry* metrics,
           std::string metric_prefix);
  ~NodeBase() override = default;

  NodeBase(const NodeBase&) = delete;
  NodeBase& operator=(const NodeBase&) = delete;

  // --- net::TransportHandler ---------------------------------------------
  void on_peer_up(net::NodeId conn) final;
  void on_peer_down(net::NodeId conn) final;
  void on_bytes(net::NodeId conn, std::span<const std::uint8_t> bytes) final;

  [[nodiscard]] const NodeConfig& config() const noexcept { return cfg_; }

  /// Established sessions whose remote is a peer / a server.
  [[nodiscard]] std::size_t peer_session_count() const noexcept {
    return peer_conns_.size();
  }
  [[nodiscard]] std::size_t server_session_count() const noexcept {
    return server_conns_.size();
  }

  // --- wire accounting ----------------------------------------------------
  [[nodiscard]] std::uint64_t frames_sent() const noexcept {
    return frames_sent_;
  }
  [[nodiscard]] std::uint64_t frames_received() const noexcept {
    return frames_received_;
  }
  [[nodiscard]] std::uint64_t decode_errors() const noexcept {
    return decode_errors_;
  }
  /// Session-ending decode errors of one specific kind.
  [[nodiscard]] std::uint64_t decode_errors_by(
      wire::DecodeStatus s) const noexcept {
    return decode_errors_by_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t version_rejects() const noexcept {
    return version_rejects_;
  }
  [[nodiscard]] std::uint64_t send_refusals() const noexcept {
    return send_refusals_;
  }

  // --- handshake outcomes -------------------------------------------------
  [[nodiscard]] std::uint64_t handshakes_ok() const noexcept {
    return handshakes_ok_;
  }
  [[nodiscard]] std::uint64_t segment_rejects() const noexcept {
    return segment_rejects_;
  }

  /// Observe protocol-level events (inject/gossip/ttl/pull/decode) as
  /// proto::TraceEvents stamped with the wheel's time — the same stream
  /// the simulator's engine emits, so one TraceBuffer / analysis script
  /// serves both worlds. Pass nullptr-equivalent (default-constructed)
  /// to detach.
  void set_trace_sink(proto::TraceSink sink) { trace_sink_ = std::move(sink); }

 protected:
  struct Session {
    net::NodeId conn = net::kInvalidNodeId;
    wire::FrameDecoder decoder;
    bool established = false;
    wire::Hello remote;          ///< meaningful once established
    std::uint8_t version = 0;    ///< negotiated protocol version
  };

  /// The role this node advertises in its HELLO.
  [[nodiscard]] virtual wire::NodeRole role() const noexcept = 0;

  /// The wire::kHello* bits this node advertises in its HELLO.
  [[nodiscard]] virtual std::uint8_t hello_flags() const noexcept {
    return 0;
  }

  /// A non-HELLO message arrived on an established session.
  virtual void handle_message(Session& session, wire::Message&& message) = 0;

  /// Hooks around the session lifecycle (rosters already updated).
  virtual void on_session_established(Session& session) { (void)session; }
  virtual void on_session_closed(Session& session) { (void)session; }

  /// Frame and send one message. Returns false when the transport
  /// refused (backpressure / dead connection); the message is dropped
  /// and counted.
  bool send_message(net::NodeId conn, const wire::Message& message);

  /// Send BYE (best-effort) and close the connection.
  void end_session(net::NodeId conn, wire::ByeReason reason);

  [[nodiscard]] Session* find_session(net::NodeId conn);

  /// Established connections by remote role, in establishment order —
  /// indexable for deterministic uniform random selection.
  [[nodiscard]] const std::vector<net::NodeId>& peer_conns() const noexcept {
    return peer_conns_;
  }
  [[nodiscard]] const std::vector<net::NodeId>& server_conns()
      const noexcept {
    return server_conns_;
  }

  /// Emit one trace event stamped with the wheel's current time; a
  /// single branch when no sink is installed.
  void trace(proto::TraceEventKind kind, std::size_t slot,
             coding::SegmentId segment, std::uint64_t aux) {
    if (!trace_sink_) return;
    trace_sink_(proto::TraceEvent{kind, wheel_.now(), slot, segment, aux});
  }

  net::Transport& transport_;
  net::TimerWheel& wheel_;
  obs::MetricsRegistry* metrics_;
  const std::string metric_prefix_;

 private:
  void handle_hello(Session& session, const wire::Hello& hello);
  void drop_from_roster(net::NodeId conn, wire::NodeRole remote_role);

  NodeConfig cfg_;
  std::unordered_map<net::NodeId, std::unique_ptr<Session>> sessions_;
  std::vector<net::NodeId> peer_conns_;
  std::vector<net::NodeId> server_conns_;
  std::vector<std::uint8_t> frame_scratch_;
  proto::TraceSink trace_sink_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::array<std::uint64_t, 8> decode_errors_by_{};  ///< by DecodeStatus
  std::uint64_t version_rejects_ = 0;
  std::uint64_t send_refusals_ = 0;
  std::uint64_t handshakes_ok_ = 0;
  std::uint64_t segment_rejects_ = 0;
};

}  // namespace icollect::node
