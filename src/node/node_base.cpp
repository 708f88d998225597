#include "node/node_base.h"

#include <algorithm>
#include <utility>

namespace icollect::node {

NodeBase::NodeBase(const NodeConfig& cfg, net::Transport& transport,
                   net::TimerWheel& wheel, obs::MetricsRegistry* metrics,
                   std::string metric_prefix)
    : transport_{transport},
      wheel_{wheel},
      metrics_{metrics},
      metric_prefix_{std::move(metric_prefix)},
      cfg_{cfg} {
  cfg_.validate();
  transport_.set_handler(this);
  if (metrics_ != nullptr) {
    auto gauge = [this](const char* name, const std::uint64_t* v) {
      metrics_->gauge(metric_prefix_ + name,
                      [v] { return static_cast<double>(*v); });
    };
    gauge("frames_sent", &frames_sent_);
    gauge("frames_received", &frames_received_);
    gauge("wire_decode_errors", &decode_errors_);
    gauge("version_rejects", &version_rejects_);
    gauge("send_refusals", &send_refusals_);
    gauge("handshakes_ok", &handshakes_ok_);
    gauge("segment_rejects", &segment_rejects_);
    // One column per framing-error kind ("wire_err.bad-crc", ...), so a
    // run's snapshots show *why* sessions died, not only that they did.
    for (std::uint8_t s = 2; s < 8; ++s) {
      const auto status = static_cast<wire::DecodeStatus>(s);
      gauge((std::string{"wire_err."} + wire::to_string(status)).c_str(),
            &decode_errors_by_[s]);
    }
    metrics_->gauge(metric_prefix_ + "peer_sessions", [this] {
      return static_cast<double>(peer_conns_.size());
    });
    metrics_->gauge(metric_prefix_ + "server_sessions", [this] {
      return static_cast<double>(server_conns_.size());
    });
  }
}

void NodeBase::on_peer_up(net::NodeId conn) {
  auto session = std::make_unique<Session>();
  session->conn = conn;
  Session& ref = *session;
  sessions_[conn] = std::move(session);
  // Both sides open with HELLO; the session is usable once the remote's
  // HELLO arrives and negotiation succeeds.
  wire::Hello hello;
  hello.role = role();
  hello.version_min = wire::kProtocolVersion;
  hello.version_max = wire::kProtocolVersion;
  hello.flags = hello_flags();
  hello.node_id = cfg_.node_id;
  hello.segment_size = static_cast<std::uint16_t>(cfg_.segment_size);
  hello.buffer_cap = role() == wire::NodeRole::kPeer
                         ? static_cast<std::uint32_t>(cfg_.buffer_cap)
                         : 0U;
  send_message(ref.conn, wire::Message{hello});
}

void NodeBase::drop_from_roster(net::NodeId conn, wire::NodeRole remote_role) {
  auto& roster = remote_role == wire::NodeRole::kPeer ? peer_conns_
                                                      : server_conns_;
  const auto it = std::find(roster.begin(), roster.end(), conn);
  if (it != roster.end()) roster.erase(it);
}

void NodeBase::on_peer_down(net::NodeId conn) {
  const auto it = sessions_.find(conn);
  if (it == sessions_.end()) return;
  Session& session = *it->second;
  if (session.established) {
    drop_from_roster(conn, session.remote.role);
    on_session_closed(session);
  }
  sessions_.erase(it);
}

void NodeBase::on_bytes(net::NodeId conn,
                        std::span<const std::uint8_t> bytes) {
  Session* session = find_session(conn);
  if (session == nullptr) return;
  session->decoder.feed(bytes);
  for (;;) {
    auto result = session->decoder.next();
    if (result.status == wire::DecodeStatus::kNeedMore) return;
    if (wire::is_error(result.status)) {
      ++decode_errors_;
      ++decode_errors_by_[static_cast<std::size_t>(result.status)];
      end_session(conn, wire::ByeReason::kProtocolError);
      return;
    }
    ++frames_received_;
    if (!session->established) {
      if (const auto* hello = std::get_if<wire::Hello>(&result.message)) {
        handle_hello(*session, *hello);
      } else {
        // Anything before HELLO is a protocol violation.
        end_session(conn, wire::ByeReason::kProtocolError);
        return;
      }
    } else if (std::holds_alternative<wire::Bye>(result.message)) {
      transport_.close_peer(conn);
      on_peer_down(conn);
      return;
    } else {
      handle_message(*session, std::move(result.message));
    }
    // The handler may have torn the session down.
    session = find_session(conn);
    if (session == nullptr) return;
  }
}

void NodeBase::handle_hello(Session& session, const wire::Hello& hello) {
  const std::uint8_t lo = std::max<std::uint8_t>(hello.version_min,
                                                 wire::kProtocolVersion);
  const std::uint8_t hi = std::min<std::uint8_t>(hello.version_max,
                                                 wire::kProtocolVersion);
  if (lo > hi) {
    ++version_rejects_;
    end_session(session.conn, wire::ByeReason::kVersionMismatch);
    return;
  }
  if (hello.segment_size != cfg_.segment_size) {
    // Mixed-s populations cannot exchange coded blocks; refuse early.
    ++segment_rejects_;
    end_session(session.conn, wire::ByeReason::kProtocolError);
    return;
  }
  ++handshakes_ok_;
  session.remote = hello;
  session.version = hi;
  session.established = true;
  auto& roster = hello.role == wire::NodeRole::kPeer ? peer_conns_
                                                     : server_conns_;
  roster.push_back(session.conn);
  on_session_established(session);
}

bool NodeBase::send_message(net::NodeId conn, const wire::Message& message) {
  frame_scratch_.clear();
  wire::encode_frame(message, frame_scratch_);
  if (!transport_.send(conn, frame_scratch_)) {
    ++send_refusals_;
    return false;
  }
  ++frames_sent_;
  return true;
}

void NodeBase::end_session(net::NodeId conn, wire::ByeReason reason) {
  send_message(conn, wire::Message{wire::Bye{reason}});
  transport_.close_peer(conn);
  on_peer_down(conn);
}

NodeBase::Session* NodeBase::find_session(net::NodeId conn) {
  const auto it = sessions_.find(conn);
  return it == sessions_.end() ? nullptr : it->second.get();
}

}  // namespace icollect::node
