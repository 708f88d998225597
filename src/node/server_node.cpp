#include "node/server_node.h"

#include <memory>
#include <optional>
#include <utility>

#include "common/assert.h"
#include "proto/selection.h"
#include "sched/pull_policies.h"

namespace icollect::node {

ServerNode::ServerNode(const NodeConfig& cfg, net::Transport& transport,
                       net::TimerWheel& wheel, obs::MetricsRegistry* metrics,
                       const std::string& metric_prefix)
    : NodeBase{cfg, transport, wheel, metrics, metric_prefix},
      rng_{cfg.seed},
      wheel_clock_{[this] { return wheel_.now(); }},
      core_{/*keep_payloads=*/false, wheel_clock_} {
  if (proto::wants_feedback(cfg.pull_policy)) {
    tracker_ = std::make_unique<sched::RankTracker>();
  }
  core_.set_decode_callback(
      [this](const proto::ServerBank::DecodeEvent& ev) {
        on_bank_decode(ev);
      });
  if (metrics_ != nullptr) {
    auto gauge = [this](const char* name, const std::uint64_t* v) {
      metrics_->gauge(metric_prefix_ + name,
                      [v] { return static_cast<double>(*v); });
    };
    gauge("pulls_sent", &pulls_sent_);
    gauge("pull_replies", &pull_replies_);
    gauge("pull_empty_replies", &pull_empty_replies_);
    gauge("pulls_starved", &pulls_starved_);
    gauge("innovative_pulls", &innovative_pulls_);
    gauge("redundant_pulls", &redundant_pulls_);
    gauge("stale_pulls", &stale_pulls_);
    gauge("forwarded_out", &forwarded_out_);
    gauge("forwarded_in", &forwarded_in_);
    gauge("acks_sent", &acks_sent_);
    gauge("acks_received", &acks_received_);
    gauge("polluted_pulls", &polluted_pulls_);
    gauge("segments_decoded", &segments_decoded_metric_);
    metrics_->gauge(metric_prefix_ + "polluted_blocks", [this] {
      return static_cast<double>(core_.polluted_blocks());
    });
    metrics_->gauge(metric_prefix_ + "bank_in_progress", [this] {
      return static_cast<double>(core_.bank().segments_in_progress());
    });
    metrics_->gauge(metric_prefix_ + "pending_pulls", [this] {
      return static_cast<double>(pending_pulls_.size());
    });
    metrics_->gauge(metric_prefix_ + "advertised_segments", [this] {
      return tracker_ != nullptr
                 ? static_cast<double>(tracker_->advertised_segments())
                 : 0.0;
    });
  }
  // Latency histograms are always recorded; with metrics attached they
  // live in the registry so snapshots export their quantiles.
  pull_rtt_ = metrics_ != nullptr
                  ? &metrics_->latency(metric_prefix_ + "pull_rtt")
                  : &own_pull_rtt_;
  decode_latency_ =
      metrics_ != nullptr
          ? &metrics_->latency(metric_prefix_ + "decode_latency")
          : &own_decode_latency_;
}

void ServerNode::start() {
  if (config().server_rate > 0.0) schedule_pull();
}

void ServerNode::schedule_pull() {
  // Exponential inter-arrival times make demanded pulls a Poisson
  // process, but the wheel rounds every delay up to a whole tick — one
  // arrival per callback would cap the server at 1/tick pulls per
  // second (~1k/s at the default 1 ms tick) no matter what server_rate
  // asks for. Arrivals whose gaps land inside one tick are therefore
  // batched: keep drawing until the cumulative delay crosses a tick
  // boundary, then fire the whole batch on that tick. The per-tick
  // pull count stays Poisson(server_rate * tick).
  double delay = rng_.exponential(config().server_rate);
  std::uint32_t burst = 1;
  const double tick = wheel_.tick_seconds();
  while (delay < tick && burst < kMaxPullBurst) {
    delay += rng_.exponential(config().server_rate);
    ++burst;
  }
  wheel_.schedule_after(delay, [this, burst] {
    for (std::uint32_t i = 0; i < burst; ++i) do_pull();
    schedule_pull();
  });
}

void ServerNode::do_pull() {
  // The paper's rule: uniform over peers with non-null buffers. A live
  // server only knows occupancy as of each peer's last PULL_BLOCK, so
  // zero reports age out after kOccupancyRefresh and unknown peers are
  // treated as non-empty (optimistic).
  const double t = wheel_.now();
  const std::vector<net::NodeId>& conns = peer_conns();
  if (conns.empty()) {
    ++pulls_starved_;
    return;
  }
  const auto eligible = [&](net::NodeId conn) {
    const auto it = occupancy_.find(conn);
    return it == occupancy_.end() || it->second.blocks != 0 ||
           t - it->second.reported_at >= kOccupancyRefresh;
  };
  // Uniform-over-eligible selection: rejection sampling over roster
  // indices, with the exhaustive-scan fallback when every probe rejects
  // (proto/selection.h). Conditioning a uniform draw on eligibility IS
  // the uniform distribution over eligible peers, at O(1) expected cost
  // instead of O(n) per pull.
  const auto eligible_index = [&](std::size_t i) { return eligible(conns[i]); };
  // Scheduling policies first ask for a wanted segment, then bias peer
  // selection toward eligible peers whose last BUFFER_SUMMARY (within
  // the tracker's staleness bound) advertises it. When no advertiser is
  // known the pull falls back to the uniform rule with the want
  // cleared — the answering peer chooses from its own buffer, which
  // doubles as discovery of segments the tracker has not seen yet.
  std::optional<coding::SegmentId> want;
  std::size_t pick = proto::kNoSelection;
  if (tracker_ != nullptr) {
    want = sched::next_want(config().pull_policy, rng_, *tracker_);
  }
  if (want) {
    const auto roster_index = [&](std::uint64_t peer) {
      const auto it = roster_pos_.find(static_cast<net::NodeId>(peer));
      if (it == roster_pos_.end()) return proto::kNoSelection;
      ICOLLECT_ENSURES(it->second < conns.size() &&
                       conns[it->second] == peer);
      return it->second;
    };
    pick = sched::pick_advertiser(rng_, *tracker_, *want, t, conns.size(),
                                  kPullProbes, roster_index,
                                  proto::EligibleRef{eligible_index},
                                  candidates_);
    if (pick == proto::kNoSelection) want.reset();
  }
  if (pick == proto::kNoSelection) {
    pick = proto::uniform_over_eligible(rng_, conns.size(), kPullProbes,
                                        proto::EligibleRef{eligible_index});
  }
  if (pick == proto::kNoSelection) {
    ++pulls_starved_;
    return;
  }
  const net::NodeId target = conns[pick];
  const std::uint32_t token = next_token_++;
  wire::PullRequest request;
  request.token = token;
  if (tracker_ != nullptr) {
    request.want = want;
    // Bounded-staleness feedback: ask for a summary only when the
    // target's last one has aged out — one summary per peer per
    // staleness window, not per pull.
    request.want_summary = !tracker_->peer_fresh(target, t);
    if (want) ++targeted_pulls_;
  }
  if (send_message(target, wire::Message{request})) {
    ++pulls_sent_;
    // Tokens are sequential, so expiring the one kMaxPendingPulls back
    // bounds the map without dropping any younger pull's RTT sample.
    pending_pulls_.erase(token - kMaxPendingPulls);
    pending_pulls_.emplace(token, t);
  }
}

void ServerNode::handle_pull_block(Session& session,
                                   wire::PullBlock&& reply) {
  occupancy_[session.conn] =
      OccupancyInfo{reply.occupancy, wheel_.now()};
  if (const auto it = pending_pulls_.find(reply.token);
      it != pending_pulls_.end()) {
    pull_rtt_->record_seconds(wheel_.now() - it->second);
    pending_pulls_.erase(it);
  }
  if (!reply.has_block) {
    ++pull_empty_replies_;
    return;
  }
  ++pull_replies_;
  if (reply.block.segment_size() != config().segment_size ||
      reply.block.is_degenerate()) {
    return;  // junk a conforming peer never sends
  }
  offer_to_bank(reply.block, /*from_pull=*/true, session.conn);
}

void ServerNode::offer_to_bank(const coding::CodedBlock& block,
                               bool from_pull, net::NodeId from_conn) {
  // Stamp the segment's first sighting before the offer: if this very
  // block completes the decode, on_bank_decode fires inside offer() and
  // consumes the stamp.
  if (!core_.bank().is_decoded(block.segment)) {
    first_seen_.emplace(block.segment, wheel_.now());
  }
  const auto result =
      from_pull ? core_.on_pull_block(block) : core_.on_forwarded_block(block);
  if (result == proto::ServerBank::PullResult::kPolluted) {
    // Quarantined before Gaussian elimination; the pull is spent. The
    // core counts forwarded pollution too (polluted_blocks()).
    if (from_pull) {
      ++polluted_pulls_;
      trace(proto::TraceEventKind::kBlockQuarantined, config().node_id,
            block.segment, from_conn);
    }
    return;
  }
  if (tracker_ != nullptr) {
    sched::feed_outcome(*tracker_, core_.bank(), block.segment,
                        config().segment_size, result,
                        from_pull ? std::optional<std::uint64_t>{from_conn}
                                  : std::nullopt);
  }
  if (!from_pull) return;  // forwarded blocks don't count as pulls
  trace(proto::TraceEventKind::kServerPull, from_conn, block.segment,
        result == proto::ServerBank::PullResult::kInnovative ? 1 : 0);
  switch (result) {
    case proto::ServerBank::PullResult::kInnovative:
      ++innovative_pulls_;
      break;
    case proto::ServerBank::PullResult::kRedundant:
      ++redundant_pulls_;
      break;
    case proto::ServerBank::PullResult::kAlreadyDecoded:
      ++stale_pulls_;
      break;
    case proto::ServerBank::PullResult::kPolluted:
      break;  // handled above
  }
  if (proto::ServerCore::should_forward(result)) {
    // Pooled-state forwarding: let the other servers' banks absorb
    // what this pull contributed. Iterate a copy: a hard send failure
    // can tear down the session and mutate the roster mid-loop.
    const std::vector<net::NodeId> servers = server_conns();
    for (const net::NodeId conn : servers) {
      if (send_message(conn, wire::Message{wire::GossipBlock{block}})) {
        ++forwarded_out_;
      }
    }
  }
}

void ServerNode::on_bank_decode(const proto::ServerBank::DecodeEvent& event) {
  // The bank fires this callback before recording the segment as
  // decoded, so count the event rather than reading bank state.
  ++segments_decoded_metric_;
  if (const auto it = first_seen_.find(event.id); it != first_seen_.end()) {
    decode_latency_->record_seconds(event.when - it->second);
    first_seen_.erase(it);
  }
  trace(proto::TraceEventKind::kSegmentDecoded, 0, event.id,
        config().segment_size);
  const wire::Message ack{wire::SegmentDecodedAck{event.id}};
  const auto origin_it = peer_by_id_.find(event.id.origin);
  const net::NodeId origin = origin_it != peer_by_id_.end()
                                 ? origin_it->second
                                 : net::kInvalidNodeId;
  if (all_ack_sessions_ == 0) {
    if (origin != net::kInvalidNodeId && send_message(origin, ack)) {
      ++acks_sent_;
    }
  } else {
    // Roster order: when every peer asks for every ACK, the frames go
    // out exactly as a broadcast to all peers would send them. Iterate
    // a copy: send_message can tear down a session (transport send
    // failure -> on_peer_down -> drop_from_roster) mid-loop.
    const std::vector<net::NodeId> peers = peer_conns();
    for (const net::NodeId conn : peers) {
      const Session* session = find_session(conn);
      if (session == nullptr) continue;
      if ((conn == origin || wire::wants_all_acks(session->remote)) &&
          send_message(conn, ack)) {
        ++acks_sent_;
      }
    }
  }
  if (decode_hook_) decode_hook_(event);
}

void ServerNode::handle_message(Session& session, wire::Message&& message) {
  if (auto* reply = std::get_if<wire::PullBlock>(&message)) {
    handle_pull_block(session, std::move(*reply));
  } else if (const auto* gossip = std::get_if<wire::GossipBlock>(&message)) {
    // Server→server forwarding of an innovative pulled block; peers
    // never gossip at servers, but tolerating it costs nothing.
    ++forwarded_in_;
    if (gossip->block.segment_size() == config().segment_size &&
        !gossip->block.is_degenerate()) {
      offer_to_bank(gossip->block, /*from_pull=*/false, session.conn);
    }
  } else if (std::holds_alternative<wire::SegmentDecodedAck>(message)) {
    // Only an older server ACKs servers; our own bank converges via
    // forwarding, so the ACK carries nothing we need.
    ++acks_received_;
  } else if (const auto* summary =
                 std::get_if<wire::BufferSummary>(&message)) {
    // Availability feedback a peer piggybacked on a pull reply. A
    // server that never asked (uniform policy, tracker-less) tolerates
    // strays rather than tearing the session down.
    if (tracker_ != nullptr) {
      ++summaries_received_;
      tracker_->merge_summary(session.conn, summary->segments, wheel_.now());
    }
  } else {
    end_session(session.conn, wire::ByeReason::kProtocolError);
  }
}

void ServerNode::on_session_established(Session& session) {
  if (session.remote.role != wire::NodeRole::kPeer) return;
  // NodeBase appends a newly established session to its roster.
  ICOLLECT_ENSURES(peer_conns().back() == session.conn);
  roster_pos_[session.conn] = peer_conns().size() - 1;
  peer_by_id_[session.remote.node_id] = session.conn;
  if (wire::wants_all_acks(session.remote)) ++all_ack_sessions_;
}

void ServerNode::on_session_closed(Session& session) {
  occupancy_.erase(session.conn);
  if (tracker_ != nullptr) tracker_->forget_peer(session.conn);
  if (session.remote.role != wire::NodeRole::kPeer) return;
  // Only sessions at or after the closed one can have moved.
  if (const auto it = roster_pos_.find(session.conn);
      it != roster_pos_.end()) {
    const std::vector<net::NodeId>& conns = peer_conns();
    for (std::size_t i = it->second; i < conns.size(); ++i) {
      roster_pos_[conns[i]] = i;
    }
    roster_pos_.erase(it);
  }
  if (const auto it = peer_by_id_.find(session.remote.node_id);
      it != peer_by_id_.end() && it->second == session.conn) {
    peer_by_id_.erase(it);
  }
  if (wire::wants_all_acks(session.remote)) --all_ack_sessions_;
}

}  // namespace icollect::node
