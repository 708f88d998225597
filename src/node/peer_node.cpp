#include "node/peer_node.h"

#include <utility>

namespace icollect::node {

namespace {
constexpr auto kHonestEgress = proto::PeerCore::EgressResult::kHonest;
}  // namespace

proto::PeerCore::Params PeerNode::core_params(const NodeConfig& cfg) {
  proto::PeerCore::Params params;
  params.segment_size = cfg.segment_size;
  params.buffer_cap = cfg.buffer_cap;
  params.gamma = cfg.gamma;
  params.payload_bytes = cfg.payload_bytes;
  params.drop_on_ack = cfg.drop_on_ack;
  params.retain_own_until_acked = cfg.retain_own_until_acked;
  // The simulator keeps CRCs in its global registry; a live node records
  // them in the core so tests can verify byte-exact recovery end-to-end.
  params.record_own_crcs = true;
  params.byzantine = cfg.byzantine;
  params.corruption = cfg.corruption;
  return params;
}

PeerNode::PeerNode(const NodeConfig& cfg, net::Transport& transport,
                   net::TimerWheel& wheel, obs::MetricsRegistry* metrics,
                   const std::string& metric_prefix)
    : NodeBase{cfg, transport, wheel, metrics, metric_prefix},
      rng_{cfg.seed},
      core_{core_params(cfg), cfg.node_id, rng_} {
  // The core draws each block's Exp(γ) lifetime; expiry runs on the
  // shared wheel (virtual ticks over loopback, wall ticks over TCP).
  core_.set_arm_ttl([this](coding::BlockHandle handle, double delay) {
    wheel_.schedule_after(delay, [this, handle] { on_ttl_expire(handle); });
  });
  if (metrics_ != nullptr) {
    auto gauge = [this](const char* name, const std::uint64_t* v) {
      metrics_->gauge(metric_prefix_ + name,
                      [v] { return static_cast<double>(*v); });
    };
    gauge("segments_injected", &segments_injected_);
    gauge("injection_blocked", &injection_blocked_);
    gauge("gossip_sent", &gossip_sent_);
    gauge("gossip_idle", &gossip_idle_);
    gauge("gossip_no_target", &gossip_no_target_);
    gauge("blocks_received", &blocks_received_);
    gauge("blocks_dropped_full", &blocks_dropped_full_);
    gauge("blocks_dropped_rank", &blocks_dropped_rank_);
    gauge("blocks_dropped_acked", &blocks_dropped_acked_);
    gauge("ttl_expirations", &ttl_expirations_);
    gauge("pull_replies", &pull_replies_);
    gauge("pull_empty_replies", &pull_empty_replies_);
    gauge("acks_received", &acks_received_);
    gauge("own_segments_acked", &own_acked_);
    gauge("blocks_quarantined", &blocks_quarantined_);
    gauge("blocks_corrupted", &blocks_corrupted_);
    metrics_->gauge(metric_prefix_ + "retained_segments", [this] {
      return static_cast<double>(core_.retained_segments());
    });
    metrics_->gauge(metric_prefix_ + "buffer_blocks", [this] {
      return static_cast<double>(core_.buffer().size());
    });
    metrics_->gauge(metric_prefix_ + "buffer_segments", [this] {
      return static_cast<double>(core_.buffer().segment_count());
    });
    metrics_->gauge(metric_prefix_ + "acked_segments", [this] {
      return static_cast<double>(core_.acked_count());
    });
    metrics_->gauge(metric_prefix_ + "own_crc_segments", [this] {
      return static_cast<double>(core_.own_crc_count());
    });
  }
}

void PeerNode::start() {
  if (config().lambda > 0.0 || arrival_ != nullptr) schedule_inject();
  if (config().mu > 0.0) schedule_gossip();
}

void PeerNode::stop_injection() { injection_stopped_ = true; }

bool PeerNode::injection_done() const noexcept {
  return injection_stopped_ ||
         (config().max_segments > 0 &&
          segments_injected_ >= config().max_segments);
}

void PeerNode::schedule_inject() {
  // Segment arrivals at rate λ/s — the paper's block process thinned to
  // whole segments, matching p2p::Network's injector exactly. With an
  // arrival profile attached (trace replay) the process is
  // nonhomogeneous instead: the next event comes from Lewis-Shedler
  // thinning at λ(t)/s.
  double delay;
  if (arrival_ != nullptr) {
    const workload::ScaledProfile segments{
        *arrival_, 1.0 / static_cast<double>(config().segment_size)};
    if (segments.max_rate() <= 0.0) return;  // flat-zero profile
    const double now = wheel_.now();
    delay = workload::next_arrival(segments, now, rng_) - now;
  } else {
    const double rate =
        config().lambda / static_cast<double>(config().segment_size);
    delay = rng_.exponential(rate);
  }
  wheel_.schedule_after(delay, [this] {
    if (!injection_done()) {
      do_inject();
      schedule_inject();
    }
  });
}

void PeerNode::do_inject() {
  if (!core_.can_inject()) {
    ++injection_blocked_;
    return;
  }
  const coding::SegmentId id = core_.next_segment_id();
  ++segments_injected_;
  trace(proto::TraceEventKind::kSegmentInjected, config().node_id, id,
        config().segment_size);
  core_.inject();
}

void PeerNode::on_ttl_expire(coding::BlockHandle handle) {
  const auto seg = core_.on_ttl_expired(handle);
  if (!seg) return;  // already dropped on ack
  ++ttl_expirations_;
  trace(proto::TraceEventKind::kTtlExpired, config().node_id, *seg, 0);
}

void PeerNode::schedule_gossip() {
  wheel_.schedule_after(rng_.exponential(config().mu), [this] {
    do_gossip();
    schedule_gossip();
  });
}

void PeerNode::do_gossip() {
  if (!core_.has_blocks()) {
    ++gossip_idle_;
    return;
  }
  if (peer_conns().empty()) {
    ++gossip_no_target_;
    return;
  }
  const coding::SegmentId seg = core_.choose_gossip_segment();
  const net::NodeId target =
      peer_conns()[rng_.uniform_index(peer_conns().size())];
  coding::CodedBlock block = core_.recode(seg);
  if (core_.corrupt_egress(block) != kHonestEgress) ++blocks_corrupted_;
  // Trace the segment actually on the wire: a replaying adversary may
  // substitute a cached block of a different segment.
  const coding::SegmentId sent = block.segment;
  if (send_message(target, wire::Message{wire::GossipBlock{std::move(block)}})) {
    ++gossip_sent_;
    trace(proto::TraceEventKind::kGossipSent, config().node_id, sent, target);
  }
}

void PeerNode::accept_block(coding::CodedBlock&& block, net::NodeId from) {
  ++blocks_received_;
  // Copy the id before the move: the quarantine trace needs it.
  const coding::SegmentId seg = block.segment;
  switch (core_.accept(std::move(block))) {
    case proto::PeerCore::AcceptResult::kStored:
      break;
    case proto::PeerCore::AcceptResult::kShapeMismatch:
      break;  // junk a conforming peer never sends; dropped silently
    case proto::PeerCore::AcceptResult::kPolluted:
      ++blocks_quarantined_;
      trace(proto::TraceEventKind::kBlockQuarantined, config().node_id, seg,
            from);
      break;
    case proto::PeerCore::AcceptResult::kAckedSegment:
      ++blocks_dropped_acked_;
      break;
    case proto::PeerCore::AcceptResult::kBufferFull:
      ++blocks_dropped_full_;
      break;
    case proto::PeerCore::AcceptResult::kSegmentFullRank:
      ++blocks_dropped_rank_;
      break;
  }
}

void PeerNode::handle_pull_request(Session& session,
                                   const wire::PullRequest& req) {
  wire::PullBlock reply;
  reply.token = req.token;
  reply.occupancy = static_cast<std::uint32_t>(core_.buffer().size());
  // A scheduling server names the segment it wants; answer with a
  // re-code of it when buffered, falling back to the paper's uniform
  // rule when availability knowledge was stale.
  reply.has_block =
      (req.want && core_.answer_pull_for(*req.want, reply.block)) ||
      core_.answer_pull(reply.block);
  if (reply.has_block &&
      core_.corrupt_egress(reply.block) != kHonestEgress) {
    ++blocks_corrupted_;
  }
  if (reply.has_block) {
    ++pull_replies_;
  } else {
    ++pull_empty_replies_;
  }
  send_message(session.conn, wire::Message{std::move(reply)});
  if (req.want_summary) {
    // Piggyback the availability report the server asked for (bounded
    // by its staleness window, so this is per-window, not per-pull).
    wire::BufferSummary summary;
    summary.segments = core_.buffer().segments();
    if (summary.segments.size() > wire::kMaxSummarySegments) {
      summary.segments.resize(wire::kMaxSummarySegments);
    }
    send_message(session.conn, wire::Message{std::move(summary)});
  }
}

void PeerNode::handle_ack(const coding::SegmentId& id) {
  ++acks_received_;
  switch (core_.on_ack(id)) {
    case proto::PeerCore::AckResult::kDuplicate:  // multi-server
      break;
    case proto::PeerCore::AckResult::kOwnSegment:
      ++own_acked_;
      break;
    case proto::PeerCore::AckResult::kOtherSegment:
      break;
  }
}

void PeerNode::handle_message(Session& session, wire::Message&& message) {
  if (auto* gossip = std::get_if<wire::GossipBlock>(&message)) {
    accept_block(std::move(gossip->block), session.conn);
  } else if (const auto* req = std::get_if<wire::PullRequest>(&message)) {
    handle_pull_request(session, *req);
  } else if (const auto* ack =
                 std::get_if<wire::SegmentDecodedAck>(&message)) {
    handle_ack(ack->segment);
  } else {
    // HELLO twice, or a PULL_BLOCK sent to a peer: protocol violation.
    end_session(session.conn, wire::ByeReason::kProtocolError);
  }
}

}  // namespace icollect::node
