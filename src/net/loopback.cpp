#include "net/loopback.h"

#include <algorithm>
#include <utility>

namespace icollect::net {

LoopbackNet::LoopbackNet(Options opts)
    : opts_{opts}, wheel_{opts.tick_seconds}, rng_{opts.seed} {
  ICOLLECT_EXPECTS(opts.latency >= 0.0);
  ICOLLECT_EXPECTS(opts.latency_jitter >= 0.0);
  ICOLLECT_EXPECTS(opts.drop_probability >= 0.0 &&
                   opts.drop_probability < 1.0);
}

LoopbackNet::Endpoint& LoopbackNet::create_endpoint() {
  const auto id = static_cast<NodeId>(endpoints_.size());
  endpoints_.emplace_back(new Endpoint{this, id});
  for (auto& ep : endpoints_) {
    ep->links_.resize(endpoints_.size(), 0);
  }
  return *endpoints_.back();
}

void LoopbackNet::connect(NodeId a, NodeId b) {
  ICOLLECT_EXPECTS(a != b);
  Endpoint& ea = endpoint(a);
  Endpoint& eb = endpoint(b);
  if (ea.links_[b] != 0) return;  // already wired
  ea.links_[b] = 1;
  eb.links_[a] = 1;
  if (ea.handler_ != nullptr) ea.handler_->on_peer_up(b);
  if (eb.handler_ != nullptr) eb.handler_->on_peer_up(a);
}

void LoopbackNet::sever(NodeId a, NodeId b) {
  Endpoint& ea = endpoint(a);
  Endpoint& eb = endpoint(b);
  if (ea.links_[b] == 0) return;
  ea.links_[b] = 0;
  eb.links_[a] = 0;
  if (ea.handler_ != nullptr) ea.handler_->on_peer_down(b);
  if (eb.handler_ != nullptr) eb.handler_->on_peer_down(a);
}

void LoopbackNet::disconnect(NodeId a, NodeId b) { sever(a, b); }

namespace {
constexpr std::uint64_t link_key(NodeId from, NodeId to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32U) | to;
}
}  // namespace

void LoopbackNet::block_link(NodeId from, NodeId to) {
  ICOLLECT_EXPECTS(from < endpoints_.size() && to < endpoints_.size());
  blocked_links_.insert(link_key(from, to));
}

void LoopbackNet::unblock_link(NodeId from, NodeId to) {
  blocked_links_.erase(link_key(from, to));
}

bool LoopbackNet::link_blocked(NodeId from, NodeId to) const {
  if (endpoints_[from]->isolated_ || endpoints_[to]->isolated_) return true;
  return !blocked_links_.empty() &&
         blocked_links_.count(link_key(from, to)) != 0;
}

void LoopbackNet::set_isolated(NodeId id, bool isolated) {
  endpoint(id).isolated_ = isolated;
}

void LoopbackNet::schedule_partition(double at, double heal_at,
                                     std::vector<NodeId> ids) {
  ICOLLECT_EXPECTS(at >= now());
  ICOLLECT_EXPECTS(heal_at > at);
  for (const NodeId id : ids) {
    ICOLLECT_EXPECTS(id < endpoints_.size());
  }
  wheel_.schedule_after(at - now(), [this, ids] {
    for (const NodeId id : ids) set_isolated(id, true);
  });
  wheel_.schedule_after(heal_at - now(), [this, ids = std::move(ids)] {
    for (const NodeId id : ids) set_isolated(id, false);
  });
}

void LoopbackNet::set_drain_rate(NodeId id, double bytes_per_second) {
  ICOLLECT_EXPECTS(bytes_per_second >= 0.0);
  Endpoint& ep = endpoint(id);
  ep.drain_rate_ = bytes_per_second;
  if (bytes_per_second == 0.0) ep.drain_next_free_ = 0.0;
}

bool LoopbackNet::Endpoint::send(NodeId peer,
                                 std::span<const std::uint8_t> bytes) {
  return hub_->do_send(*this, peer, bytes);
}

void LoopbackNet::Endpoint::close_peer(NodeId peer) {
  if (peer < links_.size() && links_[peer] != 0) hub_->sever(id_, peer);
}

bool LoopbackNet::do_send(Endpoint& from, NodeId to,
                          std::span<const std::uint8_t> bytes) {
  if (to >= endpoints_.size() || from.links_[to] == 0) return false;
  if (from.in_flight_bytes_ + bytes.size() > opts_.send_queue_cap_bytes) {
    ++refusals_;
    return false;
  }
  ++sends_;
  bytes_sent_ += bytes.size();
  if (link_blocked(from.id_, to)) {
    // Injected blackhole: the sender cannot observe the fault (true),
    // the bytes vanish, and no session teardown fires — unlike a
    // severed link, which both sides notice immediately.
    ++fault_drops_;
    return true;
  }
  if (opts_.drop_probability > 0.0 &&
      rng_.bernoulli(opts_.drop_probability)) {
    // The link ate it: the sender believes it sent (true), nothing
    // arrives — exactly the gossip-loss fault the simulator injects.
    ++drops_;
    return true;
  }
  from.in_flight_bytes_ += bytes.size();
  in_flight_total_ += bytes.size();
  if (in_flight_total_ > in_flight_hwm_) in_flight_hwm_ = in_flight_total_;
  std::uint32_t frame = 0;
  if (free_frames_.empty()) {
    frame = static_cast<std::uint32_t>(frames_.size());
    frames_.emplace_back();
  } else {
    frame = free_frames_.back();
    free_frames_.pop_back();
  }
  frames_[frame].assign(bytes.begin(), bytes.end());
  double delay = opts_.latency;
  if (opts_.latency_jitter > 0.0) {
    delay += rng_.uniform(0.0, opts_.latency_jitter);
  }
  Endpoint& dst = endpoint(to);
  if (dst.drain_rate_ > 0.0) {
    // Slow reader: deliveries serialize through the receiver's drain.
    // The sender's in-flight bytes stay charged until absorption, so a
    // fast sender runs into its send-queue cap — the slowloris fault.
    const double arrival = wheel_.now() + delay;
    const double ready =
        std::max(arrival, dst.drain_next_free_) +
        static_cast<double>(bytes.size()) / dst.drain_rate_;
    dst.drain_next_free_ = ready;
    delay = ready - wheel_.now();
  }
  const NodeId from_id = from.id_;
  wheel_.schedule_after(delay, [this, from_id, to, frame] {
    deliver(from_id, to, frame);
    // Back to the pool only now: the handler may have re-entered send(),
    // which must not be handed the buffer it is still reading.
    frames_[frame].clear();
    free_frames_.push_back(frame);
  });
  return true;
}

void LoopbackNet::deliver(NodeId from, NodeId to, std::uint32_t frame) {
  // A view, not a reference to the pool entry: sends from the handler
  // may grow frames_, which moves the vectors but not their bytes.
  const std::span<const std::uint8_t> data{frames_[frame]};
  Endpoint& src = endpoint(from);
  src.in_flight_bytes_ -= std::min(src.in_flight_bytes_, data.size());
  in_flight_total_ -= std::min(in_flight_total_, data.size());
  Endpoint& dst = endpoint(to);
  // The link may have been severed while the bytes were in flight.
  if (dst.links_[from] == 0 || dst.handler_ == nullptr) return;
  // A partition that started mid-flight eats the bytes too.
  if (link_blocked(from, to)) {
    ++fault_drops_;
    return;
  }
  bytes_delivered_ += data.size();
  ++deliveries_;
  if (opts_.chunk_bytes == 0 || data.size() <= opts_.chunk_bytes) {
    ++chunks_;
    dst.handler_->on_bytes(from, data);
    return;
  }
  for (std::size_t off = 0; off < data.size(); off += opts_.chunk_bytes) {
    const std::size_t n = std::min(opts_.chunk_bytes, data.size() - off);
    // Re-check: a handler may close the link mid-delivery.
    if (dst.links_[from] == 0 || dst.handler_ == nullptr) return;
    ++chunks_;
    dst.handler_->on_bytes(from, data.subspan(off, n));
  }
}

void LoopbackNet::attach_metrics(obs::MetricsRegistry& registry,
                                 const std::string& prefix) {
  const auto count = [&](const char* name, const std::uint64_t* v) {
    registry.gauge(prefix + name,
                   [v] { return static_cast<double>(*v); });
  };
  count("sends", &sends_);
  count("drops", &drops_);
  count("fault_drops", &fault_drops_);
  count("queue_drops", &refusals_);
  count("bytes_out", &bytes_sent_);
  count("bytes_in", &bytes_delivered_);
  count("deliveries", &deliveries_);
  count("chunks", &chunks_);
  registry.gauge(prefix + "in_flight_bytes", [this] {
    return static_cast<double>(in_flight_total_);
  });
  registry.gauge(prefix + "in_flight_hwm", [this] {
    return static_cast<double>(in_flight_hwm_);
  });
}

}  // namespace icollect::net
