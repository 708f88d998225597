#include "node/cluster.h"

#include <string>
#include <utility>

#include "common/assert.h"
#include "sim/random.h"
#include "workload/trace_replay.h"

namespace icollect::node {

namespace {

/// Node identities: peers are 1..N, servers live in a disjoint range so
/// a SegmentId origin always names its injecting peer unambiguously.
constexpr std::uint32_t kServerIdBase = 0x80000000U;

}  // namespace

LoopbackCluster::LoopbackCluster(const ClusterConfig& cfg,
                                 obs::MetricsRegistry* metrics)
    : cfg_{cfg}, net_{cfg.net} {
  cfg.validate();

  dishonest_count_ = cfg.adversary.dishonest_count(cfg.num_peers);
  // One shared authority per run — the trusted in-process analogue of a
  // verification key distributed out of band.
  integrity_ =
      proto::make_run_authority(cfg.seed, cfg.adversary.integrity_checks);

  // Endpoints first (ids 0..N-1 peers, N..N+M-1 servers), then nodes
  // (each registers itself as its endpoint's handler), then wiring —
  // so every HELLO finds a listening handler.
  for (std::size_t i = 0; i < cfg.num_peers + cfg.num_servers; ++i) {
    net_.create_endpoint();
  }

  // Every node shares the cluster's per-node symbols; peers ignore c_s
  // and the pull policy, servers ignore λ, μ and B.
  NodeConfig shared;
  static_cast<proto::NodeParams&>(shared) = cfg;
  for (std::size_t i = 0; i < cfg.num_peers; ++i) {
    NodeConfig nc = shared;
    nc.node_id = static_cast<std::uint32_t>(i + 1);
    nc.max_segments = cfg.segments_per_peer;
    nc.drop_on_ack = cfg.drop_on_ack;
    nc.retain_own_until_acked = cfg.retain_own_until_acked;
    nc.byzantine = i < dishonest_count_;
    nc.corruption = cfg.adversary.strategy;
    nc.seed = sim::splitmix64(cfg.seed + 0x1000 + i);
    peers_.push_back(std::make_unique<PeerNode>(
        nc, net_.endpoint(static_cast<net::NodeId>(i)), net_.timers(),
        metrics, "peer" + std::to_string(i + 1) + "."));
    if (integrity_ != nullptr) peers_.back()->set_integrity(integrity_.get());
    if (cfg.arrival != nullptr) {
      peers_.back()->set_arrival_profile(cfg.arrival);
    }
  }
  for (std::size_t i = 0; i < cfg.num_servers; ++i) {
    NodeConfig nc = shared;
    nc.node_id = kServerIdBase + static_cast<std::uint32_t>(i);
    nc.seed = sim::splitmix64(cfg.seed + 0x2000 + i);
    servers_.push_back(std::make_unique<ServerNode>(
        nc,
        net_.endpoint(static_cast<net::NodeId>(cfg.num_peers + i)),
        net_.timers(), metrics, "server" + std::to_string(i) + "."));
    if (integrity_ != nullptr) {
      servers_.back()->set_integrity(integrity_.get());
    }
    servers_.back()->set_decode_hook(
        [this](const proto::ServerBank::DecodeEvent& ev) { on_decode(ev); });
  }

  // Complete topology, matching the simulator's default: peer↔peer for
  // gossip, server↔peer for pulls, server↔server for forwarding.
  const auto id = [](std::size_t i) { return static_cast<net::NodeId>(i); };
  for (std::size_t a = 0; a < cfg.num_peers; ++a) {
    for (std::size_t b = a + 1; b < cfg.num_peers; ++b) {
      net_.connect(id(a), id(b));
    }
  }
  for (std::size_t s = 0; s < cfg.num_servers; ++s) {
    for (std::size_t p = 0; p < cfg.num_peers; ++p) {
      net_.connect(id(cfg.num_peers + s), id(p));
    }
    for (std::size_t t = s + 1; t < cfg.num_servers; ++t) {
      net_.connect(id(cfg.num_peers + s), id(cfg.num_peers + t));
    }
  }

  // Let the HELLO exchange complete (one link latency each way) before
  // the stochastic processes start, so early gossip has targets.
  net_.run_for(2.0 * (cfg.net.latency + cfg.net.latency_jitter) +
               4.0 * cfg.net.tick_seconds);
  for (auto& p : peers_) p->start();
  for (auto& s : servers_) s->start();
  schedule_sampler();
  begin_measurement();

  if (metrics != nullptr) {
    metrics->gauge("cluster.segments_injected", [this] {
      return static_cast<double>(segments_injected());
    });
    metrics->gauge("cluster.segments_decoded", [this] {
      return static_cast<double>(segments_decoded());
    });
    metrics->gauge("cluster.innovative_pulls", [this] {
      return static_cast<double>(innovative_pulls());
    });
    metrics->gauge("cluster.pulls_sent", [this] {
      return static_cast<double>(pulls_sent());
    });
    metrics->gauge("cluster.gossip_sent", [this] {
      return static_cast<double>(gossip_sent());
    });
    metrics->gauge("cluster.buffered_blocks", [this] {
      return static_cast<double>(total_buffered_blocks());
    });
    metrics->gauge("cluster.normalized_throughput",
                   [this] { return normalized_throughput(); });
    metrics->gauge("cluster.mean_blocks_per_peer",
                   [this] { return mean_blocks_per_peer(); });
    net_.attach_metrics(*metrics, "loopback.");
  }
}

void LoopbackCluster::set_trace_sink(proto::TraceSink sink) {
  for (auto& p : peers_) p->set_trace_sink(sink);
  for (auto& s : servers_) s->set_trace_sink(sink);
}

void LoopbackCluster::schedule_sampler() {
  net_.timers().schedule_after(cfg_.sample_interval, [this] {
    blocks_time_sum_ += static_cast<double>(total_buffered_blocks());
    ++samples_;
    schedule_sampler();
  });
}

void LoopbackCluster::on_decode(const proto::ServerBank::DecodeEvent& event) {
  decoded_union_.insert(event.id);
  // Peers are node ids 1..N; the originals are readable only now.
  if (event.decoder == nullptr || event.id.origin == 0 ||
      event.id.origin > peers_.size()) {
    return;
  }
  const auto* crcs = peers_[event.id.origin - 1]->original_crcs(event.id);
  if (crcs == nullptr) return;
  originals_checked_ += crcs->size();
  crc_failures_ += event.crc_mismatches(*crcs);
}

bool LoopbackCluster::complete() const {
  if (cfg_.segments_per_peer == 0) return false;
  for (const auto& p : peers_) {
    if (!p->injection_done()) return false;
  }
  const std::uint64_t injected = segments_injected();
  if (injected == 0 || decoded_union_.size() != injected) return false;
  // Every server (not just the union) must have finished — the pooled
  // forwarding guarantees they all converge.
  for (const auto& s : servers_) {
    if (s->bank().segments_decoded() != injected) return false;
  }
  return true;
}

bool LoopbackCluster::honest_complete() const {
  if (cfg_.segments_per_peer == 0) return false;
  bool any = false;
  for (std::size_t i = dishonest_count_; i < peers_.size(); ++i) {
    if (!peers_[i]->all_injected_acked()) return false;
    any = true;
  }
  return any;
}

void LoopbackCluster::set_isolation_window(double fraction, double at,
                                           double heal_at) {
  ICOLLECT_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  std::vector<net::NodeId> ids(
      workload::isolated_peer_count(cfg_.num_peers, fraction));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<net::NodeId>(i);
  }
  if (!ids.empty()) net_.schedule_partition(at, heal_at, std::move(ids));
}

bool LoopbackCluster::run_to_completion(double max_virtual_time) {
  ICOLLECT_EXPECTS(cfg_.segments_per_peer > 0);
  // Byzantine peers corrupt all their egress, so their own segments can
  // never decode: the finish line for adversarial runs is the honest
  // population's.
  const bool adversarial = dishonest_count_ > 0;
  const auto done = [&] {
    return adversarial ? honest_complete() : complete();
  };
  const double step = 0.25;
  while (!done() && now() < max_virtual_time) {
    net_.run_for(step);
  }
  return done();
}

std::uint64_t LoopbackCluster::segments_injected() const {
  std::uint64_t n = 0;
  for (const auto& p : peers_) n += p->segments_injected();
  return n;
}

std::uint64_t LoopbackCluster::innovative_pulls() const {
  std::uint64_t n = 0;
  for (const auto& s : servers_) n += s->innovative_pulls();
  return n;
}

std::uint64_t LoopbackCluster::pulls_sent() const {
  std::uint64_t n = 0;
  for (const auto& s : servers_) n += s->pulls_sent();
  return n;
}

std::uint64_t LoopbackCluster::gossip_sent() const {
  std::uint64_t n = 0;
  for (const auto& p : peers_) n += p->gossip_sent();
  return n;
}

std::uint64_t LoopbackCluster::total_buffered_blocks() const {
  std::uint64_t n = 0;
  for (const auto& p : peers_) n += p->buffer().size();
  return n;
}

std::uint64_t LoopbackCluster::honest_segments_injected() const {
  std::uint64_t n = 0;
  for (std::size_t i = dishonest_count_; i < peers_.size(); ++i) {
    n += peers_[i]->segments_injected();
  }
  return n;
}

std::uint64_t LoopbackCluster::blocks_corrupted() const {
  std::uint64_t n = 0;
  for (const auto& p : peers_) n += p->blocks_corrupted();
  return n;
}

std::uint64_t LoopbackCluster::blocks_quarantined() const {
  std::uint64_t n = 0;
  for (const auto& p : peers_) n += p->blocks_quarantined();
  return n;
}

std::uint64_t LoopbackCluster::polluted_pulls() const {
  std::uint64_t n = 0;
  for (const auto& s : servers_) n += s->polluted_pulls();
  return n;
}

void LoopbackCluster::begin_measurement() {
  measure_start_ = now();
  base_innovative_ = innovative_pulls();
  blocks_time_sum_ = 0.0;
  samples_ = 0;
}

double LoopbackCluster::normalized_throughput() const {
  const double elapsed = now() - measure_start_;
  const double demand =
      static_cast<double>(cfg_.num_peers) * cfg_.lambda;
  if (elapsed <= 0.0 || demand <= 0.0) return 0.0;
  return static_cast<double>(innovative_pulls() - base_innovative_) /
         elapsed / demand;
}

double LoopbackCluster::mean_blocks_per_peer() const {
  if (samples_ == 0) return 0.0;
  return blocks_time_sum_ / static_cast<double>(samples_) /
         static_cast<double>(cfg_.num_peers);
}

}  // namespace icollect::node
