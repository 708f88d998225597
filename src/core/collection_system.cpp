#include "core/collection_system.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/config_args.h"
#include "p2p/network_telemetry.h"

namespace icollect {

CollectionSystem::CollectionSystem(p2p::ProtocolConfig cfg)
    : CollectionSystem{std::make_unique<p2p::Network>(std::move(cfg))} {}

CollectionSystem CollectionSystem::direct_baseline(p2p::ProtocolConfig cfg) {
  return CollectionSystem{std::unique_ptr<p2p::Network>{
      new p2p::Network{p2p::Network::direct_baseline(std::move(cfg))}}};
}

CollectionSystem::CollectionSystem(std::unique_ptr<p2p::Network> net)
    : cfg_{net->config()},
      net_{std::move(net)},
      record_rng_{cfg_.seed ^ 0x5EC09DBADC0FFEEULL} {}

void CollectionSystem::use_vital_statistics_payloads() {
  if (cfg_.payload_bytes == 0) {
    throw std::invalid_argument(
        "use_vital_statistics_payloads: payload_bytes must be > 0");
  }
  // Validates that at least one record fits per segment.
  const workload::RecordPacker packer{cfg_.segment_size, cfg_.payload_bytes};
  records_enabled_ = true;
  models_.clear();
  models_.reserve(cfg_.num_peers);
  for (std::size_t slot = 0; slot < cfg_.num_peers; ++slot) {
    models_.emplace_back(static_cast<std::uint32_t>(slot));
  }
  net_->set_payload_source(
      [this, packer](const p2p::Peer& origin, coding::SegmentId /*id*/,
                     std::size_t /*segment_size*/,
                     std::size_t /*payload_bytes*/) {
        // Fill the segment with fresh measurements from this peer's model.
        auto& model = models_[origin.slot];
        std::vector<workload::StatsRecord> records;
        records.reserve(packer.capacity());
        for (std::size_t k = 0; k < packer.capacity(); ++k) {
          auto r = model.sample(net_->now(), record_rng_);
          r.peer = origin.origin();  // identity of the current occupant
          records.push_back(r);
        }
        return packer.pack(records);
      });
}

void CollectionSystem::use_streaming_session_payloads(
    workload::StreamingConfig session_cfg, double horizon, double interval) {
  if (cfg_.payload_bytes == 0) {
    throw std::invalid_argument(
        "use_streaming_session_payloads: payload_bytes must be > 0");
  }
  if (session_cfg.num_peers != cfg_.num_peers) {
    throw std::invalid_argument(
        "use_streaming_session_payloads: session peer count must match "
        "the protocol's");
  }
  const workload::RecordPacker packer{cfg_.segment_size, cfg_.payload_bytes};
  workload::StreamingSession session{session_cfg};
  session_feed_ = std::make_unique<workload::SessionRecordFeed>(
      session, horizon, interval);
  records_enabled_ = true;
  net_->set_payload_source(
      [this, packer](const p2p::Peer& origin, coding::SegmentId /*id*/,
                     std::size_t /*segment_size*/,
                     std::size_t /*payload_bytes*/) {
        // Ship the session's measured records for this slot, as many as
        // are due and fit; identity follows the current occupant.
        auto records = session_feed_->take(origin.slot, net_->now(),
                                           packer.capacity());
        for (auto& r : records) r.peer = origin.origin();
        return packer.pack(records);
      });
}

void CollectionSystem::attach_telemetry(obs::Telemetry& telemetry) {
  ICOLLECT_EXPECTS(telemetry_ == nullptr);
  telemetry_ = &telemetry;
  p2p::register_network_metrics(telemetry.registry(), *net_);
  net_->set_trace_sink(telemetry.trace().sink());
  if (telemetry.profiler() != nullptr) {
    net_->set_profiler(telemetry.profiler());
  }
  telemetry.snapshotter().start(net_->now());
  telemetry.write_config(config_json(cfg_));
}

void CollectionSystem::warm_up(double duration) {
  ICOLLECT_EXPECTS(duration >= 0.0);
  run_with_telemetry(net_->now() + duration);
  net_->warm_up(net_->now());
}

void CollectionSystem::run(double duration) {
  ICOLLECT_EXPECTS(duration >= 0.0);
  run_with_telemetry(net_->now() + duration);
}

void CollectionSystem::run_with_telemetry(double end) {
  if (telemetry_ == nullptr || !telemetry_->sampling_active()) {
    net_->run_until(end);
    return;
  }
  auto& snap = telemetry_->snapshotter();
  while (true) {
    net_->run_until(std::min(end, snap.next_due()));
    if (snap.sample_if_due(net_->now()) && telemetry_->options().progress) {
      const auto& m = net_->metrics();
      std::fprintf(
          stderr,
          "[t=%9.3f] injected=%llu decoded=%llu lost=%llu pulls=%llu "
          "blocks/peer=%.2f\n",
          net_->now(),
          static_cast<unsigned long long>(m.segments_injected),
          static_cast<unsigned long long>(net_->servers().segments_decoded()),
          static_cast<unsigned long long>(m.segments_lost),
          static_cast<unsigned long long>(net_->servers().pulls()),
          static_cast<double>(m.total_blocks.value()) /
              static_cast<double>(cfg_.num_peers));
    }
    if (net_->now() >= end) break;
  }
}

void CollectionSystem::stop_injection() { net_->stop_injection(); }

CollectionReport CollectionSystem::report() const {
  const auto& m = net_->metrics();
  const auto& srv = net_->servers();
  CollectionReport r;
  r.measured_time =
      net_->now() - m.decoded_original_blocks.window_start();
  r.normalized_capacity = cfg_.normalized_capacity();
  r.throughput = net_->throughput();
  r.normalized_throughput = net_->normalized_throughput();
  r.goodput = net_->goodput();
  r.normalized_goodput = net_->normalized_goodput();
  r.capacity_bound =
      cfg_.lambda > 0.0
          ? std::min(cfg_.normalized_capacity() / cfg_.lambda, 1.0)
          : 0.0;
  r.mean_block_delay = net_->mean_block_delay();
  r.mean_segment_delay = net_->mean_segment_delay();
  r.max_segment_delay = m.segment_delay.max();
  r.mean_blocks_per_peer = net_->mean_blocks_per_peer();
  r.storage_overhead = net_->storage_overhead();
  r.empty_peer_fraction = net_->empty_peer_fraction();
  r.overhead_bound = cfg_.mu / cfg_.gamma;
  r.segments_injected = m.segments_injected;
  r.segments_decoded = srv.segments_decoded();
  r.segments_lost = m.segments_lost;
  r.blocks_injected = m.blocks_injected;
  r.original_blocks_recovered = srv.original_blocks_recovered();
  r.server_pulls = srv.pulls();
  r.redundant_pulls = srv.redundant_pulls();
  r.payload_crc_failures = m.payload_crc_failures;
  r.peers_departed = m.peers_departed;
  r.blocks_lost_to_churn = m.blocks_lost_to_churn;
  r.saved = net_->saved_data_census();
  return r;
}

std::vector<workload::StatsRecord> CollectionSystem::recovered_records()
    const {
  std::vector<workload::StatsRecord> out;
  if (!records_enabled_) return out;
  const workload::RecordPacker packer{cfg_.segment_size, cfg_.payload_bytes};
  for (const auto& [id, info] : net_->segment_registry()) {
    if (!info.decoded) continue;
    const auto* blocks = net_->servers().originals(id);
    if (blocks == nullptr) continue;
    auto records = packer.unpack(*blocks);
    out.insert(out.end(), records.begin(), records.end());
  }
  return out;
}

workload::RecordStore CollectionSystem::recovered_record_store() const {
  workload::RecordStore store;
  const auto records = recovered_records();
  store.insert(std::span<const workload::StatsRecord>{records});
  return store;
}

ode::OdeParams CollectionSystem::ode_params(const p2p::ProtocolConfig& cfg) {
  ode::OdeParams p;
  p.lambda = cfg.lambda;
  p.mu = cfg.mu;
  p.gamma = cfg.gamma;
  p.c = cfg.normalized_capacity();
  p.s = cfg.segment_size;
  p.B = cfg.buffer_cap;
  p.Imax = 0;  // auto
  p.churn_rate =
      cfg.churn.enabled ? 1.0 / cfg.churn.mean_lifetime : 0.0;
  return p;
}

ode::OdeSolution CollectionSystem::analyze(const p2p::ProtocolConfig& cfg) {
  return ode::IndirectOde{ode_params(cfg)}.solve();
}

}  // namespace icollect
