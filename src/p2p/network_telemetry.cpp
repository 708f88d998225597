#include "p2p/network_telemetry.h"

#include "p2p/network.h"

namespace icollect::p2p {

namespace {

/// Register a pull-gauge that reads a std::uint64_t counter.
template <typename Fn>
void count_gauge(obs::MetricsRegistry& reg, const char* name, Fn fn) {
  reg.gauge(name, [fn] { return static_cast<double>(fn()); });
}

}  // namespace

void register_network_metrics(obs::MetricsRegistry& reg, const Network& net) {
  const NetworkMetrics& m = net.metrics();
  const proto::ServerBank& srv = net.servers();

  // Lifetime counters (the measurement plane of Theorems 1-4).
  count_gauge(reg, "net.segments_injected", [&m] { return m.segments_injected; });
  count_gauge(reg, "net.blocks_injected", [&m] { return m.blocks_injected; });
  count_gauge(reg, "net.gossip_sent", [&m] { return m.gossip_sent; });
  count_gauge(reg, "net.gossip_no_target", [&m] { return m.gossip_no_target; });
  count_gauge(reg, "net.gossip_idle", [&m] { return m.gossip_idle; });
  count_gauge(reg, "net.gossip_lost",
              [&m] { return m.gossip_lost_in_transit; });
  count_gauge(reg, "net.injection_blocked",
              [&m] { return m.injection_blocked; });
  count_gauge(reg, "net.ttl_expirations", [&m] { return m.ttl_expirations; });
  count_gauge(reg, "net.server_pull_attempts",
              [&m] { return m.server_pull_attempts; });
  count_gauge(reg, "net.server_empty_probes",
              [&m] { return m.server_empty_probes; });
  count_gauge(reg, "net.peers_departed", [&m] { return m.peers_departed; });
  count_gauge(reg, "net.blocks_lost_to_churn",
              [&m] { return m.blocks_lost_to_churn; });
  count_gauge(reg, "net.segments_lost", [&m] { return m.segments_lost; });
  count_gauge(reg, "net.crc_failures",
              [&m] { return m.payload_crc_failures; });

  // Server-side collection state.
  count_gauge(reg, "net.server_pulls", [&srv] { return srv.pulls(); });
  count_gauge(reg, "net.innovative_pulls",
              [&srv] { return srv.innovative_pulls(); });
  count_gauge(reg, "net.redundant_pulls",
              [&srv] { return srv.redundant_pulls(); });
  count_gauge(reg, "net.segments_decoded",
              [&srv] { return srv.segments_decoded(); });
  count_gauge(reg, "net.original_blocks_recovered",
              [&srv] { return srv.original_blocks_recovered(); });
  count_gauge(reg, "net.segments_in_progress",
              [&srv] { return srv.segments_in_progress(); });

  // Sizes of the maps that grow with injected segments: the registry
  // keeps every entry; resolution frees the bank's partial decoders and
  // the integrity tags, so those two track live segments instead.
  count_gauge(reg, "net.registry_segments",
              [&net] { return net.segment_registry().size(); });
  count_gauge(reg, "net.segments_resolved",
              [&m] { return m.segments_resolved; });
  count_gauge(reg, "net.integrity_tags", [&net] {
    return net.integrity() != nullptr ? net.integrity()->segments() : 0;
  });

  // Instantaneous network state + derived steady-state estimates.
  reg.gauge("net.blocks_in_network", [&m] { return m.total_blocks.value(); });
  reg.gauge("net.empty_peers", [&m] { return m.empty_peers.value(); });
  reg.gauge("net.full_peers", [&m] { return m.full_peers.value(); });
  reg.gauge("net.blocks_per_peer",
            [&net] { return net.mean_blocks_per_peer(); });
  reg.gauge("net.empty_peer_fraction",
            [&net] { return net.empty_peer_fraction(); });
  reg.gauge("net.throughput", [&net] { return net.throughput(); });
  reg.gauge("net.normalized_throughput",
            [&net] { return net.normalized_throughput(); });
  reg.gauge("net.goodput", [&net] { return net.goodput(); });
  reg.gauge("net.mean_block_delay",
            [&net] { return net.mean_block_delay(); });
  reg.gauge("net.mean_segment_delay",
            [&net] { return net.mean_segment_delay(); });
  reg.gauge("net.storage_overhead",
            [&net] { return net.storage_overhead(); });

  // Departed-peer recovery (the paper's loss-resilience axis). These
  // walk the segment registry, which is fine at snapshot frequency.
  reg.gauge("net.departed_origins", [&net] {
    return static_cast<double>(net.departed_data_stats().departed_origins);
  });
  reg.gauge("net.departed_blocks_generated", [&net] {
    return static_cast<double>(net.departed_data_stats().blocks_generated);
  });
  reg.gauge("net.departed_blocks_delivered", [&net] {
    return static_cast<double>(net.departed_data_stats().blocks_delivered);
  });
  reg.gauge("net.departed_recovery_fraction", [&net] {
    return net.departed_data_stats().recovery_fraction();
  });
}

}  // namespace icollect::p2p
