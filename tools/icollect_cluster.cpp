/// \file icollect_cluster.cpp
/// Multi-node collection harness: N live peers + M live servers in one
/// process, wired over the deterministic loopback transport. Every node
/// runs the real wire protocol (HELLO handshake, framed gossip, pulls,
/// decode ACKs) — only the byte transport is virtual, so a 16-peer
/// cluster finishes in milliseconds and reproduces bit-for-bit per seed.
///
///   icollect_cluster --peers 16 --servers 2 --segments-per-peer 4
///   icollect_cluster --peers 8 --drop 0.05 --chunk-bytes 7 --progress
///
/// Exit status: 0 when every injected segment was decoded by every
/// server within --max-time, 1 otherwise, 2 on usage errors.

#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "node/cluster.h"
#include "proto/pull_policy.h"
#include "workload/trace_replay.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/snapshotter.h"
#include "obs/trace_pipeline.h"
#include "stats/latency_histogram.h"

namespace {

/// Quantile summary of a latency histogram as a nested JSON object.
std::string latency_json(const icollect::stats::LatencyHistogram& h) {
  icollect::obs::JsonObject o;
  o.field("count", h.count())
      .field("p50", h.quantile_seconds(0.50))
      .field("p90", h.quantile_seconds(0.90))
      .field("p99", h.quantile_seconds(0.99))
      .field("max", h.max_seconds());
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icollect;

  node::ClusterConfig cfg;
  cfg.payload_bytes = 64;
  cfg.segments_per_peer = 4;
  double max_time = 300.0;
  double capacity = -1.0;
  bool no_retain = false;
  std::string metrics_out;
  std::string trace_out;
  std::string scenario_arg;
  double metrics_interval = 0.5;
  bool progress = false;

  cli::Flags flags;
  flags.add("--peers", "N", "live peers (default 16)", cfg.num_peers)
      .add("--servers", "M", "live servers (default 2)", cfg.num_servers)
      .add("--segment-size", "s", "blocks per segment (default 4)",
           cfg.segment_size)
      .add("--buffer-cap", "B", "peer buffer capacity (default 32)",
           cfg.buffer_cap)
      .add("--payload-bytes", "n", "payload bytes per block (default 64)",
           cfg.payload_bytes)
      .add("--lambda", "x", "per-peer block injection rate (default 8)",
           cfg.lambda)
      .add("--mu", "x", "per-peer gossip rate (default 4)", cfg.mu)
      .add("--gamma", "x", "per-block TTL rate (default 1)", cfg.gamma)
      .add("--server-rate", "x", "pulls/sec per server (default 16)",
           cfg.server_rate)
      .add("--capacity", "c", "set server-rate from normalized c", capacity)
      .add("--segments-per-peer", "K", "injection budget per peer (default 4)",
           cfg.segments_per_peer)
      .add("--max-time", "T", "virtual-time cap (default 300)", max_time)
      .add("--latency", "L", "loopback one-way latency (default 0.001)",
           cfg.net.latency)
      .add("--jitter", "J", "extra uniform latency in [0,J) (default 0)",
           cfg.net.latency_jitter)
      .add("--drop", "p", "per-send loss probability (default 0)",
           cfg.net.drop_probability)
      .add("--chunk-bytes", "n",
           "split deliveries into n-byte reads (default 0)",
           cfg.net.chunk_bytes)
      .add("--drop-on-ack", "", "peers drop blocks of decoded segments",
           cfg.drop_on_ack)
      .add("--no-retain", "",
           "disable source retention of own segments\n"
           "(on by default: a peer pins its own\n"
           "segments' blocks until the first ACK)",
           no_retain)
      .parsed("--pull-policy", "P",
              "server pull scheduling: uniform|rarest|\n"
              "deficit (default uniform)",
              cfg.pull_policy, proto::parse_pull_policy_kind,
              "uniform|rarest|deficit")
      .add("--seed", "S", "root seed (default 1)", cfg.seed)
      .add("--metrics-out", "FILE",
           "snapshot JSONL of cluster, per-node, and\n"
           "transport metrics",
           metrics_out)
      .add("--metrics-interval", "T",
           "snapshot spacing, virtual time (default 0.5)", metrics_interval)
      .add("--trace-out", "FILE",
           "protocol event trace JSONL (inject/gossip/\n"
           "ttl/pull/decode, virtual-time stamped)",
           trace_out)
      .add("--progress", "", "progress lines on stderr", progress)
      .add("--scenario", "SPEC",
           "hostile scenario, class:key=value,...\n"
           "(byzantine|faults|trace; see\n"
           "docs/SCENARIOS.md). Byzantine runs key\n"
           "completion on the honest population.",
           scenario_arg);
  flags.parse_or_exit(argc, argv);
  cfg.retain_own_until_acked = !no_retain;  // harness wants 100% recovery
  cfg.net.seed = cfg.seed;
  if (cfg.segments_per_peer == 0) {
    flags.usage_error("--segments-per-peer must be >= 1");
  }
  if (metrics_interval <= 0.0) {
    flags.usage_error("--metrics-interval must be > 0");
  }
  if (capacity >= 0.0) cfg.set_normalized_capacity(capacity);

  // A scenario adjusts the config before the cluster is built (nodes
  // start inside the constructor); fault windows attach right after.
  std::unique_ptr<workload::ScenarioSpec> scenario;
  std::unique_ptr<workload::ArrivalProfile> arrival;
  if (!scenario_arg.empty()) {
    try {
      scenario = std::make_unique<workload::ScenarioSpec>(
          workload::ScenarioSpec::parse(scenario_arg));
    } catch (const std::exception& e) {
      flags.usage_error(e.what());
    }
    using Kind = workload::ScenarioSpec::Kind;
    switch (scenario->kind) {
      case Kind::kByzantine:
        scenario->apply_byzantine(cfg);
        break;
      case Kind::kFaults:
        break;  // attached to the loopback hub below
      case Kind::kTrace:
        // The cluster has no churn engine; only the load shape applies.
        arrival = scenario->make_arrival_profile(cfg.lambda);
        cfg.arrival = arrival.get();
        break;
    }
  }

  try {
    cfg.validate();
  } catch (const std::exception& e) {
    flags.usage_error(e.what());
  }

  obs::MetricsRegistry registry;
  node::LoopbackCluster cluster{cfg, &registry};
  if (scenario && scenario->kind == workload::ScenarioSpec::Kind::kFaults) {
    cluster.set_isolation_window(scenario->partition_fraction,
                                 scenario->partition_at, scenario->heal_at);
    if (scenario->drain_bytes_per_sec > 0.0) {
      // The first peer becomes a slow reader: every sender's bytes to
      // it stay in flight until drained, exercising send-queue caps.
      cluster.net().set_drain_rate(0, scenario->drain_bytes_per_sec);
    }
  }
  obs::Snapshotter snaps{registry, metrics_interval};
  if (!metrics_out.empty()) {
    try {
      snaps.open_jsonl(metrics_out);
    } catch (const std::exception& e) {
      flags.usage_error(e.what());
    }
    snaps.start(cluster.now());
  }
  obs::TraceBuffer trace_buf{0};  // pure pass-through to the JSONL stream
  if (!trace_out.empty()) {
    try {
      trace_buf.open_jsonl(trace_out);
    } catch (const std::exception& e) {
      flags.usage_error(e.what());
    }
    cluster.set_trace_sink(trace_buf.sink());
  }

  // Byzantine runs can never finish the dishonest peers' own segments
  // (they corrupt everything they emit), so completion is keyed on the
  // honest population instead.
  const bool adversarial = cluster.dishonest_count() > 0;
  const auto done = [&] {
    return adversarial ? cluster.honest_complete() : cluster.complete();
  };
  const double step = 0.25;
  while (!done() && cluster.now() < max_time) {
    cluster.run_for(step);
    if (!metrics_out.empty()) snaps.sample_if_due(cluster.now());
    if (progress) {
      std::fprintf(stderr,
                   "t=%.2f injected=%llu decoded=%zu blocks=%llu "
                   "pulls=%llu\n",
                   cluster.now(),
                   static_cast<unsigned long long>(
                       cluster.segments_injected()),
                   cluster.segments_decoded(),
                   static_cast<unsigned long long>(
                       cluster.total_buffered_blocks()),
                   static_cast<unsigned long long>(cluster.pulls_sent()));
    }
  }
  if (!metrics_out.empty()) {
    snaps.sample(cluster.now());
    snaps.flush();
  }
  if (!trace_out.empty()) trace_buf.flush();

  // Cluster-wide wire/node/latency aggregates. Everything here is a
  // count of protocol events or a virtual-time latency, so the block is
  // a deterministic function of the seed — summaries stay comparable
  // across runs with and without telemetry files.
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t handshakes_ok = 0;
  std::uint64_t send_refusals = 0;
  std::uint64_t ttl_expirations = 0;
  stats::LatencyHistogram pull_rtt;
  stats::LatencyHistogram decode_latency;
  const auto add_node = [&](const node::NodeBase& n) {
    frames_sent += n.frames_sent();
    frames_received += n.frames_received();
    decode_errors += n.decode_errors();
    handshakes_ok += n.handshakes_ok();
    send_refusals += n.send_refusals();
  };
  for (std::size_t i = 0; i < cfg.num_peers; ++i) {
    add_node(cluster.peer(i));
    ttl_expirations += cluster.peer(i).ttl_expirations();
  }
  for (std::size_t i = 0; i < cfg.num_servers; ++i) {
    add_node(cluster.server(i));
    pull_rtt.merge(cluster.server(i).pull_rtt());
    decode_latency.merge(cluster.server(i).decode_latency());
  }
  obs::JsonObject stats;
  stats.field("frames_sent", frames_sent)
      .field("frames_received", frames_received)
      .field("wire_decode_errors", decode_errors)
      .field("handshakes_ok", handshakes_ok)
      .field("send_refusals", send_refusals)
      .field("ttl_expirations", ttl_expirations)
      .field("loopback_deliveries", cluster.net().deliveries())
      .field("loopback_chunks", cluster.net().chunks())
      .field("loopback_bytes_out", cluster.net().bytes_sent())
      .field("loopback_queue_drops", cluster.net().backpressure_refusals())
      .field("loopback_in_flight_hwm",
             cluster.net().in_flight_high_watermark())
      .field_raw("pull_rtt", latency_json(pull_rtt))
      .field_raw("decode_latency", latency_json(decode_latency));

  const bool complete = done();
  obs::JsonObject out;
  out.field("complete", complete)
      .field("t", cluster.now())
      .field("peers", cfg.num_peers)
      .field("servers", cfg.num_servers)
      .field("segment_size", cfg.segment_size)
      .field("normalized_capacity", cfg.normalized_capacity())
      .field("segments_injected", cluster.segments_injected())
      .field("segments_decoded", cluster.segments_decoded())
      .field("pulls_sent", cluster.pulls_sent())
      .field("innovative_pulls", cluster.innovative_pulls())
      .field("gossip_sent", cluster.gossip_sent())
      .field("normalized_throughput", cluster.normalized_throughput())
      .field("mean_blocks_per_peer", cluster.mean_blocks_per_peer())
      .field("loopback_sends", cluster.net().sends())
      .field("loopback_drops", cluster.net().drops())
      .field("loopback_bytes", cluster.net().bytes_delivered())
      .field_raw("stats", stats.str());
  if (cfg.pull_policy != proto::PullPolicyKind::kUniform) {
    // Only for the feedback-driven policies, so the default summary —
    // and its golden pins — stays byte-identical.
    std::uint64_t summaries = 0;
    std::uint64_t targeted = 0;
    for (std::size_t i = 0; i < cfg.num_servers; ++i) {
      summaries += cluster.server(i).summaries_received();
      targeted += cluster.server(i).targeted_pulls();
    }
    obs::JsonObject pj;
    pj.field_str("policy", proto::to_string(cfg.pull_policy))
        .field("summaries_received", summaries)
        .field("targeted_pulls", targeted);
    out.field_raw("pull_policy", pj.str());
  }
  if (scenario) {
    // Only with --scenario, so the default output — and its golden
    // pins — stays byte-identical.
    obs::JsonObject sj;
    sj.field_raw("spec", scenario->to_json())
        .field("dishonest_peers", cluster.dishonest_count())
        .field("honest_complete", cluster.honest_complete())
        .field("honest_segments_injected",
               cluster.honest_segments_injected())
        .field("blocks_corrupted", cluster.blocks_corrupted())
        .field("blocks_quarantined", cluster.blocks_quarantined())
        .field("polluted_pulls", cluster.polluted_pulls())
        .field("fault_drops", cluster.net().fault_drops())
        .field("queue_refusals", cluster.net().backpressure_refusals());
    out.field_raw("scenario", sj.str());
  }
  std::printf("%s\n", out.str().c_str());
  return complete ? 0 : 1;
}
