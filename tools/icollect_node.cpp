/// \file icollect_node.cpp
/// One live collection node over real TCP: run a peer that injects and
/// gossips coded blocks, or a server that pulls and decodes, against
/// other icollect_node processes.
///
///   # terminal 1 — server listening on 9100, expecting 8 segments
///   icollect_node --role server --listen 127.0.0.1:9100
///                 --expect-segments 8 --pull-rate 50
///   # terminal 2 — peer: listen for other peers, feed the server
///   icollect_node --role peer --listen 127.0.0.1:9101
///                 --connect 127.0.0.1:9100 --segments 4
///   # terminal 3 — second peer, meshing with both
///   icollect_node --role peer --connect 127.0.0.1:9100
///                 --connect 127.0.0.1:9101 --segments 4
///
/// (Each command is one line, wrapped here for width.) A peer exits 0
/// once it has injected all its --segments and every one of them has
/// been ACKed decoded; a server exits 0 once --expect-segments segments
/// decoded.
/// --duration caps the wall-clock wait (exit 1 on timeout).

#include <csignal>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.h"
#include "net/stream_transport.h"
#include "node/node_config.h"
#include "node/peer_node.h"
#include "proto/pull_policy.h"
#include "node/server_node.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/snapshotter.h"
#include "obs/trace_pipeline.h"

namespace {

/// SIGUSR1 requests an on-demand stats dump; the event loop services it
/// (epoll_wait returns EINTR rather than restarting, and the loop wakes
/// at least every transport tick, so the dump is prompt).
volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigusr1(int) { g_dump_requested = 1; }

/// One flat JSON object of every registered metric, stamped `t`.
std::string stats_json(const icollect::obs::MetricsRegistry& registry,
                       double t) {
  icollect::obs::JsonObject out;
  out.field("t", t);
  registry.for_each_sample([&out](std::string_view name, double value) {
    out.field(name, value);
  });
  return out.str();
}

enum class Role { kUnset, kPeer, kServer };

}  // namespace

int main(int argc, char** argv) {
  using namespace icollect;

  Role role = Role::kUnset;
  cli::HostPort listen_at;
  std::vector<cli::HostPort> connect_to;
  node::NodeConfig cfg;
  cfg.node_id = 0;  // resolved below
  cfg.payload_bytes = 64;
  cfg.lambda = 8.0;
  cfg.mu = 4.0;
  cfg.gamma = 0.05;
  cfg.server_rate = 20.0;
  cfg.retain_own_until_acked = true;  // a live peer guarantees delivery
  std::size_t expect_segments = 0;
  double duration = 60.0;
  std::string metrics_out;
  std::string trace_out;
  double metrics_interval = 0.5;

  cli::Flags flags{"--role peer|server [options]"};
  flags.choice("--role", "node role", role,
               {{"peer", Role::kPeer}, {"server", Role::kServer}})
      .add("--listen", "HOST:PORT",
           "accept connections (required for servers\n"
           "and any peer other peers dial)",
           listen_at)
      .add("--connect", "HOST:PORT", "dial another node (repeatable)",
           connect_to)
      .add("--node-id", "N", "stable identity (default: derived from port)",
           cfg.node_id)
      .add("--segment-size", "s", "blocks per segment (default 4)",
           cfg.segment_size)
      .add("--buffer-cap", "B", "peer buffer capacity (default 32)",
           cfg.buffer_cap)
      .add("--payload-bytes", "n", "payload bytes per block (default 64)",
           cfg.payload_bytes)
      .add("--lambda", "x", "peer block injection rate (default 8)",
           cfg.lambda)
      .add("--mu", "x", "peer gossip rate (default 4)", cfg.mu)
      .add("--gamma", "x", "per-block TTL rate (default 0.05)", cfg.gamma)
      .add("--pull-rate", "x", "server pulls/sec (default 20)",
           cfg.server_rate)
      .parsed("--pull-policy", "P",
              "server pull scheduling: uniform|rarest|\n"
              "deficit (default uniform)",
              cfg.pull_policy, proto::parse_pull_policy_kind,
              "uniform|rarest|deficit")
      .add("--segments", "K",
           "peer: inject K segments, exit when all ACKed", cfg.max_segments)
      .add("--expect-segments", "K", "server: exit once K segments decoded",
           expect_segments)
      .add("--duration", "T", "wall-clock cap in seconds (default 60)",
           duration)
      .add("--seed", "S", "RNG seed (default 1)", cfg.seed)
      .add("--metrics-out", "FILE",
           "periodic JSONL of node + transport counters", metrics_out)
      .add("--metrics-interval", "T",
           "sample spacing in seconds (default 0.5)", metrics_interval)
      .add("--trace-out", "FILE", "protocol event trace JSONL", trace_out)
      .add("--backlog", "N", "listen(2) backlog (default SOMAXCONN)",
           cfg.listen_backlog)
      .note("\nSIGUSR1 dumps a one-line stats snapshot to stderr.\n");
  flags.parse_or_exit(argc, argv);
  const bool is_peer = role == Role::kPeer;
  if (role == Role::kUnset) flags.usage_error("--role is required");
  if (listen_at.port == 0 && connect_to.empty()) {
    flags.usage_error("need --listen and/or --connect");
  }
  if (metrics_interval <= 0.0) {
    flags.usage_error("--metrics-interval must be > 0");
  }
  // node_id may still be 0 here (resolved from the bound port below);
  // validate the user-settable knobs now so bad values are a usage
  // error, not an unhandled exception from the node constructor.
  {
    node::NodeConfig check = cfg;
    if (check.node_id == 0) check.node_id = 1;
    try {
      check.validate();
    } catch (const std::exception& e) {
      flags.usage_error(e.what());
    }
  }

  net::StreamOptions topts;
  topts.connect_timeout = 5.0;
  topts.connect_retries = 20;  // peers may start before their server
  topts.retry_backoff = 0.25;
  topts.listen_backlog = cfg.listen_backlog;
  net::StreamTransport tcp{topts};

  // Before listen(): a client may signal as soon as the port accepts,
  // and SIGUSR1's default action would kill the process.
  std::signal(SIGUSR1, on_sigusr1);

  std::uint16_t bound_port = 0;
  if (listen_at.port != 0) {
    try {
      bound_port = tcp.listen(listen_at.host, listen_at.port);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 1;
    }
    std::fprintf(stderr, "listening on %s:%u (port %u)\n",
                 listen_at.host.c_str(), listen_at.port, bound_port);
  }
  if (cfg.node_id == 0) {
    cfg.node_id = bound_port != 0 ? bound_port
                                  : static_cast<std::uint32_t>(
                                        0x40000000U + cfg.seed % 0xFFFF);
  }

  // The registry is always live (counters are pull-gauges over state
  // the node maintains anyway) so SIGUSR1 can dump stats even when no
  // --metrics-out file was requested.
  obs::MetricsRegistry registry;
  tcp.attach_metrics(registry, "tcp.");
  std::unique_ptr<node::PeerNode> peer;
  std::unique_ptr<node::ServerNode> server;
  if (is_peer) {
    peer = std::make_unique<node::PeerNode>(cfg, tcp, tcp.timers(),
                                            &registry, "node.");
  } else {
    server = std::make_unique<node::ServerNode>(cfg, tcp, tcp.timers(),
                                                &registry, "node.");
  }

  obs::TraceBuffer trace_buf{0};
  if (!trace_out.empty()) {
    try {
      trace_buf.open_jsonl(trace_out);
    } catch (const std::exception& e) {
      flags.usage_error(e.what());
    }
    if (peer) peer->set_trace_sink(trace_buf.sink());
    if (server) server->set_trace_sink(trace_buf.sink());
  }

  for (const auto& target : connect_to) tcp.connect(target.host, target.port);
  if (peer) peer->start();
  if (server) server->start();

  // Snapshots stamp themselves from the transport's wall clock through
  // the obs clock seam — the same Snapshotter the virtual-time sim uses.
  obs::CallbackClock clock{[&tcp] { return tcp.now(); }};
  obs::Snapshotter snaps{registry, metrics_interval, &clock};
  const bool sampling = !metrics_out.empty();
  if (sampling) {
    try {
      snaps.open_jsonl(metrics_out);
    } catch (const std::exception& e) {
      flags.usage_error(e.what());
    }
    snaps.start();
  }

  const auto done = [&]() -> bool {
    if (peer && cfg.max_segments > 0) return peer->all_injected_acked();
    if (server && expect_segments > 0) {
      return server->bank().segments_decoded() >= expect_segments;
    }
    return false;  // run until the duration cap
  };
  bool completed = false;
  while (tcp.now() < duration) {
    tcp.poll_once();
    if (sampling) snaps.sample_if_due();
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      std::fprintf(stderr, "SIGUSR1 stats %s\n",
                   stats_json(registry, tcp.now()).c_str());
    }
    if (done()) {
      completed = true;
      break;
    }
  }
  if (sampling) {
    snaps.sample();
    snaps.flush();
  }
  if (!trace_out.empty()) trace_buf.flush();

  if (peer) {
    std::fprintf(stderr,
                 "peer %u: injected=%llu acked=%llu gossip_sent=%llu "
                 "pull_replies=%llu\n",
                 cfg.node_id,
                 static_cast<unsigned long long>(peer->segments_injected()),
                 static_cast<unsigned long long>(peer->own_segments_acked()),
                 static_cast<unsigned long long>(peer->gossip_sent()),
                 static_cast<unsigned long long>(peer->pull_replies()));
  } else {
    std::fprintf(
        stderr, "server %u: pulls=%llu innovative=%llu decoded=%llu\n",
        cfg.node_id,
        static_cast<unsigned long long>(server->pulls_sent()),
        static_cast<unsigned long long>(server->innovative_pulls()),
        static_cast<unsigned long long>(server->bank().segments_decoded()));
  }
  const bool has_goal =
      (peer && cfg.max_segments > 0) || (server && expect_segments > 0);
  return !has_goal || completed ? 0 : 1;
}
