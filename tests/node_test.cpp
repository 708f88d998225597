/// End-to-end tests of the live node runtime over the deterministic
/// loopback transport: a cluster of real PeerNode/ServerNode state
/// machines speaking the framed wire protocol must collect every
/// injected segment, recover payloads byte-exactly (checked against the
/// injecting peers' CRCs), reproduce bit-for-bit per seed, and survive
/// link faults and garbage bytes without crashing.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/loopback.h"
#include "node/cluster.h"
#include "obs/metrics_registry.h"
#include "proto/trace.h"
#include "node/node_config.h"
#include "node/peer_node.h"
#include "node/server_node.h"
#include "wire/frame.h"

namespace icollect::node {
namespace {

ClusterConfig small_cluster_config() {
  ClusterConfig cfg;
  cfg.num_peers = 6;
  cfg.num_servers = 2;
  cfg.segment_size = 4;
  cfg.buffer_cap = 32;
  cfg.payload_bytes = 24;
  cfg.lambda = 8.0;
  cfg.mu = 4.0;
  cfg.gamma = 1.0;
  cfg.server_rate = 20.0;
  cfg.segments_per_peer = 3;
  cfg.retain_own_until_acked = true;
  cfg.seed = 11;
  cfg.net.seed = 11;
  return cfg;
}

TEST(NodeCluster, CollectsEverySegmentAtEveryServer) {
  LoopbackCluster cluster{small_cluster_config()};
  ASSERT_TRUE(cluster.run_to_completion(300.0))
      << "decoded " << cluster.segments_decoded() << "/"
      << cluster.segments_injected();
  const std::uint64_t injected = cluster.segments_injected();
  EXPECT_EQ(injected, 6U * 3U);
  EXPECT_EQ(cluster.segments_decoded(), injected);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.server(i).segments_decoded(), injected);
  }
  // Collaborating servers need at least s innovative blocks per segment
  // pooled across pulls and forwarding.
  EXPECT_GE(cluster.innovative_pulls(), injected * 4U);
}

TEST(NodeCluster, RejectsShapesItCannotRun) {
  const auto shape = [](auto edit) {
    ClusterConfig cfg = small_cluster_config();
    edit(cfg);
    return cfg;
  };
  const ClusterConfig bad[] = {
      shape([](ClusterConfig& c) { c.num_peers = 1; }),
      shape([](ClusterConfig& c) { c.num_servers = 0; }),
      shape([](ClusterConfig& c) { c.adversary.dishonest_fraction = 1.5; }),
      shape([](ClusterConfig& c) { c.adversary.dishonest_fraction = -0.1; }),
      shape([](ClusterConfig& c) {
        c.adversary.integrity_checks = 2;
        c.payload_bytes = 0;
      }),
  };
  for (const ClusterConfig& cfg : bad) {
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_THROW(LoopbackCluster{cfg}, std::invalid_argument);
  }
  EXPECT_NO_THROW(small_cluster_config().validate());
}

TEST(NodeCluster, PayloadsRecoveredByteExactly) {
  const auto cfg = small_cluster_config();
  LoopbackCluster cluster{cfg};
  ASSERT_TRUE(cluster.run_to_completion(300.0));
  // Every server's every decode CRC-checks the recovered originals
  // against what the injecting peer generated, as the decode happens —
  // the whole pipeline (systematic seeding, recoding, framing,
  // transport, Gaussian elimination) is lossless.
  EXPECT_EQ(cluster.payload_crc_failures(), 0U);
  EXPECT_EQ(cluster.payload_originals_checked(),
            cfg.num_peers * cfg.segments_per_peer * cfg.segment_size *
                cfg.num_servers);
}

TEST(NodeCluster, ServerRetainsNoDecodedPayloads) {
  const auto cfg = small_cluster_config();
  LoopbackCluster cluster{cfg};
  ASSERT_TRUE(cluster.run_to_completion(300.0));
  // A decoded segment leaves its completion record and nothing else:
  // the originals went to the decode hook and were released with the
  // decoder.
  for (std::size_t srv = 0; srv < cfg.num_servers; ++srv) {
    const proto::ServerBank& bank = cluster.server(srv).bank();
    EXPECT_EQ(bank.segments_in_progress(), 0U);
    for (std::size_t p = 0; p < cfg.num_peers; ++p) {
      for (std::uint32_t seq = 0; seq < cfg.segments_per_peer; ++seq) {
        const coding::SegmentId id{cluster.peer(p).config().node_id, seq};
        EXPECT_TRUE(bank.is_decoded(id));
        EXPECT_EQ(bank.originals(id), nullptr)
            << "server " << srv << " kept " << id.origin << "/" << id.seq;
      }
    }
  }
}

TEST(NodeCluster, TargetedPullsFollowRosterChanges) {
  // Sessions closing mid-run shift the server's peer roster. Targeted
  // pulls map advertisers to roster slots, and ServerNode checks every
  // lookup against the roster, so a stale slot throws here.
  auto cfg = small_cluster_config();
  cfg.pull_policy = proto::PullPolicyKind::kDeficitWeighted;
  LoopbackCluster cluster{cfg};
  cluster.run_for(2.0);
  const auto server_end = static_cast<net::NodeId>(cfg.num_peers);
  const std::uint64_t targeted_before = cluster.server(0).targeted_pulls();
  cluster.net().disconnect(server_end, 1);
  cluster.net().disconnect(server_end, 3);
  cluster.run_for(0.1);
  ASSERT_EQ(cluster.server(0).peer_session_count(), cfg.num_peers - 2);
  ASSERT_TRUE(cluster.run_to_completion(300.0));
  EXPECT_GT(cluster.server(0).targeted_pulls(), targeted_before);
}

TEST(NodeCluster, FixedSeedReproducesBitForBit) {
  const auto run = [] {
    LoopbackCluster cluster{small_cluster_config()};
    cluster.run_for(25.0);
    return std::array<std::uint64_t, 5>{
        cluster.segments_injected(),
        static_cast<std::uint64_t>(cluster.segments_decoded()),
        cluster.innovative_pulls(), cluster.pulls_sent(),
        cluster.gossip_sent()};
  };
  const auto first = run();
  EXPECT_EQ(first, run());

  auto other = small_cluster_config();
  other.seed = 12;
  other.net.seed = 12;
  LoopbackCluster cluster{other};
  cluster.run_for(25.0);
  // A different seed must actually change the trajectory.
  const std::array<std::uint64_t, 5> changed{
      cluster.segments_injected(),
      static_cast<std::uint64_t>(cluster.segments_decoded()),
      cluster.innovative_pulls(), cluster.pulls_sent(),
      cluster.gossip_sent()};
  EXPECT_NE(changed, first);
}

TEST(NodeCluster, SurvivesTtlChurnViaSourceRetention) {
  // Aggressive TTL: blocks decay fast enough that without source
  // retention segments die before collection. With it, every peer's
  // un-ACKed own segment holds rank s at every sample, and the
  // collection finishes.
  auto cfg = small_cluster_config();
  cfg.gamma = 3.0;
  LoopbackCluster cluster{cfg};
  std::size_t pinned_samples = 0;
  while (!cluster.complete() && cluster.now() < 600.0) {
    cluster.run_for(0.25);
    for (std::size_t p = 0; p < cfg.num_peers; ++p) {
      const PeerNode& peer = cluster.peer(p);
      std::size_t retained = 0;
      for (std::uint32_t seq = 0; seq < peer.segments_injected(); ++seq) {
        const coding::SegmentId id{peer.config().node_id, seq};
        if (peer.is_acked(id)) continue;
        ++retained;
        const coding::SegmentBuffer* sb = peer.buffer().find(id);
        ASSERT_NE(sb, nullptr) << id.to_string() << " t=" << cluster.now();
        ASSERT_TRUE(sb->full_rank())
            << id.to_string() << " t=" << cluster.now();
      }
      EXPECT_EQ(peer.retained_segments(), retained);
      pinned_samples += retained;
    }
  }
  ASSERT_TRUE(cluster.complete())
      << "decoded " << cluster.segments_decoded() << "/"
      << cluster.segments_injected();
  EXPECT_GT(pinned_samples, 0U);
  for (std::size_t p = 0; p < cfg.num_peers; ++p) {
    EXPECT_EQ(cluster.peer(p).retained_segments(), 0U);
  }
}

TEST(NodeCluster, UnionRecoveryUnderLinkFaults) {
  // Per-send loss and adversarial chunking: frame reassembly and the
  // redundancy of gossip+retention must still get every segment to at
  // least one server (strict every-server convergence relies on the
  // lossless server-server forwarding links, so only the union is
  // guaranteed here).
  auto cfg = small_cluster_config();
  cfg.net.drop_probability = 0.05;
  cfg.net.chunk_bytes = 7;
  cfg.net.latency_jitter = 0.002;
  LoopbackCluster cluster{cfg};
  double t = 0.0;
  do {
    cluster.run_for(5.0);
    t += 5.0;
  } while (t < 600.0 &&
           (cluster.segments_injected() < 6U * 3U ||
            cluster.segments_decoded() < cluster.segments_injected()));
  EXPECT_EQ(cluster.segments_injected(), 6U * 3U);
  EXPECT_EQ(cluster.segments_decoded(), cluster.segments_injected());
  EXPECT_GT(cluster.net().drops(), 0U);
}

TEST(NodeCluster, DropOnAckPurgesDecodedSegments) {
  auto cfg = small_cluster_config();
  cfg.drop_on_ack = true;
  LoopbackCluster cluster{cfg};
  ASSERT_TRUE(cluster.run_to_completion(300.0));
  // Every injected segment ends up ACKed at every peer (full mesh,
  // lossless links), so with drop_on_ack every buffered block has been
  // purged once in-flight ACKs drain.
  cluster.run_for(5.0);
  EXPECT_EQ(cluster.total_buffered_blocks(), 0U);
}

TEST(NodeCluster, AcksGoToTheSegmentOriginOnly) {
  // Without drop_on_ack no peer asks for other origins' ACKs: each
  // server ACKs a decode to its origin alone, and never to a server.
  LoopbackCluster cluster{small_cluster_config()};
  ASSERT_TRUE(cluster.run_to_completion(300.0));
  cluster.run_for(1.0);  // drain in-flight ACKs
  const std::uint64_t servers = 2;
  for (std::size_t i = 0; i < 6; ++i) {
    const PeerNode& peer = cluster.peer(i);
    EXPECT_EQ(peer.own_segments_acked(), peer.segments_injected());
    EXPECT_EQ(peer.acks_received(), servers * peer.own_segments_acked())
        << "peer " << i;
    EXPECT_EQ(peer.acked_segments(), peer.own_segments_acked());
  }
  for (std::size_t i = 0; i < servers; ++i) {
    EXPECT_EQ(cluster.server(i).acks_sent(),
              cluster.server(i).segments_decoded());
    EXPECT_EQ(cluster.server(i).acks_received(), 0U);
  }
}

// --- direct two-node protocol behaviors ------------------------------------

struct TwoNodes {
  net::LoopbackNet net{[] {
    net::LoopbackNet::Options o;
    o.latency = 0.001;
    return o;
  }()};
  net::LoopbackNet::Endpoint& a{net.create_endpoint()};
  net::LoopbackNet::Endpoint& b{net.create_endpoint()};
};

NodeConfig peer_config(std::uint32_t id) {
  NodeConfig cfg;
  cfg.node_id = id;
  cfg.segment_size = 4;
  cfg.buffer_cap = 16;
  cfg.lambda = 0.0;  // quiescent unless a test arms processes
  cfg.mu = 0.0;
  cfg.gamma = 1.0;
  cfg.seed = id;
  return cfg;
}

TEST(NodeCluster, TelemetryDoesNotPerturbDeterminism) {
  // Attaching a metrics registry and a trace sink must not change one
  // bit of the run: all instrumentation is pull-based or passive.
  const auto run = [](bool instrumented) {
    obs::MetricsRegistry reg;
    std::vector<proto::TraceEvent> events;
    LoopbackCluster cluster{small_cluster_config(),
                            instrumented ? &reg : nullptr};
    if (instrumented) {
      cluster.set_trace_sink(
          [&events](const proto::TraceEvent& e) { events.push_back(e); });
    }
    cluster.run_for(25.0);
    return std::array<std::uint64_t, 5>{
        cluster.segments_injected(),
        static_cast<std::uint64_t>(cluster.segments_decoded()),
        cluster.innovative_pulls(), cluster.pulls_sent(),
        cluster.gossip_sent()};
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(NodeCluster, LatencyHistogramsPopulatedByCollection) {
  obs::MetricsRegistry reg;
  LoopbackCluster cluster{small_cluster_config(), &reg};
  ASSERT_TRUE(cluster.run_to_completion(300.0));
  const double t = cluster.now();
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& rtt = cluster.server(i).pull_rtt();
    // Every answered pull recorded an RTT sample.
    EXPECT_GE(rtt.count(), cluster.server(i).pull_replies());
    EXPECT_GT(rtt.quantile_seconds(0.5), 0.0);
    EXPECT_LE(rtt.max_seconds(), t);
    // RTT over the loopback is at least the two-way link latency.
    EXPECT_GE(rtt.quantile_seconds(0.5),
              2.0 * cluster.config().net.latency - 1e-9);

    const auto& dl = cluster.server(i).decode_latency();
    EXPECT_EQ(dl.count(), cluster.server(i).segments_decoded());
    EXPECT_GT(dl.quantile_seconds(0.5), 0.0);
    EXPECT_LE(dl.max_seconds(), t);
  }
  // The registry sees the same histograms under the per-server prefix.
  ASSERT_NE(reg.find_latency("server0.pull_rtt"), nullptr);
  EXPECT_EQ(reg.find_latency("server0.pull_rtt")->count(),
            cluster.server(0).pull_rtt().count());
}

TEST(NodeCluster, HandshakeAndWireErrorCountersExported) {
  obs::MetricsRegistry reg;
  const auto cfg = small_cluster_config();
  LoopbackCluster cluster{cfg, &reg};
  cluster.run_for(5.0);
  // Full mesh: every peer handshakes with every other node; both ends
  // count, so the cluster-wide total is twice the edge count.
  std::uint64_t handshakes = 0;
  for (std::size_t i = 0; i < cfg.num_peers; ++i) {
    handshakes += cluster.peer(i).handshakes_ok();
    EXPECT_EQ(cluster.peer(i).decode_errors(), 0U);
    EXPECT_EQ(
        cluster.peer(i).decode_errors_by(wire::DecodeStatus::kBadCrc), 0U);
  }
  for (std::size_t i = 0; i < cfg.num_servers; ++i) {
    handshakes += cluster.server(i).handshakes_ok();
  }
  const std::size_t n = cfg.num_peers + cfg.num_servers;
  EXPECT_EQ(handshakes, n * (n - 1));
  // Roster occupancy gauges reflect the full mesh.
  EXPECT_DOUBLE_EQ(reg.find_gauge("peer1.peer_sessions")->value(),
                   static_cast<double>(cfg.num_peers - 1));
  EXPECT_DOUBLE_EQ(reg.find_gauge("peer1.server_sessions")->value(),
                   static_cast<double>(cfg.num_servers));
  EXPECT_DOUBLE_EQ(reg.find_gauge("peer1.wire_err.bad-crc")->value(), 0.0);
}

TEST(NodeCluster, TraceSinkSeesProtocolLifecycle) {
  obs::MetricsRegistry reg;
  std::vector<proto::TraceEvent> events;
  LoopbackCluster cluster{small_cluster_config(), &reg};
  cluster.set_trace_sink(
      [&events](const proto::TraceEvent& e) { events.push_back(e); });
  ASSERT_TRUE(cluster.run_to_completion(300.0));

  std::uint64_t injects = 0;
  std::uint64_t decodes = 0;
  std::uint64_t gossips = 0;
  std::uint64_t pulls = 0;
  std::uint64_t innovative = 0;
  double prev = 0.0;
  for (const auto& e : events) {
    EXPECT_GE(e.at, prev);  // single virtual clock: nondecreasing
    prev = e.at;
    switch (e.kind) {
      case proto::TraceEventKind::kSegmentInjected: ++injects; break;
      case proto::TraceEventKind::kSegmentDecoded: ++decodes; break;
      case proto::TraceEventKind::kGossipSent: ++gossips; break;
      case proto::TraceEventKind::kServerPull:
        ++pulls;
        innovative += e.aux;
        break;
      default: break;
    }
  }
  EXPECT_EQ(injects, cluster.segments_injected());
  // Each server traces its own decode of each segment.
  EXPECT_EQ(decodes, cluster.segments_injected() * 2U);
  EXPECT_EQ(gossips, cluster.gossip_sent());
  EXPECT_EQ(innovative, cluster.innovative_pulls());
  EXPECT_LE(pulls, cluster.pulls_sent());  // empty replies don't trace
}

TEST(NodeProtocol, HandshakeEstablishesRosters) {
  TwoNodes t;
  PeerNode peer{peer_config(1), t.a, t.net.timers()};
  ServerNode server{[] {
    auto cfg = peer_config(0x80000001U);
    cfg.buffer_cap = 4;
    return cfg;
  }(), t.b, t.net.timers()};
  t.net.connect(t.a.id(), t.b.id());
  t.net.run_for(0.1);
  EXPECT_EQ(peer.server_session_count(), 1U);
  EXPECT_EQ(peer.peer_session_count(), 0U);
  EXPECT_EQ(server.peer_session_count(), 1U);
  EXPECT_GE(peer.frames_sent(), 1U);     // its HELLO
  EXPECT_GE(peer.frames_received(), 1U); // the server's HELLO
}

/// A raw endpoint handler that ignores everything — lets tests inject
/// arbitrary bytes at a live node.
class SilentHandler final : public net::TransportHandler {
 public:
  void on_peer_up(net::NodeId) override {}
  void on_peer_down(net::NodeId peer) override { downs.push_back(peer); }
  void on_bytes(net::NodeId, std::span<const std::uint8_t>) override {}
  std::vector<net::NodeId> downs;
};

TEST(NodeProtocol, GarbageBytesTerminateTheSession) {
  TwoNodes t;
  PeerNode peer{peer_config(1), t.a, t.net.timers()};
  SilentHandler raw;
  t.b.set_handler(&raw);
  t.net.connect(t.a.id(), t.b.id());
  t.net.run_for(0.1);
  const std::vector<std::uint8_t> junk{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01,
                                       0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                                       0x08, 0x09, 0x0A, 0x0B};
  t.b.send(t.a.id(), junk);
  t.net.run_for(0.1);
  EXPECT_EQ(peer.decode_errors(), 1U);
  EXPECT_EQ(peer.peer_session_count(), 0U);
  EXPECT_EQ(peer.server_session_count(), 0U);
  // The peer severed the link after the framing violation.
  ASSERT_EQ(raw.downs.size(), 1U);
}

TEST(NodeProtocol, VersionMismatchRejectedWithBye) {
  TwoNodes t;
  PeerNode peer{peer_config(1), t.a, t.net.timers()};
  SilentHandler raw;
  t.b.set_handler(&raw);
  t.net.connect(t.a.id(), t.b.id());
  t.net.run_for(0.1);
  wire::Hello hello;
  hello.role = wire::NodeRole::kPeer;
  hello.version_min = 9;  // disjoint from [1,1]
  hello.version_max = 12;
  hello.node_id = 2;
  hello.segment_size = 4;
  t.b.send(t.a.id(), wire::encoded_frame(wire::Message{hello}));
  t.net.run_for(0.1);
  EXPECT_EQ(peer.version_rejects(), 1U);
  EXPECT_EQ(peer.peer_session_count(), 0U);
  ASSERT_EQ(raw.downs.size(), 1U);
}

TEST(NodeProtocol, SegmentSizeMismatchRejected) {
  TwoNodes t;
  PeerNode peer{peer_config(1), t.a, t.net.timers()};
  SilentHandler raw;
  t.b.set_handler(&raw);
  t.net.connect(t.a.id(), t.b.id());
  t.net.run_for(0.1);
  wire::Hello hello;
  hello.role = wire::NodeRole::kPeer;
  hello.node_id = 2;
  hello.segment_size = 9;  // peer codes with s=4
  t.b.send(t.a.id(), wire::encoded_frame(wire::Message{hello}));
  t.net.run_for(0.1);
  EXPECT_EQ(peer.peer_session_count(), 0U);
  ASSERT_EQ(raw.downs.size(), 1U);
}

TEST(NodeProtocol, PullOnEmptyBufferAnswersWithoutBlock) {
  TwoNodes t;
  PeerNode peer{peer_config(1), t.a, t.net.timers()};
  ServerNode server{[] {
    auto cfg = peer_config(0x80000001U);
    cfg.buffer_cap = 4;
    cfg.server_rate = 50.0;
    return cfg;
  }(), t.b, t.net.timers()};
  t.net.connect(t.a.id(), t.b.id());
  t.net.run_for(0.1);
  server.start();  // peer never injects: every pull reply is empty
  t.net.run_for(1.0);
  EXPECT_GT(peer.pull_empty_replies(), 0U);
  EXPECT_EQ(peer.pull_replies(), 0U);
  EXPECT_EQ(server.segments_decoded(), 0U);
  // Occupancy-aware pulls back off from a peer that reported empty, so
  // pulls are far fewer than rate × time would allow.
  EXPECT_LT(server.pulls_sent(), 25U);
}

/// A raw endpoint that speaks the wire protocol by hand: it opens each
/// connection with a chosen HELLO and records the HELLOs, ACKs and pull
/// tokens that arrive, answering nothing on its own.
class ScriptedNode final : public net::TransportHandler {
 public:
  ScriptedNode(net::LoopbackNet::Endpoint& endpoint, wire::Hello hello)
      : endpoint_{endpoint}, hello_{hello} {
    endpoint_.set_handler(this);
  }
  void on_peer_up(net::NodeId conn) override {
    send(conn, wire::Message{hello_});
  }
  void on_peer_down(net::NodeId) override {}
  void on_bytes(net::NodeId, std::span<const std::uint8_t> bytes) override {
    decoder_.feed(bytes);
    for (auto r = decoder_.next(); r.status == wire::DecodeStatus::kFrame;
         r = decoder_.next()) {
      if (const auto* h = std::get_if<wire::Hello>(&r.message)) {
        hellos.push_back(*h);
      } else if (const auto* ack =
                     std::get_if<wire::SegmentDecodedAck>(&r.message)) {
        acks.push_back(ack->segment);
      } else if (const auto* pull =
                     std::get_if<wire::PullRequest>(&r.message)) {
        pull_tokens.push_back(pull->token);
      }
    }
  }
  void send(net::NodeId to, const wire::Message& message) {
    endpoint_.send(to, wire::encoded_frame(message));
  }

  std::vector<wire::Hello> hellos;
  std::vector<coding::SegmentId> acks;
  std::vector<std::uint32_t> pull_tokens;

 private:
  net::LoopbackNet::Endpoint& endpoint_;
  wire::Hello hello_;
  wire::FrameDecoder decoder_;
};

NodeConfig server_config() {
  auto cfg = peer_config(0x80000001U);
  cfg.buffer_cap = 4;
  return cfg;
}

/// Complete `id` in the server's bank with s systematic blocks, which
/// fires the server's decode path exactly as a pulled block would.
void decode_at(ServerNode& server, coding::SegmentId id, double now) {
  const std::size_t s = server.config().segment_size;
  for (std::size_t i = 0; i < s; ++i) {
    coding::CodedBlock block;
    block.segment = id;
    block.coefficients.assign(s, 0);
    block.coefficients[i] = 1;
    (void)server.bank().offer(block, now);
  }
}

/// One server wired to `n` peer endpoints over a 1 ms loopback.
struct Star {
  explicit Star(std::size_t n) {
    for (std::size_t i = 0; i <= n; ++i) net.create_endpoint();
  }
  net::LoopbackNet net{[] {
    net::LoopbackNet::Options o;
    o.latency = 0.001;
    return o;
  }()};
  net::LoopbackNet::Endpoint& server_end() { return net.endpoint(0); }
  net::LoopbackNet::Endpoint& peer_end(std::size_t i) {
    return net.endpoint(static_cast<net::NodeId>(i + 1));
  }
  void link(std::size_t i) {
    net.connect(0, static_cast<net::NodeId>(i + 1));
    net.run_for(0.01);
  }
};

TEST(NodeProtocol, FlaggedPeerGetsEveryAckOthersOnlyTheirOwn) {
  Star t{3};
  ServerNode server{server_config(), t.server_end(), t.net.timers()};
  auto flagged_cfg = peer_config(1);
  flagged_cfg.drop_on_ack = true;  // drop_on_ack peers set kHelloAllAcks
  PeerNode flagged{flagged_cfg, t.peer_end(0), t.net.timers()};
  PeerNode two{peer_config(2), t.peer_end(1), t.net.timers()};
  PeerNode three{peer_config(3), t.peer_end(2), t.net.timers()};
  for (std::size_t i = 0; i < 3; ++i) t.link(i);
  ASSERT_EQ(server.peer_session_count(), 3U);

  const std::uint64_t frames_before = server.frames_sent();
  for (const coding::SegmentId id : {coding::SegmentId{2, 0},
                                     coding::SegmentId{3, 0},
                                     coding::SegmentId{1, 0},
                                     coding::SegmentId{99, 0}}) {
    decode_at(server, id, t.net.now());
  }
  t.net.run_for(0.01);
  EXPECT_EQ(flagged.acks_received(), 4U);
  EXPECT_EQ(flagged.acked_segments(), 4U);
  EXPECT_EQ(two.acks_received(), 1U);
  EXPECT_EQ(three.acks_received(), 1U);
  // {2,0} and {3,0}: origin + flagged; {1,0}: flagged is the origin;
  // {99,0}: flagged only.
  EXPECT_EQ(server.acks_sent(), 6U);
  EXPECT_EQ(server.frames_sent() - frames_before, 6U);
}

TEST(NodeProtocol, AckWithoutOriginSessionSendsNothing) {
  Star t{1};
  ServerNode server{server_config(), t.server_end(), t.net.timers()};
  decode_at(server, {1, 0}, t.net.now());  // no sessions at all
  EXPECT_EQ(server.acks_sent(), 0U);

  PeerNode peer{peer_config(1), t.peer_end(0), t.net.timers()};
  t.link(0);
  const std::uint64_t frames_before = server.frames_sent();
  decode_at(server, {42, 7}, t.net.now());
  t.net.run_for(0.01);
  EXPECT_EQ(server.segments_decoded(), 2U);
  EXPECT_EQ(server.acks_sent(), 0U);
  EXPECT_EQ(server.frames_sent(), frames_before);
  EXPECT_EQ(peer.acks_received(), 0U);
}

TEST(NodeProtocol, ReconnectedPeerGetsAcksOnItsNewConnection) {
  Star t{2};
  ServerNode server{server_config(), t.server_end(), t.net.timers()};
  PeerNode old_conn{peer_config(1), t.peer_end(0), t.net.timers()};
  PeerNode new_conn{peer_config(1), t.peer_end(1), t.net.timers()};
  t.link(0);
  t.link(1);  // same node_id, second connection
  // The old connection closes after the new one is up: that must not
  // unmap node_id 1 from the new connection.
  t.net.disconnect(0, 1);
  t.net.run_for(0.01);
  ASSERT_EQ(server.peer_session_count(), 1U);
  decode_at(server, {1, 0}, t.net.now());
  t.net.run_for(0.01);
  EXPECT_EQ(new_conn.acks_received(), 1U);
  EXPECT_EQ(old_conn.acks_received(), 0U);

  t.net.disconnect(0, 2);
  t.net.run_for(0.01);
  decode_at(server, {1, 1}, t.net.now());
  EXPECT_EQ(server.acks_sent(), 1U);
}

TEST(NodeProtocol, ServerAcceptsAnAckFromAnOlderServer) {
  Star t{1};
  ServerNode server{server_config(), t.server_end(), t.net.timers()};
  wire::Hello hello;
  hello.role = wire::NodeRole::kServer;
  hello.node_id = 0x80000002U;
  hello.segment_size = 4;
  ScriptedNode legacy{t.peer_end(0), hello};
  t.link(0);
  ASSERT_EQ(server.server_session_count(), 1U);
  legacy.send(0, wire::Message{wire::SegmentDecodedAck{{5, 0}}});
  t.net.run_for(0.01);
  EXPECT_EQ(server.acks_received(), 1U);
  EXPECT_EQ(server.server_session_count(), 1U);
  // The new server never ACKs a server.
  decode_at(server, {5, 1}, t.net.now());
  t.net.run_for(0.01);
  EXPECT_TRUE(legacy.acks.empty());
}

TEST(NodeProtocol, ForeignAcksLeaveNoPeerStateWithoutDropOnAck) {
  Star t{1};
  wire::Hello hello;
  hello.role = wire::NodeRole::kServer;
  hello.node_id = 0x80000001U;
  hello.segment_size = 4;
  ScriptedNode forger{t.server_end(), hello};
  obs::MetricsRegistry reg;
  PeerNode peer{peer_config(1), t.peer_end(0), t.net.timers(), &reg};
  t.link(0);
  ASSERT_EQ(peer.server_session_count(), 1U);
  for (std::uint32_t seq = 0; seq < 10000; ++seq) {
    forger.send(1, wire::Message{wire::SegmentDecodedAck{{99, seq}}});
  }
  t.net.run_for(0.01);
  EXPECT_EQ(peer.acks_received(), 10000U);
  ASSERT_NE(reg.find_gauge("peer.acked_segments"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_gauge("peer.acked_segments")->value(), 0.0);
}

TEST(NodeProtocol, PendingPullsExpireOneByOneAndKeepRttSamples) {
  Star t{1};
  obs::MetricsRegistry reg;
  auto cfg = server_config();
  cfg.server_rate = 100000.0;
  ServerNode server{cfg, t.server_end(), t.net.timers(), &reg};
  wire::Hello hello;
  hello.role = wire::NodeRole::kPeer;
  hello.node_id = 1;
  hello.segment_size = 4;
  ScriptedNode mute{t.peer_end(0), hello};  // never answers a pull
  t.link(0);
  server.start();
  while (server.pulls_sent() < 70000) t.net.run_for(0.01);
  t.net.run_for(0.01);  // let the last requests land

  // Only the newest ServerNode::kMaxPendingPulls tokens are pending.
  constexpr double kCap = 65536.0;
  const auto* pending = reg.find_gauge("server.pending_pulls");
  ASSERT_NE(pending, nullptr);
  EXPECT_EQ(pending->value(), kCap);

  // Answer the newest pull, one 60,000 pulls old (clearing the whole
  // map at the cap would have lost it) and the very first, which has
  // expired. Only the first two are round trips the server remembers.
  ASSERT_FALSE(mute.pull_tokens.empty());
  const std::uint32_t newest = mute.pull_tokens.back();
  ASSERT_GT(newest, 60000U);
  for (const std::uint32_t token : {newest, newest - 60000U, 1U}) {
    wire::PullBlock reply;
    reply.token = token;
    mute.send(0, wire::Message{reply});
  }
  t.net.run_for(0.01);
  EXPECT_EQ(server.pull_empty_replies(), 3U);
  EXPECT_EQ(server.pull_rtt().count(), 2U);
}

TEST(NodeProtocol, PeerIsNotDoneUntilItsLastSegmentIsInjected) {
  // A server ACKs a --segments 2 peer's first segment before the second
  // is injected: the peer must not report every injected segment ACKed.
  Star t{1};
  wire::Hello hello;
  hello.role = wire::NodeRole::kServer;
  hello.node_id = 0x80000001U;
  hello.segment_size = 4;
  ScriptedNode server{t.server_end(), hello};
  auto cfg = peer_config(1);
  cfg.lambda = 4.0;  // one segment per second on average
  cfg.max_segments = 2;
  cfg.retain_own_until_acked = true;
  PeerNode peer{cfg, t.peer_end(0), t.net.timers()};
  t.link(0);
  peer.start();
  while (peer.segments_injected() == 0) t.net.run_for(0.001);
  server.send(1, wire::Message{wire::SegmentDecodedAck{{1, 0}}});
  t.net.run_for(0.005);
  ASSERT_EQ(peer.segments_injected(), 1U);  // the ACK beat injection 2
  ASSERT_EQ(peer.own_segments_acked(), 1U);
  EXPECT_FALSE(peer.injection_done());
  EXPECT_FALSE(peer.all_injected_acked());

  while (peer.segments_injected() < 2) t.net.run_for(0.01);
  EXPECT_FALSE(peer.all_injected_acked());
  server.send(1, wire::Message{wire::SegmentDecodedAck{{1, 1}}});
  t.net.run_for(0.005);
  EXPECT_TRUE(peer.all_injected_acked());
  EXPECT_EQ(peer.retained_segments(), 0U);
}

TEST(NodeProtocol, PeersAskForEveryAckOnlyUnderDropOnAck) {
  Star t{2};
  wire::Hello hello;
  hello.role = wire::NodeRole::kServer;
  hello.node_id = 0x80000001U;
  hello.segment_size = 4;
  ScriptedNode server{t.server_end(), hello};
  auto flagged_cfg = peer_config(1);
  flagged_cfg.drop_on_ack = true;
  PeerNode flagged{flagged_cfg, t.peer_end(0), t.net.timers()};
  PeerNode plain{peer_config(2), t.peer_end(1), t.net.timers()};
  t.link(0);
  t.link(1);
  ASSERT_EQ(server.hellos.size(), 2U);
  EXPECT_EQ(server.hellos[0].node_id, 1U);
  EXPECT_EQ(server.hellos[0].flags, wire::kHelloAllAcks);
  EXPECT_EQ(server.hellos[1].node_id, 2U);
  EXPECT_EQ(server.hellos[1].flags, 0U);
}

}  // namespace
}  // namespace icollect::node
