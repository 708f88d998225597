/// \file stream_transport_test.cpp
/// The socket transport against real loopback sockets: ephemeral
/// listen, connect and bidirectional byte flow, send-queue backpressure
/// and short-send compaction, connect failure after the retry budget,
/// idle reaping, EINTR storms, close propagation and the counter set.
///
/// Every case runs twice: as Tcp.<case> on default options, and as
/// EpollReactor.<case> with every transport reading in 512-byte chunks.
/// A readiness report then drains at most 16 chunks (8 KiB) before the
/// reactor moves on, so any larger transfer completes only if
/// level-triggered epoll reports the fd again for the bytes left.
/// Everything is single-threaded through poll_once(), with generous
/// wall-clock deadlines so loaded CI machines don't flake.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <span>
#include <string>
#include <sys/time.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/stream_transport.h"
#include "net/transport.h"
#include "obs/metrics_registry.h"

namespace icollect::net {
namespace {

class RecordingHandler final : public TransportHandler {
 public:
  void on_peer_up(NodeId peer) override { ups.push_back(peer); }
  void on_peer_down(NodeId peer) override { downs.push_back(peer); }
  void on_bytes(NodeId peer, std::span<const std::uint8_t> bytes) override {
    auto& stream = received[peer];
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }

  std::vector<NodeId> ups;
  std::vector<NodeId> downs;
  std::unordered_map<NodeId, std::vector<std::uint8_t>> received;
};

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

/// Pump both transports until `done` or the wall-clock deadline.
template <typename Pred>
bool pump(StreamTransport& a, StreamTransport& b, Pred done,
          double timeout = 10.0) {
  const double t0 = a.now();
  while (a.now() - t0 < timeout) {
    a.poll_once(0.01);
    b.poll_once(0.01);
    if (done()) return true;
  }
  return done();
}

/// A listening server and a client connected to it, both up.
struct Pair {
  /// The server runs on `base`, the client on `client_opts`.
  Pair(const StreamOptions& base, const StreamOptions& client_opts)
      : server{base}, client{client_opts} {
    server.set_handler(&hs);
    client.set_handler(&hc);
    port = server.listen("127.0.0.1", 0);
    conn = client.connect("127.0.0.1", port);
  }
  bool establish() {
    return pump(server, client,
                [&] { return !hs.ups.empty() && !hc.ups.empty(); });
  }
  /// Bytes the server has received on its side of the connection.
  std::vector<std::uint8_t>& at_server() { return hs.received[hs.ups[0]]; }

  StreamTransport server;
  StreamTransport client;
  RecordingHandler hs;
  RecordingHandler hc;
  std::uint16_t port = 0;
  NodeId conn = kInvalidNodeId;
};

/// A port that was just bound and released, so almost surely closed.
std::uint16_t dead_port(const StreamOptions& base) {
  StreamTransport probe{base};
  return probe.listen("127.0.0.1", 0);
}

void ephemeral_listen_returns_real_port(const StreamOptions& base) {
  StreamTransport t{base};
  EXPECT_GT(t.listen("127.0.0.1", 0), 0);
}

void connect_exchange_close(const StreamOptions& base) {
  Pair p{base, base};
  ASSERT_TRUE(p.establish()) << "connection did not establish";

  // Client → server.
  ASSERT_TRUE(p.client.send(p.conn, bytes_of("ping")));
  ASSERT_TRUE(pump(p.server, p.client,
                   [&] { return p.at_server().size() >= 4; }));
  EXPECT_EQ(p.at_server(), bytes_of("ping"));

  // Server → client over the accepted connection.
  ASSERT_TRUE(p.server.send(p.hs.ups[0], bytes_of("pong!")));
  ASSERT_TRUE(pump(p.server, p.client,
                   [&] { return p.hc.received[p.conn].size() >= 5; }));
  EXPECT_EQ(p.hc.received[p.conn], bytes_of("pong!"));
  EXPECT_EQ(p.server.accepts(), 1U);
  EXPECT_EQ(p.client.connects_ok(), 1U);
  EXPECT_GE(p.client.bytes_sent(), 4U);
  EXPECT_GE(p.server.bytes_received(), 4U);

  // close_peer notifies synchronously; the other side sees the down.
  p.client.close_peer(p.conn);
  ASSERT_EQ(p.hc.downs.size(), 1U);
  EXPECT_EQ(p.hc.downs[0], p.conn);
  ASSERT_TRUE(pump(p.server, p.client, [&] { return !p.hs.downs.empty(); }));
  EXPECT_EQ(p.hs.downs[0], p.hs.ups[0]);
}

void close_flushes_queued_bytes_first(const StreamOptions& base) {
  // send() only queues; close_peer right after must still put the
  // bytes on the wire before the FIN.
  Pair p{base, base};
  ASSERT_TRUE(p.establish());
  ASSERT_TRUE(p.client.send(p.conn, bytes_of("last words")));
  p.client.close_peer(p.conn);
  EXPECT_EQ(p.client.send_queue_bytes(), 0U);
  ASSERT_TRUE(pump(p.server, p.client, [&] { return !p.hs.downs.empty(); }));
  // on_bytes cannot fire for a connection after its down, so the bytes
  // being complete now means they arrived first.
  EXPECT_EQ(p.at_server(), bytes_of("last words"));
}

void large_transfer_survives_chunking(const StreamOptions& base) {
  // 1 MiB through real kernel buffers arrives intact and in order,
  // regardless of how recv() slices it.
  Pair p{base, base};
  ASSERT_TRUE(p.establish());
  std::vector<std::uint8_t> blob(1U << 20U);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 2654435761U >> 24U);
  }
  ASSERT_TRUE(p.client.send(p.conn, blob));
  ASSERT_TRUE(pump(p.server, p.client,
                   [&] { return p.at_server().size() >= blob.size(); }));
  EXPECT_EQ(p.at_server(), blob);
  EXPECT_GT(p.server.wakeups(), 0U);
  EXPECT_GT(p.server.events_dispatched(), 0U);
}

void backpressure_refuses_over_cap(const StreamOptions& base) {
  StreamOptions opts = base;
  opts.send_queue_cap_bytes = 64;
  Pair p{base, opts};

  // A send larger than the cap is refused outright — nothing is queued,
  // whatever the connection state.
  EXPECT_FALSE(p.client.send(p.conn, std::vector<std::uint8_t>(65, 1)));
  EXPECT_EQ(p.client.backpressure_refusals(), 1U);

  // Within the cap it queues, flushes once established, and arrives.
  EXPECT_TRUE(p.client.send(p.conn, std::vector<std::uint8_t>(60, 2)));
  EXPECT_FALSE(p.client.send(p.conn, std::vector<std::uint8_t>(8, 2)));
  ASSERT_TRUE(pump(p.server, p.client, [&] {
    return !p.hs.ups.empty() && p.at_server().size() >= 60;
  }));
  EXPECT_TRUE(p.client.send(p.conn, std::vector<std::uint8_t>(60, 3)));
  EXPECT_EQ(p.client.backpressure_refusals(), 2U);
}

void connect_to_dead_port_fails_after_retries(const StreamOptions& base) {
  const std::uint16_t port = dead_port(base);
  StreamOptions opts = base;
  opts.connect_timeout = 0.5;
  opts.connect_retries = 1;
  opts.retry_backoff = 0.05;
  StreamTransport client{opts};
  RecordingHandler hc;
  client.set_handler(&hc);
  const NodeId conn = client.connect("127.0.0.1", port);
  const double t0 = client.now();
  while (client.now() - t0 < 10.0 && hc.downs.empty()) {
    client.poll_once(0.01);
  }
  ASSERT_EQ(hc.downs.size(), 1U);
  EXPECT_EQ(hc.downs[0], conn);
  EXPECT_TRUE(hc.ups.empty());
  EXPECT_EQ(client.connects_failed(), 1U);
  // The dead connection refuses sends.
  EXPECT_FALSE(client.send(conn, bytes_of("x")));
}

void connect_retries_are_counted(const StreamOptions& base) {
  const std::uint16_t port = dead_port(base);
  StreamOptions opts = base;
  opts.connect_timeout = 0.3;
  opts.connect_retries = 2;
  opts.retry_backoff = 0.02;
  StreamTransport client{opts};
  RecordingHandler hc;
  client.set_handler(&hc);
  client.connect("127.0.0.1", port);
  const double t0 = client.now();
  while (client.now() - t0 < 10.0 && hc.downs.empty()) {
    client.poll_once(0.01);
  }
  ASSERT_EQ(hc.downs.size(), 1U);
  // First attempt is not a retry; the two extra attempts are.
  EXPECT_EQ(client.connect_retries(), 2U);
  EXPECT_EQ(client.connects_failed(), 1U);
  EXPECT_EQ(client.connects_ok(), 0U);
}

void send_to_unknown_conn_refused(const StreamOptions& base) {
  StreamTransport t{base};
  EXPECT_FALSE(t.send(12345, bytes_of("x")));
}

void instrumentation_counters_track_lifecycle(const StreamOptions& base) {
  Pair p{base, base};
  obs::MetricsRegistry reg;
  p.client.attach_metrics(reg, "cli.");
  ASSERT_TRUE(p.establish());
  EXPECT_EQ(p.client.connects_ok(), 1U);
  EXPECT_EQ(p.client.accepts(), 0U);
  EXPECT_EQ(p.server.accepts(), 1U);

  ASSERT_TRUE(p.client.send(p.conn, bytes_of("ping")));
  ASSERT_TRUE(pump(p.server, p.client,
                   [&] { return p.at_server().size() >= 4; }));
  EXPECT_EQ(p.client.sends(), 1U);
  EXPECT_GE(p.client.bytes_sent(), 4U);
  EXPECT_EQ(p.client.send_queue_bytes(), 0U);  // fully drained
  EXPECT_GE(p.client.send_queue_high_watermark(), 4U);

  // The registry gauges read the same live counters.
  EXPECT_DOUBLE_EQ(reg.find_gauge("cli.sends")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("cli.connects_ok")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("cli.outq_bytes")->value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("cli.conns")->value(), 1.0);
  EXPECT_GE(reg.find_gauge("cli.bytes_out")->value(), 4.0);

  p.client.close_peer(p.conn);
  EXPECT_EQ(p.client.closes(), 1U);
  EXPECT_EQ(p.client.open_connections(), 0U);
  EXPECT_DOUBLE_EQ(reg.find_gauge("cli.closes")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("cli.conns")->value(), 0.0);
}

void attach_metrics_exports_reactor_gauges(const StreamOptions& base) {
  Pair p{base, base};
  ASSERT_TRUE(p.establish());
  ASSERT_TRUE(p.client.send(p.conn, bytes_of("hello metrics")));
  ASSERT_TRUE(pump(p.server, p.client,
                   [&] { return p.at_server().size() >= 13; }));

  obs::MetricsRegistry registry;
  p.server.attach_metrics(registry, "srv.");
  for (const char* name :
       {"srv.accepts", "srv.bytes_in", "srv.wakeups", "srv.events",
        "srv.events_per_wakeup", "srv.conns", "srv.partial_drains"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_DOUBLE_EQ(registry.find_gauge("srv.conns")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.find_gauge("srv.accepts")->value(), 1.0);
  EXPECT_GT(registry.find_gauge("srv.events_per_wakeup")->value(), 0.0);
}

void short_sends_compact_and_deliver(const StreamOptions& base) {
  // A deliberately tiny socket send buffer forces send() to drain in
  // many short writes: every EAGAIN is a partial drain, the consumed
  // outq prefix must be compacted (not grown without bound), and the
  // stream must still arrive byte-exact.
  StreamOptions opts = base;
  opts.so_sndbuf = 4096;  // kernel clamps to its minimum, still tiny
  Pair p{base, opts};
  ASSERT_TRUE(p.establish());
  std::vector<std::uint8_t> blob(512U * 1024U);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 40503U >> 8U);
  }
  ASSERT_TRUE(p.client.send(p.conn, blob));
  ASSERT_TRUE(pump(p.server, p.client,
                   [&] { return p.at_server().size() >= blob.size(); }));
  EXPECT_EQ(p.at_server(), blob);
  EXPECT_GT(p.client.partial_drains(), 0U);
  EXPECT_EQ(p.client.send_queue_bytes(), 0U);  // outq fully drained
}

void transfer_survives_signal_storm(const StreamOptions& base) {
  // Pepper the process with SIGALRM (no SA_RESTART, so epoll_wait,
  // recv and send return EINTR) for the whole transfer: the transport
  // must retry interrupted syscalls, never drop bytes or surface a
  // spurious close.
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART
  sigemptyset(&sa.sa_mask);
  struct sigaction old_sa{};
  ASSERT_EQ(sigaction(SIGALRM, &sa, &old_sa), 0);
  itimerval storm{};
  storm.it_interval.tv_usec = 2000;  // every 2ms
  storm.it_value.tv_usec = 2000;
  itimerval old_timer{};
  ASSERT_EQ(setitimer(ITIMER_REAL, &storm, &old_timer), 0);

  {
    Pair p{base, base};
    ASSERT_TRUE(p.establish());
    std::vector<std::uint8_t> blob(1U << 20U);
    for (std::size_t i = 0; i < blob.size(); ++i) {
      blob[i] = static_cast<std::uint8_t>(i * 2246822519U >> 16U);
    }
    ASSERT_TRUE(p.client.send(p.conn, blob));
    ASSERT_TRUE(pump(p.server, p.client,
                     [&] { return p.at_server().size() >= blob.size(); }));
    EXPECT_EQ(p.at_server(), blob);
    EXPECT_TRUE(p.hs.downs.empty());
    EXPECT_TRUE(p.hc.downs.empty());
  }

  ASSERT_EQ(setitimer(ITIMER_REAL, &old_timer, nullptr), 0);
  ASSERT_EQ(sigaction(SIGALRM, &old_sa, nullptr), 0);
}

void slow_reader_hits_cap_then_idle_reap(const StreamOptions& base) {
  // A scripted slow-reader peer: the server transport accepts the TCP
  // handshake in the kernel but is never polled, so it never reads.
  // The writer must (1) absorb backpressure into its bounded send
  // queue, (2) refuse sends — not balloon — once the cap is hit while
  // compacting the consumed outq prefix, and (3) reap the silent
  // connection via the idle timeout in a way that leaves the transport
  // reusable for a fresh connect.
  StreamOptions opts = base;
  opts.send_queue_cap_bytes = 32U * 1024U;
  opts.so_sndbuf = 4096;    // tiny kernel buffer: backpressure hits fast
  opts.idle_timeout = 2.0;  // no reads for 2s => reap (after the cap hits)
  Pair p{base, opts};       // the server is deliberately not polled yet
  StreamTransport& client = p.client;
  {
    const double t0 = client.now();
    while (client.now() - t0 < 10.0 && p.hc.ups.empty()) {
      client.poll_once(0.01);  // kernel completes the handshake alone
    }
  }
  ASSERT_EQ(p.hc.ups.size(), 1U);

  // Pump frames at the unread connection until the cap refuses one.
  const std::vector<std::uint8_t> chunk(4096, 0xAB);
  const double t0 = client.now();
  while (client.now() - t0 < 10.0 && p.hc.downs.empty() &&
         client.backpressure_refusals() == 0) {
    (void)client.send(p.conn, chunk);
    client.poll_once(0.001);
  }
  ASSERT_GT(client.backpressure_refusals(), 0U);
  // The queue is bounded by the cap, and partial socket drains were
  // compacted rather than accumulated.
  EXPECT_LE(client.send_queue_bytes(), opts.send_queue_cap_bytes);
  EXPECT_LE(client.send_queue_high_watermark(), opts.send_queue_cap_bytes);
  EXPECT_GT(client.partial_drains(), 0U);

  // The peer never speaks: the idle timer reaps the connection.
  {
    const double t1 = client.now();
    while (client.now() - t1 < 10.0 && p.hc.downs.empty()) {
      client.poll_once(0.01);
    }
  }
  ASSERT_EQ(p.hc.downs.size(), 1U);
  EXPECT_EQ(p.hc.downs[0], p.conn);
  EXPECT_GE(client.idle_reaps(), 1U);
  EXPECT_EQ(client.open_connections(), 0U);
  EXPECT_EQ(client.send_queue_bytes(), 0U);  // reap released the queue
  EXPECT_FALSE(client.send(p.conn, chunk));  // dead handle refuses

  // Reconnect-safe: the same transport can dial again, and with the
  // server now polling, traffic flows and the idle timer stays quiet.
  const NodeId conn2 = client.connect("127.0.0.1", p.port);
  ASSERT_TRUE(pump(p.server, client, [&] {
    return p.hc.ups.size() >= 2 && !p.hs.ups.empty();
  }));
  ASSERT_TRUE(client.send(conn2, bytes_of("alive")));
  ASSERT_TRUE(pump(p.server, client, [&] {
    return p.hs.received[p.hs.ups.back()].size() >= 5;
  }));
  EXPECT_EQ(p.hs.received[p.hs.ups.back()], bytes_of("alive"));
}

// --- one registration per (case, suite) ----------------------------------

using CaseBody = void (*)(const StreamOptions& base);

class TransportCase : public ::testing::Test {
 public:
  TransportCase(CaseBody body, StreamOptions base)
      : body_{body}, base_{base} {}
  void TestBody() override { body_(base_); }

 private:
  CaseBody body_;
  StreamOptions base_;
};

constexpr std::pair<const char*, CaseBody> kCases[] = {
    {"EphemeralListenReturnsRealPort", &ephemeral_listen_returns_real_port},
    {"ConnectExchangeClose", &connect_exchange_close},
    {"CloseFlushesQueuedBytesFirst", &close_flushes_queued_bytes_first},
    {"LargeTransferSurvivesChunking", &large_transfer_survives_chunking},
    {"BackpressureRefusesOverCap", &backpressure_refuses_over_cap},
    {"ConnectToDeadPortFailsAfterRetries",
     &connect_to_dead_port_fails_after_retries},
    {"ConnectRetriesAreCounted", &connect_retries_are_counted},
    {"SendToUnknownConnRefused", &send_to_unknown_conn_refused},
    {"InstrumentationCountersTrackLifecycle",
     &instrumentation_counters_track_lifecycle},
    {"AttachMetricsExportsReactorGauges",
     &attach_metrics_exports_reactor_gauges},
    {"ShortSendsCompactAndDeliver", &short_sends_compact_and_deliver},
    {"TransferSurvivesSignalStorm", &transfer_survives_signal_storm},
    {"SlowReaderHitsQueueCapThenIdleReapStaysReconnectSafe",
     &slow_reader_hits_cap_then_idle_reap},
};

/// Options every transport in an EpollReactor.<case> starts from.
StreamOptions small_reads() {
  StreamOptions opts;
  opts.read_chunk_bytes = 512;
  return opts;
}

[[maybe_unused]] const bool kRegistered = [] {
  const std::pair<const char*, StreamOptions> suites[] = {
      {"Tcp", StreamOptions{}}, {"EpollReactor", small_reads()}};
  for (const auto& [suite, base] : suites) {
    for (const auto& [name, body] : kCases) {
      ::testing::RegisterTest(suite, name, nullptr, nullptr, __FILE__,
                              __LINE__,
                              [body = body, base = base]() -> TransportCase* {
                                return new TransportCase{body, base};
                              });
    }
  }
  return true;
}();

}  // namespace
}  // namespace icollect::net
