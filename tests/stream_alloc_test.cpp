/// Allocation contract of the socket transport: once two transports on
/// 127.0.0.1 are connected and warmed up, a send -> flush -> recv ->
/// on_bytes round trip performs no heap allocation. Output queues keep
/// their capacity, reads land in one reused buffer, and epoll reports
/// into a fixed array.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "alloc_counter.h"
#include "net/stream_transport.h"
#include "net/transport.h"

namespace icollect::net {
namespace {

/// Counts bytes and connections without allocating.
class CountingHandler final : public TransportHandler {
 public:
  void on_peer_up(NodeId peer) override { last_up = peer; }
  void on_peer_down(NodeId /*peer*/) override { ++downs; }
  void on_bytes(NodeId /*peer*/,
                std::span<const std::uint8_t> bytes) override {
    received += bytes.size();
  }

  NodeId last_up = kInvalidNodeId;
  std::size_t downs = 0;
  std::size_t received = 0;
};

TEST(StreamAlloc, SteadyRoundTripDoesNotAllocate) {
  StreamOptions opts;
  // Short enough that the cancelled connect timer leaves the wheel
  // during warm-up.
  opts.connect_timeout = 0.05;
  StreamTransport server{opts};
  StreamTransport client{opts};
  CountingHandler hs;
  CountingHandler hc;
  server.set_handler(&hs);
  client.set_handler(&hc);
  const NodeId conn =
      client.connect("127.0.0.1", server.listen("127.0.0.1", 0));

  const auto pump_until = [&](const auto& done) {
    const double t0 = client.now();
    while (!done() && client.now() - t0 < 10.0) {
      client.poll_once(0.001);
      server.poll_once(0.001);
    }
    return done();
  };
  ASSERT_TRUE(pump_until([&] {
    return hs.last_up != kInvalidNodeId && hc.last_up == conn;
  }));
  const NodeId back = hs.last_up;

  // One round: a frame each way, each read in full by the other side.
  const std::vector<std::uint8_t> frame(512, 0x5A);
  const auto round_trip = [&] {
    const std::size_t at_server = hs.received + frame.size();
    const std::size_t at_client = hc.received + frame.size();
    return client.send(conn, frame) &&
           pump_until([&] { return hs.received >= at_server; }) &&
           server.send(back, frame) &&
           pump_until([&] { return hc.received >= at_client; });
  };
  const double warm_until = client.now() + 3 * opts.connect_timeout;
  while (client.now() < warm_until) ASSERT_TRUE(round_trip());

  g_alloc_count.store(0);
  g_counting.store(true);
  bool ok = true;
  for (int i = 0; i < 200 && ok; ++i) ok = round_trip();
  g_counting.store(false);

  ASSERT_TRUE(ok);
  EXPECT_EQ(g_alloc_count.load(), 0U)
      << "transport allocated in steady state";
  EXPECT_EQ(hs.downs + hc.downs, 0U);
}

}  // namespace
}  // namespace icollect::net
