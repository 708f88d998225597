/// Allocation contract of the live event path: once warmed up,
///  - a LoopbackNet send -> deliver round trip (the receiver replying
///    from inside its handler) allocates nothing — frame bytes live in
///    the hub's pooled buffers and the delivery closure is inline;
///  - TimerWheel schedule / cancel / fire allocates nothing, including
///    timers re-filed over several revolutions;
///  - a peer buffer's insert -> rank -> erase -> rank cycle allocates
///    nothing — blocks live in the buffer's slab and the rank basis is
///    one arena reused across resets.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "coding/coded_block.h"
#include "coding/segment_buffer.h"
#include "net/loopback.h"
#include "net/timer_wheel.h"
#include "net/transport.h"
#include "proto/peer_buffer.h"
#include "sim/random.h"

namespace icollect::net {
namespace {

/// Echoes every frame from `peer` back to it with a frame of the next
/// size in a fixed rotation, sent from inside on_bytes — the re-entrant
/// send the pool must survive.
class EchoHandler final : public TransportHandler {
 public:
  EchoHandler(Transport& self, NodeId peer) : self_{self}, peer_{peer} {}

  void on_peer_up(NodeId /*peer*/) override {}
  void on_peer_down(NodeId /*peer*/) override {}
  void on_bytes(NodeId from, std::span<const std::uint8_t> bytes) override {
    received += bytes.size();
    if (from == peer_ && echo) {
      const std::size_t n = kSizes[turn_++ % kSizes.size()];
      ok = self_.send(peer_, std::span{reply_}.first(n)) && ok;
    }
  }

  static constexpr std::array<std::size_t, 3> kSizes{40, 1200, 300};
  bool echo = false;
  bool ok = true;
  std::size_t received = 0;

 private:
  Transport& self_;
  NodeId peer_;
  std::size_t turn_ = 0;
  std::vector<std::uint8_t> reply_ = std::vector<std::uint8_t>(1200, 0xA5);
};

TEST(LoopbackAlloc, SteadyDeliveryDoesNotAllocate) {
  LoopbackNet::Options opts;
  opts.latency_jitter = 0.002;  // deliveries spread over several ticks
  LoopbackNet net{opts};
  auto& a = net.create_endpoint();
  auto& b = net.create_endpoint();
  EchoHandler ha{a, b.id()};
  EchoHandler hb{b, a.id()};
  hb.echo = true;
  a.set_handler(&ha);
  b.set_handler(&hb);
  net.connect(a.id(), b.id());

  const std::vector<std::uint8_t> frame(700, 0x3C);
  bool sent = true;
  const auto round = [&] {
    for (int k = 0; k < 8; ++k) sent = a.send(b.id(), frame) && sent;
    net.run_for(0.01);
  };
  for (int i = 0; i < 50; ++i) round();  // warm-up
  const std::uint64_t deliveries_before = net.deliveries();

  g_alloc_count.store(0);
  g_counting.store(true);
  for (int i = 0; i < 200; ++i) round();
  g_counting.store(false);

  ASSERT_TRUE(sent && hb.ok);
  EXPECT_EQ(g_alloc_count.load(), 0U)
      << "loopback send -> deliver allocated in steady state";
  // Every frame went there and back.
  EXPECT_EQ(net.deliveries() - deliveries_before, 200U * 8U * 2U);
}

TEST(LoopbackAlloc, TimerWheelChurnDoesNotAllocate) {
  // 8 slots, so delays up to 40 ticks re-file over several revolutions.
  TimerWheel w{0.01, 8};
  sim::Rng rng{5};
  std::vector<TimerWheel::TimerId> ids(256);
  std::uint64_t fired = 0;
  const auto round = [&] {
    for (auto& id : ids) {
      const auto ticks = static_cast<double>(1 + rng.uniform_index(40));
      id = w.schedule_after(0.01 * ticks, [&fired] { ++fired; });
    }
    for (std::size_t k = 0; k < ids.size(); k += 2) w.cancel(ids[k]);
    w.advance(41);
  };
  round();  // warm-up
  const std::uint64_t fired_before = fired;

  g_alloc_count.store(0);
  g_counting.store(true);
  for (int i = 0; i < 20; ++i) round();
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0U);
  EXPECT_EQ(fired - fired_before, 20U * 128U);  // half were cancelled
  EXPECT_EQ(w.pending(), 0U);
}

TEST(LoopbackAlloc, SegmentBufferRankCycleDoesNotAllocate) {
  constexpr std::size_t kS = 16;
  constexpr int kCycles = 200;
  const coding::SegmentId id{3, 1};
  sim::Rng rng{77};
  // Blocks are built up front: constructing one allocates, storing a
  // moved-in one must not.
  std::vector<coding::CodedBlock> blocks(kS + 1 + kCycles);
  for (auto& blk : blocks) {
    blk.segment = id;
    blk.coefficients.assign(kS, gf::Element{0});
    while (blk.is_degenerate()) {
      for (auto& c : blk.coefficients) c = rng.gf_element();
    }
  }
  // Room for one block over the segment's kS, so the slab's high-water
  // mark is reached in warm-up.
  proto::PeerBuffer pb{kS + 1, kS};
  // Handles in insertion order; the cycle erases from the middle.
  std::vector<coding::BlockHandle> handles;
  handles.reserve(blocks.size());
  for (std::size_t k = 0; k < kS; ++k) {
    handles.push_back(pb.insert(std::move(blocks[k])));
  }
  const coding::SegmentBuffer* sb = pb.find(id);
  ASSERT_EQ(sb->rank(), kS);  // warm-up: the basis arena is allocated
  handles.push_back(pb.insert(std::move(blocks[kS])));
  ASSERT_TRUE(pb.erase(handles.front()).has_value());
  sb = pb.find(id);
  ASSERT_EQ(sb->rank(), kS);

  g_alloc_count.store(0);
  g_counting.store(true);
  std::size_t rank_sum = 0;
  int removed = 0;
  for (int i = 1; i <= kCycles; ++i) {
    // Remove from the middle, re-query from scratch, then add.
    const std::size_t at = handles.size() - kS / 2;
    removed += pb.erase(handles[at]).has_value() ? 1 : 0;
    sb = pb.find(id);
    rank_sum += sb->rank();
    handles.push_back(
        pb.insert(std::move(blocks[kS + static_cast<std::size_t>(i)])));
    sb = pb.find(id);
    rank_sum += sb->rank();
  }
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0U)
      << "PeerBuffer insert/rank/erase allocated in steady state";
  EXPECT_EQ(removed, kCycles);
  // Random 16-byte rows: every query sees (almost surely) full rank.
  EXPECT_GE(rank_sum, 2U * kCycles * (kS - 1));
}

}  // namespace
}  // namespace icollect::net
