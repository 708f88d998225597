/// \file sim_soak_test.cpp
/// Bounded simulator state over a long horizon: the server bank's
/// partial decoders and the integrity tags must track the segments
/// still alive in the network, not every segment ever injected. Each
/// run goes ten times past its warm-up and checks, at every checkpoint,
/// that neither map holds more than the live segments, and that neither
/// has grown by more than half between the end of warm-up and the end.

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "p2p/network.h"

namespace icollect::p2p {
namespace {

constexpr double kWarm = 6.0;
constexpr double kHorizon = 10.0 * kWarm;
constexpr double kCheckEvery = 0.5;
constexpr double kMaxGrowth = 1.5;

ProtocolConfig soak_config() {
  ProtocolConfig cfg;
  cfg.num_peers = 40;
  cfg.lambda = 8.0;
  cfg.segment_size = 4;
  cfg.mu = 6.0;
  cfg.gamma = 1.0;
  cfg.buffer_cap = 32;
  cfg.num_servers = 2;
  cfg.set_normalized_capacity(3.0);
  cfg.seed = 17;
  return cfg;
}

struct StateSizes {
  std::size_t in_progress = 0;
  std::size_t tags = 0;
};

/// Run `net` to kHorizon; returns the state sizes at kWarm and at the end.
std::pair<StateSizes, StateSizes> soak(Network& net) {
  const auto sizes = [&net] {
    return StateSizes{net.servers().segments_in_progress(),
                      net.integrity() != nullptr
                          ? net.integrity()->segments()
                          : 0};
  };
  StateSizes at_warm;
  for (double t = kCheckEvery; t <= kHorizon + 1e-9; t += kCheckEvery) {
    net.run_until(t);
    const std::size_t live = net.live_segment_count();
    const StateSizes now = sizes();
    EXPECT_LE(now.in_progress, live) << "t=" << t;
    EXPECT_LE(now.tags, live) << "t=" << t;
    if (t <= kWarm + 1e-9) at_warm = now;
  }
  return {at_warm, sizes()};
}

TEST(SimSoak, RealCodingWithIntegrityStaysFlat) {
  ProtocolConfig cfg = soak_config();
  cfg.payload_bytes = 32;
  cfg.adversary.integrity_checks = 2;
  Network net{cfg};
  const auto [at_warm, at_end] = soak(net);
  ASSERT_GT(at_warm.in_progress, 0u);
  ASSERT_GT(at_warm.tags, 0u);
  EXPECT_LE(static_cast<double>(at_end.in_progress),
            kMaxGrowth * static_cast<double>(at_warm.in_progress));
  EXPECT_LE(static_cast<double>(at_end.tags),
            kMaxGrowth * static_cast<double>(at_warm.tags));
  // The registry itself is not compacted: it keeps every segment.
  EXPECT_EQ(net.segment_registry().size(), net.metrics().segments_injected);
  EXPECT_GT(net.metrics().segments_resolved,
            net.metrics().segments_injected / 2);
}

TEST(SimSoak, StateCounterWithChurnStaysFlat) {
  ProtocolConfig cfg = soak_config();
  cfg.fidelity = CollectionFidelity::kStateCounter;
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 10.0;
  Network net{cfg};
  const auto [at_warm, at_end] = soak(net);
  ASSERT_GT(at_warm.in_progress, 0u);
  EXPECT_GT(net.metrics().peers_departed, 0u);
  EXPECT_LE(static_cast<double>(at_end.in_progress),
            kMaxGrowth * static_cast<double>(at_warm.in_progress));
}

}  // namespace
}  // namespace icollect::p2p
