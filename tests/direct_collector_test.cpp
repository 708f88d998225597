/// Baseline (Fig. 1(a) direct pull) tests: conservation, capacity limits,
/// overflow policies, churn loss, and flash-crowd behavior.

#include <gtest/gtest.h>

#include "p2p/direct_collector.h"

namespace icollect::p2p {
namespace {

ProtocolConfig base_config() {
  ProtocolConfig cfg;
  cfg.num_peers = 80;
  cfg.lambda = 5.0;
  cfg.buffer_cap = 50;
  cfg.num_servers = 4;
  cfg.set_normalized_capacity(10.0);  // ample: c = 10 > λ = 5
  cfg.seed = 3;
  return cfg;
}

void check_conservation(const DirectCollector& dc) {
  const auto& m = dc.metrics();
  // Dropped blocks never enter the queue, so
  //   generated = collected + lost_churn + backlog + dropped.
  EXPECT_EQ(m.blocks_generated,
            m.blocks_collected + m.blocks_lost_to_churn + dc.backlog_size() +
                m.blocks_dropped_overflow);
}

TEST(DirectCollector, AmpleCapacityCollectsNearlyEverything) {
  DirectCollector dc{base_config()};
  dc.warm_up(10.0);
  dc.run_until(dc.now() + 40.0);
  check_conservation(dc);
  EXPECT_NEAR(dc.normalized_throughput(), 1.0, 0.05);
  EXPECT_LT(dc.loss_fraction(), 0.01);
  EXPECT_GT(dc.mean_delay(), 0.0);
}

TEST(DirectCollector, ScarceCapacityIsServerBound) {
  ProtocolConfig cfg = base_config();
  cfg.set_normalized_capacity(2.0);  // c = 2 < λ = 5
  DirectCollector dc{cfg};
  dc.warm_up(15.0);
  dc.run_until(dc.now() + 40.0);
  check_conservation(dc);
  // Collected rate per peer is pinned at c, so normalized ≈ c/λ = 0.4.
  EXPECT_NEAR(dc.normalized_throughput(), 0.4, 0.05);
  // Overload: queues saturate and data drops.
  EXPECT_GT(dc.metrics().blocks_dropped_overflow, 0u);
}

TEST(DirectCollector, ChurnLosesDepartedPeersData) {
  ProtocolConfig cfg = base_config();
  cfg.set_normalized_capacity(2.0);
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 4.0;
  DirectCollector dc{cfg};
  dc.run_until(30.0);
  check_conservation(dc);
  EXPECT_GT(dc.metrics().peers_departed, 0u);
  EXPECT_GT(dc.metrics().blocks_lost_to_churn, 0u);
  EXPECT_GT(dc.loss_fraction(), 0.05);
}

TEST(DirectCollector, FlashCrowdOverflowsButBaselineRateSurvives) {
  ProtocolConfig cfg = base_config();
  cfg.lambda = 2.0;
  cfg.buffer_cap = 20;
  cfg.set_normalized_capacity(3.0);  // fine for base load of 2...
  DirectCollector dc{cfg};
  const workload::FlashCrowdProfile burst{2.0, 10.0, 10.0, 14.0};  // λ→20
  dc.set_arrival_profile(&burst);
  dc.run_until(30.0);
  check_conservation(dc);
  // The 4-unit burst at 10x generated far more than c could absorb.
  EXPECT_GT(dc.metrics().blocks_dropped_overflow, 0u);
}

TEST(DirectCollector, DeterministicGivenSeed) {
  const ProtocolConfig cfg = base_config();
  DirectCollector a{cfg};
  DirectCollector b{cfg};
  a.run_until(12.0);
  b.run_until(12.0);
  EXPECT_EQ(a.metrics().blocks_generated, b.metrics().blocks_generated);
  EXPECT_EQ(a.metrics().blocks_collected, b.metrics().blocks_collected);
}

TEST(DirectCollector, DelayGrowsWithLoad) {
  ProtocolConfig light = base_config();
  light.set_normalized_capacity(20.0);
  DirectCollector a{light};
  a.warm_up(10.0);
  a.run_until(a.now() + 30.0);

  ProtocolConfig heavy = base_config();
  heavy.set_normalized_capacity(4.9);  // just below demand λ=5
  DirectCollector b{heavy};
  b.warm_up(10.0);
  b.run_until(b.now() + 30.0);

  EXPECT_GT(b.mean_delay(), a.mean_delay());
}

TEST(DirectCollector, ZeroLambdaGeneratesNothing) {
  ProtocolConfig cfg = base_config();
  cfg.lambda = 0.0;
  DirectCollector dc{cfg};
  dc.run_until(10.0);
  EXPECT_EQ(dc.metrics().blocks_generated, 0u);
  EXPECT_EQ(dc.metrics().blocks_collected, 0u);
  EXPECT_GT(dc.metrics().idle_pulls, 0u);
}

}  // namespace
}  // namespace icollect::p2p
