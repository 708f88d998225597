/// Baseline (Fig. 1(a) direct pull) tests: conservation, capacity limits,
/// queue overflow, churn loss, and flash-crowd behavior, on the direct
/// configuration of the one simulation engine (Network::direct_baseline).

#include <gtest/gtest.h>

#include "p2p/network.h"

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

/// The baseline's report ledger in Network's terms (s = 1, so a block is
/// a report and a decoded segment a collected one).
std::uint64_t collected(const Network& net) {
  return net.servers().segments_decoded();
}
std::uint64_t backlog(const Network& net) {
  return static_cast<std::uint64_t>(net.metrics().total_blocks.value());
}
/// Fraction of offered reports (lifetime) refused or lost to churn.
double loss_fraction(const Network& net) {
  const auto& m = net.metrics();
  return static_cast<double>(m.injection_blocked + m.blocks_lost_to_churn) /
         static_cast<double>(net.blocks_offered());
}

void check_conservation(const Network& net) {
  const auto& m = net.metrics();
  // Refused reports never enter the queue, so
  //   offered = collected + lost_churn + backlog + refused.
  EXPECT_EQ(net.blocks_offered(), collected(net) + m.blocks_lost_to_churn +
                                      backlog(net) + m.injection_blocked);
}

TEST(DirectCollector, AmpleCapacityCollectsNearlyEverything) {
  auto net = Network::direct_baseline(base_config());
  net.warm_up(10.0);
  net.run_until(net.now() + 40.0);
  check_conservation(net);
  EXPECT_NEAR(net.normalized_throughput(), 1.0, 0.05);
  EXPECT_LT(loss_fraction(net), 0.01);
  EXPECT_GT(net.mean_block_delay(), 0.0);
}

TEST(DirectCollector, ScarceCapacityIsServerBound) {
  ProtocolConfig cfg = base_config();
  cfg.set_normalized_capacity(2.0);  // c = 2 < λ = 5
  auto net = Network::direct_baseline(cfg);
  net.warm_up(15.0);
  net.run_until(net.now() + 40.0);
  check_conservation(net);
  // Collected rate per peer is pinned at c, so normalized ≈ c/λ = 0.4.
  EXPECT_NEAR(net.normalized_throughput(), 0.4, 0.05);
  // Overload: queues saturate and data drops.
  EXPECT_GT(net.metrics().injection_blocked, 0u);
}

TEST(DirectCollector, ChurnLosesDepartedPeersData) {
  ProtocolConfig cfg = base_config();
  cfg.set_normalized_capacity(2.0);
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 4.0;
  auto net = Network::direct_baseline(cfg);
  net.run_until(30.0);
  check_conservation(net);
  EXPECT_GT(net.metrics().peers_departed, 0u);
  EXPECT_GT(net.metrics().blocks_lost_to_churn, 0u);
  EXPECT_GT(loss_fraction(net), 0.05);
}

TEST(DirectCollector, FlashCrowdOverflowsButBaselineRateSurvives) {
  ProtocolConfig cfg = base_config();
  cfg.lambda = 2.0;
  cfg.buffer_cap = 20;
  cfg.set_normalized_capacity(3.0);  // fine for base load of 2...
  auto net = Network::direct_baseline(cfg);
  const workload::FlashCrowdProfile burst{2.0, 10.0, 10.0, 14.0};  // λ→20
  net.set_arrival_profile(&burst);
  net.run_until(30.0);
  check_conservation(net);
  // The 4-unit burst at 10x generated far more than c could absorb.
  EXPECT_GT(net.metrics().injection_blocked, 0u);
}

TEST(DirectCollector, DeterministicGivenSeed) {
  const ProtocolConfig cfg = base_config();
  auto a = Network::direct_baseline(cfg);
  auto b = Network::direct_baseline(cfg);
  a.run_until(12.0);
  b.run_until(12.0);
  EXPECT_EQ(a.blocks_offered(), b.blocks_offered());
  EXPECT_EQ(collected(a), collected(b));
}

TEST(DirectCollector, DelayGrowsWithLoad) {
  ProtocolConfig light = base_config();
  light.set_normalized_capacity(20.0);
  auto a = Network::direct_baseline(light);
  a.warm_up(10.0);
  a.run_until(a.now() + 30.0);

  ProtocolConfig heavy = base_config();
  heavy.set_normalized_capacity(4.9);  // just below demand λ=5
  auto b = Network::direct_baseline(heavy);
  b.warm_up(10.0);
  b.run_until(b.now() + 30.0);

  EXPECT_GT(b.mean_block_delay(), a.mean_block_delay());
}

TEST(DirectCollector, ZeroLambdaGeneratesNothing) {
  ProtocolConfig cfg = base_config();
  cfg.lambda = 0.0;
  auto net = Network::direct_baseline(cfg);
  net.run_until(10.0);
  EXPECT_EQ(net.blocks_offered(), 0u);
  EXPECT_EQ(collected(net), 0u);
  // Idle pulls: every attempt found every queue empty.
  EXPECT_GT(net.metrics().server_pull_attempts - net.servers().pulls(), 0u);
}

}  // namespace
}  // namespace icollect::p2p
