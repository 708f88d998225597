/// Tests for the loss-resilience accounting: departed-peer recovery,
/// "last words" windows, and time-varying arrival profiles on both the
/// indirect scheme and the direct baseline (Network::direct_baseline).

#include <gtest/gtest.h>

#include "p2p/network.h"

namespace icollect::p2p {
namespace {

ProtocolConfig churny_config() {
  ProtocolConfig cfg;
  cfg.num_peers = 80;
  cfg.lambda = 10.0;
  cfg.segment_size = 5;
  cfg.mu = 8.0;
  cfg.gamma = 1.0;
  cfg.buffer_cap = 80;
  cfg.num_servers = 4;
  cfg.set_normalized_capacity(4.0);
  cfg.fidelity = CollectionFidelity::kStateCounter;
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 3.0;
  cfg.seed = 17;
  return cfg;
}

TEST(DepartedData, NetworkAccountingIsConsistent) {
  Network net{churny_config()};
  net.run_until(20.0);
  const auto stats = net.departed_data_stats();
  EXPECT_GT(stats.departed_origins, 0u);
  EXPECT_EQ(stats.departed_origins, net.metrics().peers_departed);
  EXPECT_GT(stats.blocks_generated, 0u);
  EXPECT_LE(stats.blocks_delivered, stats.blocks_generated);
  EXPECT_GE(stats.recovery_fraction(), 0.0);
  EXPECT_LE(stats.recovery_fraction(), 1.0);
}

TEST(DepartedData, WindowedIsSubsetOfTotal) {
  Network net{churny_config()};
  net.run_until(20.0);
  const auto total = net.departed_data_stats();
  const auto recent = net.last_words_stats(0.5);
  EXPECT_LE(recent.blocks_generated, total.blocks_generated);
  EXPECT_LE(recent.blocks_delivered, total.blocks_delivered);
  // A wider window converges to the total.
  const auto wide = net.last_words_stats(1e9);
  EXPECT_EQ(wide.blocks_generated, total.blocks_generated);
  EXPECT_EQ(wide.blocks_delivered, total.blocks_delivered);
}

TEST(DepartedData, InvalidWindowViolatesContract) {
  Network net{churny_config()};
  EXPECT_THROW((void)net.last_words_stats(0.0), ContractViolation);
}

TEST(DepartedData, NoChurnMeansNoDepartures) {
  auto cfg = churny_config();
  cfg.churn.enabled = false;
  Network net{cfg};
  net.run_until(10.0);
  const auto stats = net.departed_data_stats();
  EXPECT_EQ(stats.departed_origins, 0u);
  EXPECT_EQ(stats.blocks_generated, 0u);
}

TEST(DepartedData, PosthumousCollectionHappens) {
  // The indirect scheme's signature property: delivery counted for a
  // departed origin can exceed what was delivered at departure time.
  // Freeze churn after a while, then let the servers keep pulling and
  // check the departed-recovery improves.
  auto cfg = churny_config();
  cfg.set_normalized_capacity(1.0);  // scarce: big undelivered backlog
  Network net{cfg};
  net.run_until(10.0);
  const double early = net.departed_data_stats().recovery_fraction();
  net.run_until(30.0);
  // Same departed origins from the early period are still being served;
  // with more origins departing meanwhile this is not a strict per-origin
  // comparison, but with scarce capacity the aggregate must not collapse
  // and typically grows.
  const auto late = net.departed_data_stats();
  EXPECT_GT(late.blocks_delivered, 0u);
  EXPECT_GE(late.recovery_fraction(), early * 0.5);
}

TEST(DirectDepartedData, LedgerConservation) {
  auto cfg = churny_config();
  cfg.buffer_cap = 30;
  auto net = Network::direct_baseline(cfg);
  net.run_until(25.0);
  const auto dep = net.departed_data_stats();
  EXPECT_EQ(dep.departed_origins, net.metrics().peers_departed);
  EXPECT_LE(dep.blocks_delivered, dep.blocks_generated);
  const auto lw = net.last_words_stats(1.0);
  EXPECT_EQ(lw.departed_origins, dep.departed_origins);
  EXPECT_LE(lw.blocks_generated, dep.blocks_generated);
  EXPECT_LE(lw.blocks_delivered, lw.blocks_generated);
}

TEST(DirectDepartedData, LoadedFifoLosesLastWords) {
  // With c << lambda the FIFO backlog is ~B/c time deep, far beyond the
  // last-words window, so freshly generated blocks are almost never
  // collected before the peer dies.
  auto cfg = churny_config();
  cfg.lambda = 20.0;
  cfg.set_normalized_capacity(2.0);
  cfg.buffer_cap = 60;
  auto net = Network::direct_baseline(cfg);
  net.run_until(30.0);
  const auto lw = net.last_words_stats(0.5);
  ASSERT_GT(lw.blocks_generated, 100u);
  EXPECT_LT(lw.recovery_fraction(), 0.1);
}

TEST(DirectDepartedData, WindowMustBePositive) {
  const auto net = Network::direct_baseline(churny_config());
  EXPECT_THROW((void)net.last_words_stats(0.0), ContractViolation);
}

TEST(ArrivalProfile, NetworkFollowsBurst) {
  ProtocolConfig cfg = churny_config();
  cfg.churn.enabled = false;
  cfg.lambda = 2.0;
  Network net{cfg};
  const workload::FlashCrowdProfile burst{2.0, 10.0, 5.0, 8.0};
  net.set_arrival_profile(&burst);
  net.run_until(5.0);
  const auto before = net.metrics().blocks_injected;
  net.run_until(8.0);
  const auto during = net.metrics().blocks_injected - before;
  net.run_until(11.0);
  const auto after = net.metrics().blocks_injected - before - during;
  // 3 time units at 10x the base rate vs 3 at the base rate.
  EXPECT_GT(during, 4 * after);
  EXPECT_GT(during, 4 * before / 5 * 3);  // roughly 10x the 5-unit ramp
}

TEST(ArrivalProfile, MeanRateMatchesConstantProcess) {
  // A constant profile must reproduce the built-in constant-λ process.
  ProtocolConfig cfg = churny_config();
  cfg.churn.enabled = false;
  Network with_profile{cfg};
  const workload::ConstantProfile flat{cfg.lambda};
  with_profile.set_arrival_profile(&flat);
  with_profile.run_until(20.0);
  Network builtin{cfg};
  builtin.run_until(20.0);
  const auto a = with_profile.metrics().segments_injected;
  const auto b = builtin.metrics().segments_injected;
  EXPECT_NEAR(static_cast<double>(a), static_cast<double>(b),
              0.15 * static_cast<double>(b));
}

TEST(ArrivalProfile, ResettingToNullptrRestoresConstantRate) {
  ProtocolConfig cfg = churny_config();
  cfg.churn.enabled = false;
  Network net{cfg};
  const workload::ConstantProfile slow{0.1};
  net.set_arrival_profile(&slow);
  net.run_until(5.0);
  const auto trickle = net.metrics().segments_injected;
  net.set_arrival_profile(nullptr);
  net.run_until(10.0);
  const auto resumed = net.metrics().segments_injected - trickle;
  EXPECT_GT(resumed, trickle * 5);
}

TEST(ArrivalProfile, StopInjectionWinsOverProfile) {
  ProtocolConfig cfg = churny_config();
  cfg.churn.enabled = false;
  Network net{cfg};
  const workload::ConstantProfile flat{cfg.lambda};
  net.set_arrival_profile(&flat);
  net.run_until(5.0);
  net.stop_injection();
  const auto frozen = net.metrics().segments_injected;
  net.run_until(10.0);
  EXPECT_EQ(net.metrics().segments_injected, frozen);
}


TEST(RegistryCompaction, PreservesDepartedTotals) {
  auto cfg = churny_config();
  Network net{cfg};
  net.run_until(15.0);
  const auto before = net.departed_data_stats();
  const std::size_t entries_before = net.segment_registry().size();
  const std::size_t removed = net.compact_registry();
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(net.segment_registry().size(), entries_before - removed);
  const auto after = net.departed_data_stats();
  EXPECT_EQ(after.blocks_generated, before.blocks_generated);
  EXPECT_EQ(after.blocks_delivered, before.blocks_delivered);
}

TEST(RegistryCompaction, KeepsLiveAndPendingSegments) {
  auto cfg = churny_config();
  Network net{cfg};
  net.run_until(10.0);
  net.compact_registry();
  for (const auto& [id, info] : net.segment_registry()) {
    EXPECT_TRUE(info.degree > 0 || (!info.decoded && !info.lost))
        << id.to_string();
  }
  // The protocol must keep running normally after compaction.
  const auto decoded_before = net.servers().segments_decoded();
  net.run_until(15.0);
  EXPECT_GT(net.servers().segments_decoded(), decoded_before);
}

TEST(RegistryCompaction, IdempotentWhenNothingResolved) {
  auto cfg = churny_config();
  Network net{cfg};
  net.run_until(10.0);
  net.compact_registry();
  EXPECT_EQ(net.compact_registry(), 0u);
}

}  // namespace
}  // namespace icollect::p2p
