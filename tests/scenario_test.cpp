/// The scenario pack, CTest-pinned: every scenario class (byzantine
/// pollution, partition/heal faults, trace-shaped load) runs
/// deterministically under a fixed seed in BOTH the virtual-time
/// simulator (p2p::Network) and the live loopback cluster
/// (node::LoopbackCluster), and the hostile behaviour is observable in
/// the counters the bench table reports:
///
///  - honest-majority byzantine runs still reach (honest) completion;
///  - polluted blocks are quarantined at accept time — BEFORE Gaussian
///    elimination — so no decoded payload ever fails its end-to-end CRC;
///  - partition-heal runs recover without violating send-queue caps.
///
/// Also covers the shared `--scenario` grammar (workload::ScenarioSpec)
/// and the trace-replay arrival profile it shapes.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "node/cluster.h"
#include "p2p/network.h"
#include "workload/generators.h"
#include "workload/trace_replay.h"

namespace icollect {
namespace {

using workload::ScenarioSpec;
using workload::TraceReplayProfile;

// --- scenario grammar ------------------------------------------------------

TEST(ScenarioSpec, ClassDefaults) {
  const ScenarioSpec byz = ScenarioSpec::parse("byzantine");
  EXPECT_EQ(byz.kind, ScenarioSpec::Kind::kByzantine);
  EXPECT_DOUBLE_EQ(byz.adversary.dishonest_fraction, 0.25);
  EXPECT_EQ(byz.adversary.strategy,
            proto::CorruptionStrategy::kRandomPayload);
  EXPECT_EQ(byz.adversary.integrity_checks, 2U);
  EXPECT_STREQ(byz.kind_name(), "byzantine");

  const ScenarioSpec faults = ScenarioSpec::parse("faults");
  EXPECT_EQ(faults.kind, ScenarioSpec::Kind::kFaults);
  EXPECT_DOUBLE_EQ(faults.partition_fraction, 0.25);
  EXPECT_DOUBLE_EQ(faults.partition_at, 4.0);
  EXPECT_DOUBLE_EQ(faults.heal_at, 8.0);
  EXPECT_DOUBLE_EQ(faults.drain_bytes_per_sec, 0.0);

  const ScenarioSpec trace = ScenarioSpec::parse("trace");
  EXPECT_EQ(trace.kind, ScenarioSpec::Kind::kTrace);
  EXPECT_DOUBLE_EQ(trace.diurnal_amplitude, 0.6);
  EXPECT_DOUBLE_EQ(trace.burst_multiplier, 4.0);
  EXPECT_DOUBLE_EQ(trace.mean_lifetime, 0.0);
}

TEST(ScenarioSpec, FullKeyParseInAnyOrder) {
  const ScenarioSpec byz = ScenarioSpec::parse(
      "byzantine:checks=4,strategy=garbage-coefficients,fraction=0.5");
  EXPECT_DOUBLE_EQ(byz.adversary.dishonest_fraction, 0.5);
  EXPECT_EQ(byz.adversary.strategy,
            proto::CorruptionStrategy::kGarbageCoefficients);
  EXPECT_EQ(byz.adversary.integrity_checks, 4U);

  const ScenarioSpec faults =
      ScenarioSpec::parse("faults:drain=512,heal=9,at=3,fraction=0.1");
  EXPECT_DOUBLE_EQ(faults.partition_fraction, 0.1);
  EXPECT_DOUBLE_EQ(faults.partition_at, 3.0);
  EXPECT_DOUBLE_EQ(faults.heal_at, 9.0);
  EXPECT_DOUBLE_EQ(faults.drain_bytes_per_sec, 512.0);

  const ScenarioSpec trace = ScenarioSpec::parse(
      "trace:lifetime=25,sigma=2,burst=6,burst-at=2,burst-len=3,"
      "period=20,amplitude=0.4");
  EXPECT_DOUBLE_EQ(trace.diurnal_amplitude, 0.4);
  EXPECT_DOUBLE_EQ(trace.diurnal_period, 20.0);
  EXPECT_DOUBLE_EQ(trace.burst_multiplier, 6.0);
  EXPECT_DOUBLE_EQ(trace.burst_at, 2.0);
  EXPECT_DOUBLE_EQ(trace.burst_len, 3.0);
  EXPECT_DOUBLE_EQ(trace.lognormal_sigma, 2.0);
  EXPECT_DOUBLE_EQ(trace.mean_lifetime, 25.0);
}

TEST(ScenarioSpec, StrictParseRejectsGarbage) {
  // Unknown class / key, malformed pairs and numbers, range violations:
  // all throw rather than silently running a different experiment.
  EXPECT_THROW((void)ScenarioSpec::parse("mystery"), std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("byzantine:bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("faults:at"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("byzantine:fraction=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("byzantine:fraction=0.5x"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("byzantine:checks=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("byzantine:strategy=evil"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("byzantine:fraction=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("faults:at=5,heal=5"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("faults:drain=-1"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("trace:amplitude=1"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("trace:period=0"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("trace:burst=0.5"),
               std::invalid_argument);
}

TEST(ScenarioSpec, ToJsonNamesTheActiveClass) {
  EXPECT_NE(ScenarioSpec::parse("byzantine:fraction=0.3")
                .to_json()
                .find("\"scenario\":\"byzantine\""),
            std::string::npos);
  EXPECT_NE(ScenarioSpec::parse("faults").to_json().find("\"heal\":8"),
            std::string::npos);
  EXPECT_NE(ScenarioSpec::parse("trace").to_json().find("\"burst\":4"),
            std::string::npos);
}

// --- trace-replay profile --------------------------------------------------

TEST(TraceReplay, DiurnalAndBurstShape) {
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const TraceReplayProfile p{10.0, 0.5, 40.0,
                             {workload::BurstWindow{10.0, 15.0, 3.0}}};
  EXPECT_DOUBLE_EQ(p.rate(0.0), 10.0);          // sin(0) = 0
  EXPECT_NEAR(p.rate(10.0), 3.0 * 10.0 * 1.5, 1e-9);  // peak × burst
  EXPECT_NEAR(p.rate(15.0), 10.0 * (1.0 + 0.5 * std::sin(kTwoPi * 15 / 40)),
              1e-9);  // burst window is half-open: [10, 15)
  EXPECT_DOUBLE_EQ(p.max_rate(), 10.0 * 1.5 * 3.0);
  // The thinning bound really bounds: sample the whole cycle.
  for (double t = 0.0; t < 80.0; t += 0.25) {
    ASSERT_LE(p.rate(t), p.max_rate() + 1e-12) << t;
  }
}

TEST(TraceReplay, ScaledProfileDividesBlockRateIntoSegmentRate) {
  const TraceReplayProfile base{8.0, 0.25, 20.0, {}};
  const workload::ScaledProfile quarter{base, 0.25};
  EXPECT_DOUBLE_EQ(quarter.rate(5.0), base.rate(5.0) * 0.25);
  EXPECT_DOUBLE_EQ(quarter.max_rate(), base.max_rate() * 0.25);
}

TEST(TraceReplay, SpecBuildsTheProfileItNames) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "trace:amplitude=0.5,period=40,burst=3,burst-at=10,burst-len=5");
  const auto profile = spec.make_arrival_profile(10.0);
  EXPECT_NEAR(profile->rate(10.0), 45.0, 1e-9);
  EXPECT_DOUBLE_EQ(profile->rate(0.0), 10.0);
  // burst=1 collapses to a pure diurnal profile (no window at all).
  const auto flat = ScenarioSpec::parse("trace:burst=1,amplitude=0")
                        .make_arrival_profile(10.0);
  EXPECT_DOUBLE_EQ(flat->max_rate(), 10.0);
}

// --- simulator scenarios ---------------------------------------------------

p2p::ProtocolConfig sim_base() {
  p2p::ProtocolConfig cfg;
  cfg.num_peers = 40;
  cfg.lambda = 8.0;
  cfg.segment_size = 4;
  cfg.mu = 8.0;
  cfg.gamma = 1.0;
  cfg.buffer_cap = 40;
  cfg.num_servers = 2;
  cfg.set_normalized_capacity(2.5);
  cfg.payload_bytes = 16;
  cfg.seed = 42;
  return cfg;
}

TEST(SimScenario, ByzantineQuarantinedBeforeElimination) {
  p2p::ProtocolConfig cfg = sim_base();
  cfg.adversary.dishonest_fraction = 0.25;
  cfg.adversary.strategy = proto::CorruptionStrategy::kRandomPayload;
  cfg.adversary.integrity_checks = 2;
  cfg.validate();
  p2p::Network net{cfg};
  EXPECT_EQ(net.dishonest_count(), 10U);
  EXPECT_TRUE(net.is_dishonest(0));
  EXPECT_FALSE(net.is_dishonest(10));
  ASSERT_NE(net.integrity(), nullptr);
  net.run_until(10.0);

  const auto& m = net.metrics();
  EXPECT_GT(m.blocks_corrupted, 0U);
  // Every corrupted block that reached an honest node was caught at
  // accept time — none survived into a buffer or a server bank, so no
  // decoded segment can fail its end-to-end payload CRC.
  EXPECT_GT(m.blocks_quarantined + m.polluted_pulls, 0U);
  EXPECT_EQ(m.payload_crc_failures, 0U);
  // The honest majority still makes progress.
  EXPECT_GT(m.segments_injected, 0U);
  EXPECT_GT(net.servers().segments_decoded(), 0U);
}

TEST(SimScenario, UncheckedPollutionReachesDecoders) {
  // The control: same attack, verification off. Pollution then spreads
  // through re-coding and is only visible AFTER Gaussian elimination,
  // as end-to-end payload CRC failures — exactly what the integrity
  // layer exists to prevent.
  p2p::ProtocolConfig cfg = sim_base();
  cfg.adversary.dishonest_fraction = 0.25;
  cfg.adversary.strategy = proto::CorruptionStrategy::kRandomPayload;
  cfg.adversary.integrity_checks = 0;
  cfg.validate();
  p2p::Network net{cfg};
  net.run_until(10.0);
  const auto& m = net.metrics();
  EXPECT_GT(m.blocks_corrupted, 0U);
  EXPECT_EQ(m.blocks_quarantined, 0U);
  EXPECT_EQ(m.polluted_pulls, 0U);
  EXPECT_GT(m.payload_crc_failures, 0U);
}

TEST(SimScenario, ReplayPassesChecksAndStaysClean) {
  // Replay is undetectable per-block by construction; its blocks are
  // valid, so nothing is quarantined AND nothing fails CRC — the damage
  // is pure redundancy, measured elsewhere.
  p2p::ProtocolConfig cfg = sim_base();
  cfg.adversary.dishonest_fraction = 0.25;
  cfg.adversary.strategy = proto::CorruptionStrategy::kReplay;
  cfg.adversary.integrity_checks = 2;
  cfg.validate();
  p2p::Network net{cfg};
  net.run_until(10.0);
  const auto& m = net.metrics();
  EXPECT_GT(m.blocks_corrupted, 0U);  // replays counted as corruptions
  EXPECT_EQ(m.blocks_quarantined, 0U);
  EXPECT_EQ(m.polluted_pulls, 0U);
  EXPECT_EQ(m.payload_crc_failures, 0U);
}

TEST(SimScenario, IsolationWindowBlocksThenHeals) {
  p2p::ProtocolConfig cfg = sim_base();
  p2p::Network net{cfg};
  net.set_isolation_window(0.25, 2.0, 4.0);
  net.run_until(1.9);
  EXPECT_FALSE(net.is_isolated(0));
  EXPECT_EQ(net.metrics().gossip_blocked_isolated, 0U);
  net.run_until(3.0);
  EXPECT_TRUE(net.is_isolated(0));
  EXPECT_FALSE(net.is_isolated(10));
  net.run_until(10.0);
  EXPECT_FALSE(net.is_isolated(0));  // healed
  const auto& m = net.metrics();
  EXPECT_GT(m.gossip_blocked_isolated, 0U);
  EXPECT_GT(m.pulls_blocked_isolated, 0U);
  // The collection recovers after the heal.
  EXPECT_GT(net.servers().segments_decoded(), 0U);
}

TEST(SimScenario, TraceProfileShapesInjection) {
  p2p::ProtocolConfig cfg = sim_base();
  const TraceReplayProfile calm{cfg.lambda, 0.0, 40.0, {}};
  const TraceReplayProfile storm{
      cfg.lambda, 0.0, 40.0, {workload::BurstWindow{0.0, 10.0, 4.0}}};
  p2p::Network a{cfg};
  a.set_arrival_profile(&calm);
  a.run_until(10.0);
  p2p::Network b{cfg};
  b.set_arrival_profile(&storm);
  b.run_until(10.0);
  EXPECT_GT(a.metrics().segments_injected, 0U);
  // A 4x flash crowd injects far more than the flat profile.
  EXPECT_GT(b.metrics().segments_injected,
            2 * a.metrics().segments_injected);
}

TEST(SimScenario, SeededRunsAreDeterministic) {
  const auto run = [] {
    p2p::ProtocolConfig cfg = sim_base();
    cfg.adversary.dishonest_fraction = 0.25;
    cfg.adversary.strategy = proto::CorruptionStrategy::kGarbageCoefficients;
    cfg.adversary.integrity_checks = 3;
    p2p::Network net{cfg};
    net.set_isolation_window(0.25, 3.0, 5.0);
    net.run_until(8.0);
    const auto& m = net.metrics();
    return std::tuple{m.segments_injected, m.blocks_corrupted,
                      m.blocks_quarantined, m.polluted_pulls,
                      m.gossip_blocked_isolated,
                      net.servers().segments_decoded()};
  };
  EXPECT_EQ(run(), run());
}

// --- loopback-cluster scenarios --------------------------------------------

node::ClusterConfig cluster_base() {
  node::ClusterConfig cfg;
  cfg.num_peers = 8;
  cfg.num_servers = 2;
  cfg.segment_size = 3;
  cfg.buffer_cap = 24;
  cfg.payload_bytes = 16;
  cfg.lambda = 6.0;
  cfg.mu = 6.0;
  cfg.gamma = 0.5;
  cfg.server_rate = 16.0;
  cfg.segments_per_peer = 2;
  cfg.retain_own_until_acked = true;
  cfg.seed = 9;
  return cfg;
}

TEST(ClusterScenario, ByzantineHonestMajorityCompletes) {
  node::ClusterConfig cfg = cluster_base();
  cfg.adversary.dishonest_fraction = 0.25;
  cfg.adversary.strategy = proto::CorruptionStrategy::kRandomPayload;
  cfg.adversary.integrity_checks = 2;
  node::LoopbackCluster cluster{cfg};
  EXPECT_EQ(cluster.dishonest_count(), 2U);
  EXPECT_TRUE(cluster.is_byzantine(0));
  EXPECT_FALSE(cluster.is_byzantine(2));
  ASSERT_NE(cluster.integrity(), nullptr);

  ASSERT_TRUE(cluster.run_to_completion(600.0));
  EXPECT_TRUE(cluster.honest_complete());
  EXPECT_EQ(cluster.honest_segments_injected(), 6U * 2U);
  EXPECT_GT(cluster.blocks_corrupted(), 0U);
  // Pollution was caught at the accept path — peer gossip ingress or
  // server pull ingress — never inside a decoder.
  EXPECT_GT(cluster.blocks_quarantined() + cluster.polluted_pulls(), 0U);
}

TEST(ClusterScenario, PartitionHealsAndRecoversWithinCaps) {
  node::ClusterConfig cfg = cluster_base();
  node::LoopbackCluster cluster{cfg};
  // Isolate a quarter of the peers on [1, 3): endpoint ids 0..N-1 are
  // the peers, in slot order.
  cluster.net().schedule_partition(1.0, 3.0, {0, 1});
  ASSERT_TRUE(cluster.run_to_completion(600.0));
  EXPECT_TRUE(cluster.complete());
  EXPECT_GT(cluster.net().fault_drops(), 0U);
  // Recovery must come from the protocol (originals pinned at their
  // source until ACKed, re-gossiped after the heal), not from
  // overrunning the transport: the
  // send-queue cap is never violated or even hit in this regime.
  EXPECT_EQ(cluster.net().backpressure_refusals(), 0U);
  EXPECT_EQ(cluster.segments_decoded(), 8U * 2U);
}

TEST(ClusterScenario, SlowDrainPeerStillCompletes) {
  node::ClusterConfig cfg = cluster_base();
  node::LoopbackCluster cluster{cfg};
  // A slowloris-style reader: peer 0 absorbs gossip at a trickle. The
  // run must still complete — slow drain delays, it does not wedge.
  cluster.net().set_drain_rate(0, 4096.0);
  ASSERT_TRUE(cluster.run_to_completion(600.0));
  EXPECT_EQ(cluster.segments_decoded(), 8U * 2U);
}

TEST(ClusterScenario, TraceProfileDrivesLiveInjection) {
  node::ClusterConfig cfg = cluster_base();
  const TraceReplayProfile profile{
      cfg.lambda, 0.5, 40.0, {workload::BurstWindow{2.0, 4.0, 3.0}}};
  cfg.arrival = &profile;
  node::LoopbackCluster cluster{cfg};
  ASSERT_TRUE(cluster.run_to_completion(600.0));
  EXPECT_EQ(cluster.segments_injected(), 8U * 2U);
  EXPECT_EQ(cluster.segments_decoded(), 8U * 2U);
}

TEST(ClusterScenario, SeededRunsAreDeterministic) {
  const auto run = [] {
    node::ClusterConfig cfg = cluster_base();
    cfg.adversary.dishonest_fraction = 0.25;
    cfg.adversary.strategy = proto::CorruptionStrategy::kGarbageCoefficients;
    cfg.adversary.integrity_checks = 2;
    node::LoopbackCluster cluster{cfg};
    cluster.net().schedule_partition(1.0, 2.0, {2});
    const bool done = cluster.run_to_completion(600.0);
    return std::tuple{done, cluster.now(), cluster.segments_decoded(),
                      cluster.blocks_corrupted(),
                      cluster.blocks_quarantined(), cluster.polluted_pulls(),
                      cluster.net().fault_drops(), cluster.gossip_sent()};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace icollect
