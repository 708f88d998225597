/// The live-node acceptance gate: a loopback cluster of real
/// PeerNode/ServerNode state machines exchanging framed bytes must
/// reproduce the simulator's steady-state measurements at the same
/// operating point (s, mu, gamma, B, c_s) — the node runtime is the
/// same protocol one abstraction level down, so its throughput and
/// storage must land inside the simulator's replica confidence band.
///
/// Known, deliberate divergences bounded by the allowance terms:
///  - gossip eligibility is receiver-side in the live protocol
///    (sender picks blindly, receiver drops full/full-rank) vs the
///    simulator's sender-side filter;
///  - each live server decodes into its own bank and forwards
///    innovative pulls to its peers servers, vs the simulator's single
///    pooled bank (forwarding latency can double-count a block);
///  - live servers steer pulls away from peers that recently reported
///    an empty buffer (occupancy staleness window), while the simulator
///    samples non-empty peers omnisciently.
/// Simulator-fidelity knobs that have no sim counterpart
/// (retain_own_until_acked, drop_on_ack) stay off here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "node/cluster.h"
#include "p2p/config.h"
#include "runner/simulation_cell.h"

namespace icollect {
namespace {

constexpr std::size_t kBufferCap = 32;
constexpr double kLambda = 8.0;
constexpr double kCapacity = 4.0;  // c < lambda: server-limited regime

constexpr double kWarm = 10.0;
constexpr double kMeasure = 40.0;
constexpr std::size_t kReplicas = 8;

/// The one operating point both drivers run: coefficients-only, the
/// paper's uniform pull, no adversary.
proto::OperatingPoint operating_point() {
  proto::OperatingPoint point;
  point.num_peers = 16;
  point.num_servers = 2;
  point.segment_size = 4;
  point.buffer_cap = kBufferCap;
  point.lambda = kLambda;
  point.mu = 6.0;
  point.gamma = 1.0;
  point.payload_bytes = 0;
  point.set_normalized_capacity(kCapacity);
  return point;
}

runner::MetricTable simulator_band() {
  p2p::ProtocolConfig cfg;
  static_cast<proto::OperatingPoint&>(cfg) = operating_point();
  cfg.fidelity = p2p::CollectionFidelity::kRealCoding;

  runner::ReplicaPlan plan;
  plan.config = cfg;
  plan.warm = kWarm;
  plan.measure = kMeasure;
  plan.replicas = kReplicas;
  runner::ThreadPool pool{runner::ThreadPool::resolve_jobs(0)};
  return runner::run_cells(runner::SeedSequence{771},
                           {runner::simulation_cell(plan, 1)}, pool)
      .front();
}

struct ClusterPoint {
  double normalized_throughput;
  double mean_blocks_per_peer;
};

ClusterPoint run_cluster(std::uint64_t seed) {
  node::ClusterConfig cfg;
  static_cast<proto::OperatingPoint&>(cfg) = operating_point();
  cfg.segments_per_peer = 0;  // unbounded: steady state, like the sim
  cfg.seed = seed;
  cfg.net.seed = seed;
  node::LoopbackCluster cluster{cfg};
  cluster.run_for(kWarm);
  cluster.begin_measurement();
  cluster.run_for(kMeasure);
  return {cluster.normalized_throughput(), cluster.mean_blocks_per_peer()};
}

TEST(NodeVsSim, SteadyStateInsideSimulatorBand) {
  const auto agg = simulator_band();
  ASSERT_EQ(agg.replicas(), kReplicas);
  const double sim_tp = agg.mean("normalized_throughput");
  const double sim_tp_ci = agg.ci95("normalized_throughput");
  const double sim_rho = agg.mean("mean_blocks_per_peer");
  const double sim_rho_ci = agg.ci95("mean_blocks_per_peer");

  // The operating point must be the intended server-limited one:
  // throughput pinned near c/lambda, buffers clearly unsaturated.
  ASSERT_GT(sim_tp, 0.2);
  ASSERT_LT(sim_rho, 0.9 * static_cast<double>(kBufferCap));

  // Average two cluster seeds: one live run is a single replica, so
  // give it the same noise-reduction courtesy the sim side gets.
  const auto a = run_cluster(21);
  const auto b = run_cluster(22);
  const double live_tp =
      0.5 * (a.normalized_throughput + b.normalized_throughput);
  const double live_rho =
      0.5 * (a.mean_blocks_per_peer + b.mean_blocks_per_peer);

  // Throughput: allowance covers the pull-steering and forwarding
  // divergences; the CI covers Monte-Carlo noise on the sim side.
  EXPECT_NEAR(live_tp, sim_tp, 0.10 * std::max(sim_tp, 0.1) + sim_tp_ci)
      << "live=" << live_tp << " sim=" << sim_tp << " ci=" << sim_tp_ci;

  // The capacity bound applies to the live system exactly as to the
  // sim: pulls cannot beat min(c, lambda)/lambda.
  EXPECT_LE(live_tp,
            std::min(kCapacity / kLambda, 1.0) * 1.02 + sim_tp_ci);

  // Storage: receiver-side gossip drops change who stores what, not how
  // much — mean occupancy must match within a modest band.
  EXPECT_NEAR(live_rho, sim_rho,
              0.15 * std::max(sim_rho, 1.0) + sim_rho_ci)
      << "live=" << live_rho << " sim=" << sim_rho << " ci=" << sim_rho_ci;
}

}  // namespace
}  // namespace icollect
