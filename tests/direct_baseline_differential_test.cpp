/// Differential gate for the direct baseline: the Fig. 1(a) scheme as a
/// configuration of the one simulation engine (Network::direct_baseline)
/// must measure what the separate engine it replaced measured.
///
/// The `before` bands below are that engine (p2p::DirectCollector),
/// run at commit e4fe980 through runner::run_cells with root seed
/// SeedSequence{27}, seed keys 0, 1, 2 (one per point) and 12 replicas
/// per point; each band is the replica mean ± its 95% CI half-width.
/// The test runs the Network baseline at the same points, seeds and
/// replica count, and fails unless every metric's CIs overlap. The two
/// engines draw from different streams, so only the distributions are
/// compared, never trajectories.
///
/// Mean delay must agree because Little's law fixes it (both serve each
/// queue oldest-first); delay quantiles are not gated.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "p2p/network.h"
#include "runner/engine.h"

namespace icollect::p2p {
namespace {

constexpr std::uint64_t kSeedRoot = 27;
constexpr std::size_t kReplicas = 12;

struct Band {
  double mean;
  double ci95;
};

struct Before {
  Band collected_per_offered;
  Band overflow_loss;
  Band churn_loss;
  Band mean_delay;
};

struct GatePoint {
  ProtocolConfig cfg;
  double warm;
  double measure;
  std::uint64_t seed_key;
  Before before;
};

/// bench/ablation_baseline_vs_indirect's direct row: N=120, λ=20, B=60,
/// 4 servers, E[L]=4, state-counter fidelity, run from 0 to 40.
ProtocolConfig ablation_config(double c) {
  ProtocolConfig cfg;
  cfg.num_peers = 120;
  cfg.lambda = 20.0;
  cfg.mu = 10.0;
  cfg.gamma = 1.0;
  cfg.segment_size = 1;
  cfg.buffer_cap = 60;
  cfg.num_servers = 4;
  cfg.set_normalized_capacity(c);
  cfg.fidelity = CollectionFidelity::kStateCounter;
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 4.0;
  return cfg;
}

/// The reference point `icollect_sim peers=1000 lambda=10 s=16 mu=10 c=3
/// payload=0 churn=4 warm=5 measure=20 direct=1` (default B=120, 4
/// servers, real-coding fidelity).
ProtocolConfig reference_config() {
  ProtocolConfig cfg;
  cfg.num_peers = 1000;
  cfg.lambda = 10.0;
  cfg.segment_size = 16;
  cfg.mu = 10.0;
  cfg.set_normalized_capacity(3.0);
  cfg.payload_bytes = 0;
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 4.0;
  return cfg;
}

runner::MetricTable run_baseline(const GatePoint& point) {
  runner::ThreadPool pool{runner::ThreadPool::resolve_jobs(0)};
  const runner::Cell cell{
      [&point](std::uint64_t seed, std::size_t) {
        ProtocolConfig cfg = point.cfg;
        cfg.seed = seed;
        auto net = Network::direct_baseline(cfg);
        net.warm_up(point.warm);
        net.run_until(point.warm + point.measure);
        const auto& m = net.metrics();
        const auto offered = static_cast<double>(net.blocks_offered());
        return runner::Sample{
            {"collected_per_offered",
             static_cast<double>(net.servers().segments_decoded()) /
                 offered},
            {"overflow_loss",
             static_cast<double>(m.injection_blocked) / offered},
            {"churn_loss",
             static_cast<double>(m.blocks_lost_to_churn) / offered},
            {"mean_delay", net.mean_block_delay()}};
      },
      kReplicas, point.seed_key};
  return runner::run_cells(runner::SeedSequence{kSeedRoot}, {cell}, pool)
      .front();
}

void expect_overlap(const runner::MetricTable& after, const char* name,
                    const Band& before) {
  const double mean = after.mean(name);
  const double ci = after.ci95(name);
  EXPECT_LE(std::abs(mean - before.mean), ci + before.ci95)
      << name << ": after " << mean << " ± " << ci << ", before "
      << before.mean << " ± " << before.ci95;
}

void check_point(const GatePoint& point) {
  const runner::MetricTable after = run_baseline(point);
  ASSERT_EQ(after.replicas(), kReplicas);
  expect_overlap(after, "collected_per_offered",
                 point.before.collected_per_offered);
  expect_overlap(after, "overflow_loss", point.before.overflow_loss);
  expect_overlap(after, "churn_loss", point.before.churn_loss);
  expect_overlap(after, "mean_delay", point.before.mean_delay);
}

TEST(DirectBaselineDifferential, AblationC2) {
  check_point({ablation_config(2.0), 0.0, 40.0, 0,
               {{0.099907, 0.000798},
                {0.366734, 0.003641},
                {0.482608, 0.004717},
                {3.269997, 0.038451}}});
}

TEST(DirectBaselineDifferential, AblationC5) {
  check_point({ablation_config(5.0), 0.0, 40.0, 1,
               {{0.250094, 0.000989},
                {0.254569, 0.004236},
                {0.448662, 0.004662},
                {2.668106, 0.041603}}});
}

TEST(DirectBaselineDifferential, ReferenceChurn4) {
  check_point({reference_config(), 5.0, 20.0, 2,
               {{0.300081, 0.000964},
                {0.003854, 0.000333},
                {0.584936, 0.002371},
                {2.634588, 0.013636}}});
}

}  // namespace
}  // namespace icollect::p2p
