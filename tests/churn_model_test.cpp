/// Lifetime-distribution tests (exponential vs Pareto churn) and the
/// server pull-policy ablation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "p2p/churn.h"
#include "p2p/network.h"

namespace icollect::p2p {
namespace {

ChurnConfig expo(double mean) {
  ChurnConfig c;
  c.enabled = true;
  c.mean_lifetime = mean;
  return c;
}

ChurnConfig pareto(double mean, double shape) {
  ChurnConfig c = expo(mean);
  c.distribution = LifetimeDistribution::kPareto;
  c.pareto_shape = shape;
  return c;
}

TEST(ChurnModel, ExponentialMeanMatches) {
  sim::Rng rng{301};
  const auto cfg = expo(3.0);
  double sum = 0.0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) sum += sample_lifetime(cfg, rng);
  EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(ChurnModel, ParetoMeanMatches) {
  sim::Rng rng{302};
  const auto cfg = pareto(3.0, 3.0);  // finite variance at alpha=3
  double sum = 0.0;
  constexpr int kN = 60000;
  for (int i = 0; i < kN; ++i) sum += sample_lifetime(cfg, rng);
  EXPECT_NEAR(sum / kN, 3.0, 0.15);
}

TEST(ChurnModel, ParetoRespectsMinimum) {
  sim::Rng rng{303};
  const auto cfg = pareto(3.0, 2.0);
  const double x_m = 3.0 * (2.0 - 1.0) / 2.0;  // 1.5
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(sample_lifetime(cfg, rng), x_m);
  }
}

TEST(ChurnModel, ParetoIsHeavierTailedThanExponential) {
  sim::Rng rng{304};
  const auto e = expo(3.0);
  const auto p = pareto(3.0, 2.0);
  std::vector<double> es, ps;
  constexpr int kN = 30000;
  for (int i = 0; i < kN; ++i) {
    es.push_back(sample_lifetime(e, rng));
    ps.push_back(sample_lifetime(p, rng));
  }
  std::sort(es.begin(), es.end());
  std::sort(ps.begin(), ps.end());
  const auto q = [](const std::vector<double>& v, double f) {
    return v[static_cast<std::size_t>(f * (v.size() - 1))];
  };
  // Same mean, but the Pareto's extreme quantile dominates (heavy tail:
  // for α=2 the p99.9 is ~1.5·√1000 ≈ 47 vs the exponential's
  // 3·ln 1000 ≈ 21).
  EXPECT_GT(q(ps, 0.999), q(es, 0.999) * 1.5);
  // And because the mass needed for that tail comes from somewhere, the
  // Pareto's *maximum* dwarfs the exponential's while both share mean 3.
  EXPECT_GT(ps.back(), es.back());
}

TEST(ChurnModel, ContractsOnMisuse) {
  sim::Rng rng{305};
  ChurnConfig off;
  EXPECT_THROW((void)sample_lifetime(off, rng), ContractViolation);
  auto bad = pareto(1.0, 0.9);  // infinite-mean shape
  EXPECT_THROW((void)sample_lifetime(bad, rng), ContractViolation);
}

TEST(ChurnModel, ParetoConfigValidates) {
  ProtocolConfig cfg;
  cfg.churn = pareto(2.0, 0.5);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.churn = pareto(2.0, 1.5);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ChurnModel, NetworkRunsUnderParetoChurn) {
  ProtocolConfig cfg;
  cfg.num_peers = 60;
  cfg.lambda = 8.0;
  cfg.segment_size = 4;
  cfg.mu = 6.0;
  cfg.gamma = 1.0;
  cfg.buffer_cap = 60;
  cfg.num_servers = 2;
  cfg.set_normalized_capacity(3.0);
  cfg.fidelity = CollectionFidelity::kStateCounter;
  cfg.churn = pareto(2.0, 2.0);
  cfg.seed = 5;
  Network net{cfg};
  net.run_until(15.0);
  EXPECT_GT(net.metrics().peers_departed, 0u);
  EXPECT_GT(net.servers().segments_decoded(), 0u);
}

TEST(PullPolicy, BlindProbingWastesPullsWhenPeersAreEmpty) {
  // Sparse load → many empty peers → blind probing loses throughput,
  // the occupancy-aware rule (the paper's) does not.
  ProtocolConfig cfg;
  cfg.num_peers = 100;
  cfg.lambda = 0.4;
  cfg.segment_size = 1;
  cfg.mu = 0.4;
  cfg.gamma = 1.0;  // z0 is large: most peers idle most of the time
  cfg.buffer_cap = 30;
  cfg.num_servers = 2;
  cfg.set_normalized_capacity(0.3);
  cfg.fidelity = CollectionFidelity::kStateCounter;
  cfg.seed = 10;

  cfg.pull_policy = proto::PullPolicyKind::kUniform;
  Network aware{cfg};
  aware.warm_up(10.0);
  aware.run_until(aware.now() + 40.0);

  cfg.pull_policy = proto::PullPolicyKind::kUniformAll;
  Network blind{cfg};
  blind.warm_up(10.0);
  blind.run_until(blind.now() + 40.0);

  EXPECT_GT(blind.metrics().server_empty_probes, 0u);
  EXPECT_EQ(aware.metrics().server_empty_probes, 0u);
  EXPECT_GT(aware.normalized_throughput(),
            blind.normalized_throughput() * 1.1);
}

TEST(PullPolicy, PoliciesAgreeWhenNoPeerIsEmpty) {
  // Heavy load: z0 ≈ 0 so blind probing almost never misses.
  ProtocolConfig cfg;
  cfg.num_peers = 80;
  cfg.lambda = 20.0;
  cfg.segment_size = 5;
  cfg.mu = 10.0;
  cfg.gamma = 1.0;
  cfg.buffer_cap = 120;
  cfg.num_servers = 4;
  cfg.set_normalized_capacity(4.0);
  cfg.fidelity = CollectionFidelity::kStateCounter;
  cfg.seed = 11;

  cfg.pull_policy = proto::PullPolicyKind::kUniform;
  Network aware{cfg};
  aware.warm_up(8.0);
  aware.run_until(aware.now() + 20.0);

  cfg.pull_policy = proto::PullPolicyKind::kUniformAll;
  Network blind{cfg};
  blind.warm_up(8.0);
  blind.run_until(blind.now() + 20.0);

  EXPECT_NEAR(aware.normalized_throughput(), blind.normalized_throughput(),
              0.1 * aware.normalized_throughput());
}

}  // namespace
}  // namespace icollect::p2p
