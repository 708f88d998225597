/// Cross-validation: the event-driven simulation (run at the paper's
/// state-counter fidelity, which is exactly the process the ODEs are the
/// fluid limit of) must agree with the ODE steady state. This is the
/// reproduction's core correctness argument: two independent
/// implementations of Sec. 2/Sec. 3 meeting in the middle.
///
/// Statistically sound form: each scenario runs R = 8 independent
/// replicas through the replica engine and the ODE prediction must land
/// inside `sim mean ± (finite-N allowance + 95% CI)`. The CI term makes
/// the check honest about Monte-Carlo noise; the allowance term is the
/// empirically calibrated systematic gap between the N-peer simulation
/// and the N→∞ fluid limit (it shrinks with N, so tightening the
/// population would let it tighten too). A single lucky run can no
/// longer pass, and an unlucky seed can no longer fail.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/collection_system.h"
#include "ode/closed_form.h"
#include "runner/simulation_cell.h"

namespace icollect {
namespace {

runner::ThreadPool& shared_pool() {
  static runner::ThreadPool pool{runner::ThreadPool::resolve_jobs(0)};
  return pool;
}

struct Scenario {
  double lambda;
  double mu;
  double c;
  std::size_t s;
};

constexpr std::uint64_t kSeedRoot = 1234;
constexpr std::size_t kReplicas = 8;

/// Aggregate over R replicas of one scenario; `cell` keys the seed tree
/// so scenarios never share RNG streams.
runner::MetricTable run_scenario(const p2p::ProtocolConfig& cfg,
                                 std::uint64_t cell) {
  runner::ReplicaPlan plan;
  plan.config = cfg;
  plan.warm = 10.0;
  plan.measure = 22.0;
  plan.replicas = kReplicas;
  return runner::run_cells(runner::SeedSequence{kSeedRoot},
                           {runner::simulation_cell(plan, cell)},
                           shared_pool())
      .front();
}

p2p::ProtocolConfig scenario_config(const Scenario& sc) {
  p2p::ProtocolConfig cfg;
  cfg.num_peers = 150;
  cfg.lambda = sc.lambda;
  cfg.mu = sc.mu;
  cfg.gamma = 1.0;
  cfg.segment_size = sc.s;
  cfg.buffer_cap = 150;
  cfg.num_servers = 4;
  cfg.set_normalized_capacity(sc.c);
  cfg.fidelity = p2p::CollectionFidelity::kStateCounter;
  return cfg;
}

/// "lambda20_mu10_c5_s1": the scenario's symbols, so each case has a
/// readable test name (the symbols are whole numbers here).
std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const Scenario& sc = info.param;
  char buf[96];
  std::snprintf(buf, sizeof buf, "lambda%g_mu%g_c%g_s%zu", sc.lambda, sc.mu,
                sc.c, sc.s);
  return buf;
}

class SimVsOdeTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SimVsOdeTest, SteadyStateAgreementWithinCi) {
  const Scenario sc = GetParam();
  const auto cfg = scenario_config(sc);
  // Cell index = a stable encoding of the scenario, so adding scenarios
  // never reshuffles existing streams.
  const auto cell = static_cast<std::uint64_t>(
      sc.lambda * 1000.0 + sc.mu * 100.0 + sc.c * 10.0 +
      static_cast<double>(sc.s));
  const auto agg = run_scenario(cfg, cell);
  ASSERT_EQ(agg.replicas(), kReplicas);
  const auto sol = CollectionSystem::analyze(cfg);

  // Storage (Theorem 1): tight agreement — the calibrated finite-N
  // allowance is 2% of rho; the CI absorbs replica noise.
  EXPECT_NEAR(agg.mean("mean_blocks_per_peer"), sol.rho(),
              0.02 * sol.rho() + agg.ci95("mean_blocks_per_peer"));

  // Throughput (Theorem 2): the finite-N sim runs a few percent below
  // the fluid limit, systematically; 8% of the demand scale is the
  // calibrated allowance (a single run needed 12%).
  EXPECT_NEAR(agg.mean("normalized_throughput"), sol.normalized_throughput(),
              0.08 * std::max(sol.normalized_throughput(), 0.1) +
                  agg.ci95("normalized_throughput"));
  // Capacity bound must hold for the replica MEAN with only CI slack —
  // exceeding min(c, lambda)/lambda systematically is impossible.
  EXPECT_LE(agg.mean("normalized_throughput"),
            std::min(sc.c / sc.lambda, 1.0) + 0.01 +
                agg.ci95("normalized_throughput"));

  // Saved data (Theorem 4): same scale and ordering. The census is the
  // noisiest statistic (a point-in-time count, not a time average), so
  // its allowance stays the widest.
  const double sim_saved = agg.mean("saved_original_blocks_degree") /
                           static_cast<double>(cfg.num_peers);
  const double sim_saved_ci = agg.ci95("saved_original_blocks_degree") /
                              static_cast<double>(cfg.num_peers);
  const double ode_saved = sol.saved_blocks_per_peer();
  EXPECT_NEAR(sim_saved, ode_saved,
              0.35 * std::max(ode_saved, 1.0) + sim_saved_ci);

  // The replication must have real statistical power: a CI wider than
  // the agreement band would make the assertions above vacuous.
  EXPECT_LT(agg.ci95("mean_blocks_per_peer"), 0.1 * sol.rho());
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SimVsOdeTest,
    ::testing::Values(Scenario{20.0, 10.0, 5.0, 1},
                      Scenario{20.0, 10.0, 5.0, 10},
                      Scenario{20.0, 10.0, 2.0, 5},
                      Scenario{8.0, 4.0, 2.0, 4}),
    scenario_name);

TEST(SimVsOde, ThroughputOrderingInSIsSignificant) {
  // Both worlds must agree that throughput grows with s (Fig. 3 shape) —
  // and the simulated separation must exceed the summed CI half-widths,
  // i.e. be statistically significant, not a seed artifact.
  Scenario base{20.0, 10.0, 5.0, 1};
  auto cfg_s1 = scenario_config(base);
  cfg_s1.num_peers = 120;
  auto cfg_s10 = cfg_s1;
  cfg_s10.segment_size = 10;

  const auto agg_s1 = run_scenario(cfg_s1, 9001);
  const auto agg_s10 = run_scenario(cfg_s10, 9010);
  const double t1 = agg_s1.mean("normalized_throughput");
  const double t10 = agg_s10.mean("normalized_throughput");
  EXPECT_GT(t10 - t1, agg_s1.ci95("normalized_throughput") +
                          agg_s10.ci95("normalized_throughput"));

  const auto sol_s1 = CollectionSystem::analyze(cfg_s1);
  const auto sol_s10 = CollectionSystem::analyze(cfg_s10);
  EXPECT_GT(sol_s10.normalized_throughput(), sol_s1.normalized_throughput());
}

}  // namespace
}  // namespace icollect
