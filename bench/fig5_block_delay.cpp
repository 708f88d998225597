/// Reproduces **Figure 5**: average block delivery delay T(s) for
/// different segment sizes; λ = 20, μ = 10, γ = 1, curves per c.
///
/// Two series per c:
///   ode — Theorem 3's formula (17), T = Σw̃_i/λ − Σm̃_i^s/(λσ), a
///         Little's-law proxy over all segments. (Note: (17) can dip
///         below zero at s = 1 for large c — when a big fraction of the
///         alive segments are already decoded-and-alive, the "good time"
///         subtraction overshoots. The paper's choice of c keeps it
///         positive; we print the raw value.)
///   sim — direct measurement: mean over decoded segments of
///         (decode time − injection time)/s.
///
/// Expected shape: a peak at small s (≈ 5) and decline for larger s;
/// delay is lower when capacity c is larger.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace icollect;
  using bench::fmt;

  const double lambda = 20.0;
  const double mu = 10.0;
  const double gamma = 1.0;
  const std::vector<double> capacities{2.0, 5.0};
  const std::vector<std::size_t> sizes{1, 2, 3, 5, 8, 10, 15, 20, 30, 40};

  std::printf("== Figure 5: average block delivery delay vs s ==\n");
  std::printf("lambda=%.0f mu=%.0f gamma=%.0f\n\n", lambda, mu, gamma);

  bench::Table table{
      {"s", "ode c=2", "sim c=2", "ode c=5", "sim c=5"}};

  bench::SteadyStateSweep sweep{"fig5"};
  auto make_cfg = [&](std::size_t s, double c) {
    p2p::ProtocolConfig cfg;
    cfg.num_peers = bench::scaled_peers(150);
    cfg.lambda = lambda;
    cfg.mu = mu;
    cfg.gamma = gamma;
    cfg.segment_size = s;
    cfg.buffer_cap = 160;
    cfg.num_servers = 4;
    cfg.set_normalized_capacity(c);
    cfg.fidelity = p2p::CollectionFidelity::kStateCounter;
    return cfg;
  };
  std::vector<std::vector<std::size_t>> handles;
  for (const std::size_t s : sizes) {
    auto& per_c = handles.emplace_back();
    for (const double c : capacities) {
      per_c.push_back(sweep.add(make_cfg(s, c), 10.0, 30.0));
    }
  }
  sweep.run();

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::string> row{std::to_string(sizes[i])};
    for (std::size_t j = 0; j < capacities.size(); ++j) {
      const auto ode =
          CollectionSystem::analyze(make_cfg(sizes[i], capacities[j]));
      const auto& sim = sweep.result(handles[i][j]);
      row.push_back(fmt(ode.block_delay()));
      row.push_back(bench::fmt_ci(sim, "mean_block_delay"));
    }
    table.add_row(std::move(row));
  }
  table.print();
  table.to_csv(bench::maybe_csv("fig5_block_delay").get());

  std::printf(
      "\nshape checks: delay peaks at small s (~3-8) and declines for\n"
      "large s; the scarcer capacity (c=2) has the larger delays.\n");
  return 0;
}
