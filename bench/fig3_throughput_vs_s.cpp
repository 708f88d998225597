/// Reproduces **Figure 3**: normalized session throughput as a function
/// of segment size s, one curve per normalized server capacity c, with
/// the capacity dash-lines c/λ. Parameters as in the paper: λ = 20,
/// μ = 10, γ = 1, c ∈ {2, 5, 10}.
///
/// Two series per c:
///   ode  — Theorem 2 evaluated on the steady state of systems (7)/(8)/(12)
///   sim  — the event-driven simulation at the paper's state-counter
///          collection fidelity (the process the ODEs model)
///
/// Expected shape: throughput rises with s toward the capacity line;
/// s ≈ 20–30 is already close; approaching capacity is harder for larger
/// c (the benefit of indirection is most salient when capacity is scarce).

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace icollect;
  using bench::fmt;

  const double lambda = 20.0;
  const double mu = 10.0;
  const double gamma = 1.0;
  const std::vector<double> capacities{2.0, 5.0, 10.0};
  const std::vector<std::size_t> sizes{1, 2, 4, 6, 8, 10, 15, 20, 30, 40};

  std::printf("== Figure 3: session throughput vs segment size ==\n");
  std::printf("lambda=%.0f mu=%.0f gamma=%.0f (throughput normalized by N*lambda)\n\n",
              lambda, mu, gamma);
  for (const double c : capacities) {
    std::printf("capacity line for c=%.0f: %.3f\n", c,
                std::min(c / lambda, 1.0));
  }
  std::printf("\n");

  bench::Table table{{"s", "ode c=2", "sim c=2", "ode c=5", "sim c=5",
                      "ode c=10", "sim c=10"}};

  // Declare every (s, c) point, then execute the whole grid as one
  // parallel Monte-Carlo sweep (replicas x points tasks); seeds derive
  // from (bench root, "fig3", point, replica) — never reused across
  // curve parameters.
  bench::SteadyStateSweep sweep{"fig3"};
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
    for (const double c : capacities) per_c.push_back(sweep.add(make_cfg(s, c)));
  }
  sweep.run();

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::string> row{std::to_string(sizes[i])};
    for (std::size_t j = 0; j < capacities.size(); ++j) {
      const auto ode = CollectionSystem::analyze(make_cfg(sizes[i], capacities[j]));
      const auto& sim = sweep.result(handles[i][j]);
      row.push_back(fmt(ode.normalized_throughput()));
      row.push_back(bench::fmt_ci(sim, "normalized_throughput"));
    }
    table.add_row(std::move(row));
  }
  table.print();
  table.to_csv(bench::maybe_csv("fig3_throughput_vs_s").get());

  std::printf(
      "\nshape checks: throughput increases with s and approaches the\n"
      "capacity line; a small segment size (20-40) suffices; larger c is\n"
      "harder to saturate.\n");
  return 0;
}
