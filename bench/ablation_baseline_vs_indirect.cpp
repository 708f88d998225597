/// Ablation A1 — the Sec. 1 motivation, quantified honestly.
///
/// Every row runs on one engine, p2p::Network: the direct baseline is
/// its Fig. 1(a) configuration (Network::direct_baseline). Under steady
/// overload every collector is pinned near c/λ, so gross delivered
/// fraction cannot separate the schemes (the direct baseline's pulls are
/// never redundant, so it is the gross-throughput optimum). What the
/// indirect design buys — and what this harness measures — is *which*
/// data survives:
///
///   * departed-peer recovery: of the admitted blocks of peers that
///     later left, the fraction the servers obtained (the indirect
///     scheme keeps collecting posthumously from gossiped copies);
///   * last-words recovery: the same restricted to blocks generated in
///     the final window before departure — "peers tend to leave soon
///     after the quality degrades, such statistics ... may be the most
///     useful" (Sec. 1). Direct report queues are served oldest-first,
///     so a loaded baseline loses exactly these.
///
/// Gross delivered is one formula for every row: blocks the servers
/// collected over blocks the peers offered, refused ones included
/// (Network::blocks_offered).
///
/// Plus the real-coding vs state-counter fidelity gap: how much of the
/// model's throughput an actual GF(2^8) deployment retains.

#include <cstdio>
#include <utility>

#include "bench_util.h"

namespace {

using namespace icollect;

constexpr double kRunTime = 40.0;
constexpr double kLastWordsWindow = 1.0;

p2p::ProtocolConfig common_config(std::size_t s, double c) {
  p2p::ProtocolConfig cfg;
  cfg.num_peers = bench::scaled_peers(120);
  cfg.lambda = 20.0;
  cfg.mu = 10.0;
  cfg.gamma = 1.0;
  cfg.segment_size = s;
  cfg.buffer_cap = 120;
  cfg.num_servers = 4;
  cfg.set_normalized_capacity(c);
  cfg.fidelity = p2p::CollectionFidelity::kStateCounter;
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 4.0;
  cfg.seed = 2024;
  return cfg;
}

struct Row {
  double gross = 0.0;
  double departed = 0.0;
  double last_words = 0.0;
};

Row measure(p2p::Network& net) {
  net.run_until(kRunTime);
  const auto offered = net.blocks_offered();
  Row r;
  r.gross = offered > 0
                ? static_cast<double>(net.servers().innovative_pulls()) /
                      static_cast<double>(offered)
                : 0.0;
  r.departed = net.departed_data_stats().recovery_fraction();
  r.last_words = net.last_words_stats(kLastWordsWindow).recovery_fraction();
  return r;
}

Row run_direct(double c) {
  auto cfg = common_config(1, c);
  cfg.buffer_cap = 60;  // a direct report queue, oldest-first service
  auto net = p2p::Network::direct_baseline(cfg);
  return measure(net);
}

Row run_indirect(std::size_t s, double c) {
  p2p::Network net{common_config(s, c)};
  return measure(net);
}

}  // namespace

int main() {
  using bench::fmt;

  std::printf("== Ablation: direct baseline vs indirect collection ==\n");
  std::printf(
      "lambda=20 mu=10 gamma=1, churn E[L]=4, run=%.0f, last-words "
      "window=%.1f\n\n",
      kRunTime, kLastWordsWindow);

  for (const double c : {2.0, 5.0}) {
    std::printf("-- normalized server capacity c = %.0f (c/lambda = %.2f) --\n",
                c, c / 20.0);
    bench::Table table{
        {"scheme", "gross delivered", "departed recovery",
         "last-words recovery"}};
    const Row d = run_direct(c);
    table.add_row({"direct (Fig. 1a)", fmt(d.gross), fmt(d.departed),
                   fmt(d.last_words)});
    for (const std::size_t s : {1ul, 20ul}) {
      const Row r = run_indirect(s, c);
      table.add_row({"indirect s=" + std::to_string(s), fmt(r.gross),
                     fmt(r.departed), fmt(r.last_words)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "shape checks: gross delivered is capped near c/lambda for every\n"
      "scheme (direct is the gross optimum — its pulls are never\n"
      "redundant). Departed recovery counts admitted blocks only, so the\n"
      "direct row leaves out the reports its full queues refused. The\n"
      "indirect scheme's edge is where the paper claims it: recovery of\n"
      "departed peers' freshest data, about twice the loaded FIFO\n"
      "baseline's at s=1; at s=20 the edge is small.\n");

  // Fidelity gap: the model's idealized counter vs real GF(2^8) decoding.
  std::printf("\n== Real-coding vs state-counter fidelity gap ==\n");
  std::printf("lambda=20 mu=10 gamma=1 c=5 (Fig. 3 operating point)\n\n");
  bench::Table gap{{"s", "counter thr", "real thr", "retained"}};
  const std::vector<std::size_t> gap_sizes{1, 5, 10, 20};
  bench::SteadyStateSweep sweep{"ablation_fidelity_gap"};
  std::vector<std::pair<std::size_t, std::size_t>> handles;
  for (const std::size_t s : gap_sizes) {
    p2p::ProtocolConfig cfg;
    cfg.num_peers = bench::scaled_peers(120);
    cfg.lambda = 20.0;
    cfg.mu = 10.0;
    cfg.gamma = 1.0;
    cfg.segment_size = s;
    cfg.buffer_cap = 160;
    cfg.num_servers = 4;
    cfg.set_normalized_capacity(5.0);
    cfg.fidelity = p2p::CollectionFidelity::kStateCounter;
    const std::size_t counter = sweep.add(cfg, 8.0, 20.0);
    cfg.fidelity = p2p::CollectionFidelity::kRealCoding;
    const std::size_t real = sweep.add(cfg, 8.0, 20.0);
    handles.emplace_back(counter, real);
  }
  sweep.run();
  for (std::size_t i = 0; i < gap_sizes.size(); ++i) {
    const auto& counter = sweep.result(handles[i].first);
    const auto& real = sweep.result(handles[i].second);
    gap.add_row(
        {std::to_string(gap_sizes[i]),
         bench::fmt_ci(counter, "normalized_throughput"),
         bench::fmt_ci(real, "normalized_throughput"),
         fmt(counter.mean("normalized_throughput") > 0
                 ? real.mean("normalized_throughput") /
                       counter.mean("normalized_throughput")
                 : 0.0,
             2)});
  }
  gap.print();
  std::printf(
      "\n(the paper's model treats every pull from an undecoded segment as\n"
      "innovative; real GF(2^8) decoding pays for span shrinkage under\n"
      "TTL — the gap is the honest deployment cost)\n");
  return 0;
}
