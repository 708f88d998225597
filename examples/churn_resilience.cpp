/// \file churn_resilience.cpp
/// "Ironically, since peers tend to leave soon after the quality
/// degrades, such statistics from departed peers may be the most useful
/// to diagnose system outages" (Sec. 1).
///
/// This example sweeps churn severity (mean peer lifetime) and compares,
/// for the direct baseline and the indirect scheme, how much of the data
/// of peers that later departed — and in particular their final
/// ("last words") measurements — the logging servers end up with.
///
///   ./churn_resilience [num_peers] [seed]

#include <cstdio>
#include <cstdlib>

#include "core/icollect.h"

namespace {

using namespace icollect;

struct Outcome {
  double departed = 0.0;
  double last_words = 0.0;
};

Outcome measure(p2p::Network& net, double window) {
  net.run_until(40.0);
  return {net.departed_data_stats().recovery_fraction(),
          net.last_words_stats(window).recovery_fraction()};
}

Outcome run_direct(const p2p::ProtocolConfig& base, double window) {
  p2p::ProtocolConfig cfg = base;
  cfg.buffer_cap = 60;  // a report queue, served oldest-first
  auto net = p2p::Network::direct_baseline(cfg);
  return measure(net, window);
}

Outcome run_indirect(const p2p::ProtocolConfig& base, std::size_t s,
                     double window) {
  p2p::ProtocolConfig cfg = base;
  cfg.segment_size = s;
  p2p::Network net{cfg};
  return measure(net, window);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 150;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 3;
  const double kWindow = 1.0;

  p2p::ProtocolConfig base;
  base.num_peers = n;
  base.lambda = 20.0;
  base.mu = 10.0;
  base.gamma = 1.0;
  base.segment_size = 10;
  base.buffer_cap = 120;
  base.num_servers = 4;
  base.set_normalized_capacity(5.0);
  base.fidelity = p2p::CollectionFidelity::kStateCounter;
  base.churn.enabled = true;
  base.seed = seed;

  std::printf("== churn resilience: recovery of departed peers' data ==\n");
  std::printf("N=%zu lambda=20 mu=10 gamma=1 c=5, last-words window=%.1f\n\n",
              n, kWindow);
  std::printf(
      " E[L] | direct dep | dir last-words | ind s=10 dep | ind s=10 "
      "last-words\n");
  std::printf(
      "------+------------+----------------+--------------+--------------"
      "----\n");

  for (const double lifetime : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    base.churn.mean_lifetime = lifetime;
    const Outcome d = run_direct(base, kWindow);
    const Outcome i10 = run_indirect(base, 10, kWindow);
    std::printf(" %4.0f | %10.3f | %14.3f | %12.3f | %18.3f\n", lifetime,
                d.departed, d.last_words, i10.departed, i10.last_words);
  }

  std::printf(
      "\nReading: departed recovery counts admitted reports only (a report\n"
      "refused at a full direct queue is overflow loss), so the direct\n"
      "column rises with lifetime as queues spend longer full. The *final*\n"
      "measurements before a departure — exactly the ones a postmortem\n"
      "needs — are mostly absent from the direct collector's FIFO queues\n"
      "once peers live long enough to fill them, while the indirect scheme\n"
      "keeps recovering them posthumously from gossiped coded copies.\n");
  return 0;
}
