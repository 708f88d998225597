/// \file flash_crowd.cpp
/// The Sec. 1 motivation, animated: a flash crowd multiplies the
/// vital-statistics load past the logging servers' bandwidth for a
/// bounded interval. The direct scheme's per-peer report queues overflow
/// and drop data; the indirect scheme spreads coded blocks across the
/// peer pool ("buffering zone") and the servers keep harvesting the
/// backlog after the burst passes ("smoothing factor").
///
///   ./flash_crowd [num_peers] [seed]

#include <cstdio>
#include <cstdlib>

#include "core/icollect.h"

int main(int argc, char** argv) {
  using namespace icollect;

  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 150;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  // Base load 2 blocks/peer/unit; a 10x flash crowd in [20, 26).
  const workload::FlashCrowdProfile profile{2.0, 10.0, 20.0, 26.0};
  const double kEnd = 60.0;

  p2p::ProtocolConfig cfg;
  cfg.num_peers = n;
  cfg.lambda = 2.0;  // base rate; the profile overrides the time-variation
  cfg.mu = 8.0;
  cfg.gamma = 0.5;  // mean TTL of 2 time units of decentralized buffering
  cfg.segment_size = 10;
  cfg.buffer_cap = 120;
  cfg.num_servers = 4;
  cfg.set_normalized_capacity(4.0);  // covers the average, not the peak
  cfg.fidelity = p2p::CollectionFidelity::kStateCounter;
  cfg.seed = seed;

  std::printf("== flash crowd: N=%zu, base lambda=2, burst 10x in [20,26), "
              "c=4 ==\n\n",
              n);

  p2p::Network indirect{cfg};
  indirect.set_arrival_profile(&profile);

  p2p::ProtocolConfig dcfg = cfg;
  dcfg.buffer_cap = 40;  // a realistic bounded report queue
  auto direct = p2p::Network::direct_baseline(dcfg);
  direct.set_arrival_profile(&profile);

  std::printf(
      " time | lambda | net blocks/peer | useful pulls/t | direct backlog "
      "| direct drops\n");
  std::printf(
      "------+--------+-----------------+----------------+----------------"
      "+-------------\n");
  std::uint64_t last_useful = 0;
  std::uint64_t last_drops = 0;
  for (double t = 4.0; t <= kEnd; t += 4.0) {
    indirect.run_until(t);
    direct.run_until(t);
    const std::uint64_t useful = indirect.servers().innovative_pulls();
    const std::uint64_t drops = direct.metrics().injection_blocked;
    std::printf(" %4.0f | %6.1f | %15.1f | %14.1f | %14zu | %12llu\n", t,
                profile.rate(t),
                indirect.metrics().total_blocks.value() /
                    static_cast<double>(n),
                static_cast<double>(useful - last_useful) / 4.0,
                static_cast<std::size_t>(direct.metrics().total_blocks.value()),
                static_cast<unsigned long long>(drops - last_drops));
    last_useful = useful;
    last_drops = drops;
  }

  const auto& im = indirect.metrics();
  const auto& dm = direct.metrics();
  const double ind_frac =
      static_cast<double>(indirect.servers().innovative_pulls()) /
      static_cast<double>(im.blocks_injected);
  const double dir_frac =
      static_cast<double>(direct.servers().innovative_pulls()) /
      static_cast<double>(direct.blocks_offered());

  std::printf("\n-- end of session (t=%.0f) --\n", kEnd);
  std::printf("indirect: injected %llu blocks, servers obtained %.1f%%\n",
              static_cast<unsigned long long>(im.blocks_injected),
              100.0 * ind_frac);
  std::printf("direct:   generated %llu blocks, collected %.1f%% "
              "(overflow-dropped %llu)\n",
              static_cast<unsigned long long>(direct.blocks_offered()),
              100.0 * dir_frac,
              static_cast<unsigned long long>(dm.injection_blocked));
  std::printf(
      "\nReading the timeline: the indirect network's per-peer buffer level\n"
      "swells (20 -> ~50) to absorb the 10x spike and the servers' useful-\n"
      "pull rate keeps climbing for ~15 time units *after* the burst — the\n"
      "\"delayed fashion\" delivery the paper designs for — while the direct\n"
      "queues overflow during the burst and everything dropped is gone at\n"
      "once. (On gross fractions the direct scheme still leads: its pulls\n"
      "are never redundant. See bench/ablation_baseline_vs_indirect for\n"
      "which *kind* of data each scheme loses — the indirect scheme keeps\n"
      "departing peers' freshest records, the baseline loses them.)\n");
  return 0;
}
