/// Integration tests of the indirect-collection engine: conservation
/// laws, protocol invariants, fidelity modes, churn, topologies,
/// determinism, and agreement with Theorem 1.

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "ode/closed_form.h"
#include "p2p/network.h"

namespace icollect::p2p {
namespace {

ProtocolConfig small_config() {
  ProtocolConfig cfg;
  cfg.num_peers = 60;
  cfg.lambda = 10.0;
  cfg.segment_size = 5;
  cfg.mu = 6.0;
  cfg.gamma = 1.0;
  cfg.buffer_cap = 60;
  cfg.num_servers = 3;
  cfg.set_normalized_capacity(3.0);
  cfg.seed = 7;
  return cfg;
}

/// Recompute per-segment degrees straight from the peer buffers and check
/// the registry agrees; also verify buffer caps and occupancy counters.
void check_structural_invariants(const Network& net) {
  const auto& cfg = net.config();
  std::unordered_map<coding::SegmentId, std::size_t> degrees;
  std::size_t total_blocks = 0;
  for (std::size_t slot = 0; slot < cfg.num_peers; ++slot) {
    const Peer& p = net.peer(slot);
    ASSERT_LE(p.buffer().size(), cfg.buffer_cap);
    total_blocks += p.buffer().size();
    for (const auto& seg : p.buffer().segments()) {
      const auto* sb = p.buffer().find(seg);
      ASSERT_NE(sb, nullptr);
      ASSERT_GT(sb->block_count(), 0u);
      ASSERT_LE(sb->rank(), sb->segment_size());
      degrees[seg] += sb->block_count();
    }
  }
  const auto& registry = net.segment_registry();
  std::size_t registry_live = 0;
  for (const auto& [id, info] : registry) {
    if (info.degree > 0) {
      ++registry_live;
      const auto it = degrees.find(id);
      ASSERT_NE(it, degrees.end()) << id.to_string();
      ASSERT_EQ(info.degree, it->second) << id.to_string();
    } else {
      ASSERT_FALSE(degrees.contains(id)) << id.to_string();
    }
  }
  ASSERT_EQ(registry_live, degrees.size());
  ASSERT_EQ(registry_live, net.live_segment_count());
  // Instantaneous TimeWeighted value mirrors the true block count.
  ASSERT_DOUBLE_EQ(net.metrics().total_blocks.value(),
                   static_cast<double>(total_blocks));
}

/// Every injected block is eventually accounted for exactly once.
void check_block_conservation(const Network& net) {
  const auto& m = net.metrics();
  std::size_t in_network = 0;
  for (std::size_t slot = 0; slot < net.config().num_peers; ++slot) {
    in_network += net.peer(slot).buffer().size();
  }
  const std::uint64_t created = m.blocks_injected + m.gossip_sent;
  const std::uint64_t gone = m.ttl_expirations + m.blocks_lost_to_churn;
  EXPECT_EQ(created, gone + in_network);
}

TEST(PeerStruct, IdentityFields) {
  common::Rng rng{1};
  proto::PeerCore::Params params;
  params.segment_size = 4;
  params.buffer_cap = 16;
  const Peer p{3, params, 42, rng};
  EXPECT_EQ(p.slot, 3u);
  EXPECT_EQ(p.origin(), 42u);
  EXPECT_EQ(p.incarnation, 0u);
  EXPECT_EQ(p.buffer().capacity(), 16u);
}

TEST(Network, StructuralInvariantsAfterRun) {
  Network net{small_config()};
  net.run_until(10.0);
  check_structural_invariants(net);
  check_block_conservation(net);
}

TEST(Network, InvariantsHoldUnderChurn) {
  ProtocolConfig cfg = small_config();
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 2.0;
  Network net{cfg};
  net.run_until(12.0);
  check_structural_invariants(net);
  check_block_conservation(net);
  EXPECT_GT(net.metrics().peers_departed, 0u);
  EXPECT_GT(net.metrics().blocks_lost_to_churn, 0u);
}

TEST(Network, DirectBaselineKeepsStructuralInvariants) {
  // Decode ACKs drop the origin's pinned report: the registry degree,
  // occupancy and total_blocks must follow, through the real decoder.
  ProtocolConfig cfg = small_config();
  cfg.buffer_cap = 8;
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 2.0;
  auto net = Network::direct_baseline(cfg);
  net.run_until(12.0);
  check_structural_invariants(net);
  EXPECT_GT(net.servers().segments_decoded(), 0u);
  EXPECT_GT(net.metrics().injection_blocked, 0u);
  EXPECT_GT(net.metrics().blocks_lost_to_churn, 0u);
  EXPECT_EQ(net.metrics().ttl_expirations, 0u);  // pinned until the ACK
}

TEST(Network, InvariantsHoldOnSparseTopology) {
  ProtocolConfig cfg = small_config();
  cfg.topology = TopologyKind::kErdosRenyi;
  cfg.mean_degree = 8;
  Network net{cfg};
  net.run_until(10.0);
  check_structural_invariants(net);
  check_block_conservation(net);
  EXPECT_GT(net.metrics().gossip_sent, 0u);
}

TEST(Network, CounterFidelityRuns) {
  ProtocolConfig cfg = small_config();
  cfg.fidelity = CollectionFidelity::kStateCounter;
  Network net{cfg};
  net.warm_up(6.0);
  net.run_until(20.0);
  check_structural_invariants(net);
  EXPECT_GT(net.servers().segments_decoded(), 0u);
  EXPECT_GT(net.throughput(), 0.0);
}

TEST(Network, MeanOccupancyMatchesTheoremOne) {
  // Theorem 1: ρ = (1 − z̃_0)μ/γ + λ/γ, independent of s.
  ProtocolConfig cfg = small_config();
  cfg.num_peers = 120;
  cfg.seed = 19;
  Network net{cfg};
  net.warm_up(12.0);
  net.run_until(net.now() + 25.0);
  const double rho_theory =
      ode::closed_form::rho(cfg.lambda, cfg.mu, cfg.gamma);
  EXPECT_NEAR(net.mean_blocks_per_peer(), rho_theory, 0.06 * rho_theory);
  const double overhead_bound = cfg.mu / cfg.gamma;
  EXPECT_LT(net.storage_overhead(), overhead_bound * 1.05);
}

TEST(Network, EmptyPeerFractionMatchesClosedForm) {
  ProtocolConfig cfg = small_config();
  cfg.lambda = 1.0;  // sparse regime where z0 is substantial
  cfg.mu = 1.0;
  cfg.segment_size = 1;
  cfg.num_peers = 150;
  cfg.set_normalized_capacity(0.5);
  cfg.seed = 23;
  Network net{cfg};
  net.warm_up(15.0);
  net.run_until(net.now() + 40.0);
  const double z0_theory =
      ode::closed_form::steady_z0(cfg.lambda, cfg.mu, cfg.gamma);
  EXPECT_NEAR(net.empty_peer_fraction(), z0_theory, 0.05);
}

TEST(Network, ThroughputBoundedByCapacityAndDemand) {
  ProtocolConfig cfg = small_config();
  cfg.fidelity = CollectionFidelity::kStateCounter;
  Network net{cfg};
  net.warm_up(8.0);
  net.run_until(net.now() + 25.0);
  const double c = cfg.normalized_capacity();
  // Session throughput can exceed neither server capacity nor demand.
  EXPECT_LE(net.throughput(),
            c * static_cast<double>(cfg.num_peers) * 1.05);
  EXPECT_LE(net.normalized_throughput(), 1.0);
  EXPECT_GE(net.normalized_throughput(), 0.0);
  EXPECT_LE(net.goodput(), net.throughput() * 1.05);
}

TEST(Network, PayloadsSurviveEndToEnd) {
  ProtocolConfig cfg = small_config();
  cfg.payload_bytes = 32;
  cfg.segment_size = 4;
  cfg.set_normalized_capacity(8.0);  // ample capacity → many decodes
  Network net{cfg};
  net.run_until(15.0);
  EXPECT_GT(net.servers().segments_decoded(), 0u);
  EXPECT_EQ(net.metrics().payload_crc_failures, 0u);
}

TEST(Network, DeterministicGivenSeed) {
  const ProtocolConfig cfg = small_config();
  Network a{cfg};
  Network b{cfg};
  a.run_until(8.0);
  b.run_until(8.0);
  EXPECT_EQ(a.metrics().segments_injected, b.metrics().segments_injected);
  EXPECT_EQ(a.metrics().gossip_sent, b.metrics().gossip_sent);
  EXPECT_EQ(a.metrics().ttl_expirations, b.metrics().ttl_expirations);
  EXPECT_EQ(a.servers().pulls(), b.servers().pulls());
  EXPECT_EQ(a.servers().segments_decoded(), b.servers().segments_decoded());
}

TEST(Network, DifferentSeedsDiverge) {
  ProtocolConfig cfg = small_config();
  Network a{cfg};
  cfg.seed = 8888;
  Network b{cfg};
  a.run_until(8.0);
  b.run_until(8.0);
  EXPECT_NE(a.metrics().gossip_sent, b.metrics().gossip_sent);
}

TEST(Network, StopInjectionWithoutGossipDrainsByTtl) {
  // With gossip off, every block has one Exp(γ) life and the network
  // empties once injection ends.
  ProtocolConfig cfg = small_config();
  cfg.mu = 0.0;
  cfg.set_normalized_capacity(2.0);
  Network net{cfg};
  net.run_until(6.0);
  net.stop_injection();
  const auto injected = net.metrics().segments_injected;
  net.run_until(30.0);
  EXPECT_EQ(net.metrics().segments_injected, injected);
  EXPECT_EQ(net.live_segment_count(), 0u);
  for (std::size_t slot = 0; slot < cfg.num_peers; ++slot) {
    EXPECT_TRUE(net.peer(slot).buffer().empty());
  }
}

TEST(Network, BufferedDataPersistsForDelayedDelivery) {
  // The Theorem 4 property: when the reporting streams end, gossip keeps
  // replicating the surviving segments (replication at μ outruns the TTL
  // at γ), so the servers continue to collect *after* injection stops —
  // the "delayed fashion" delivery the paper is built around.
  ProtocolConfig cfg = small_config();
  cfg.fidelity = CollectionFidelity::kStateCounter;
  cfg.set_normalized_capacity(1.0);  // scarce: backlog builds up
  Network net{cfg};
  net.run_until(8.0);
  net.stop_injection();
  const auto decoded_at_stop = net.servers().segments_decoded();
  net.run_until(20.0);
  EXPECT_GT(net.live_segment_count(), 0u);  // data still buffered
  EXPECT_GT(net.servers().segments_decoded(), decoded_at_stop)
      << "servers must keep harvesting the buffered backlog";
}

TEST(Network, SavedDataCensusConsistency) {
  ProtocolConfig cfg = small_config();
  Network net{cfg};
  net.run_until(8.0);
  const SavedDataCensus census = net.saved_data_census();
  EXPECT_LE(census.decodable_by_rank, census.decodable_by_degree);
  EXPECT_LE(census.undecoded_live_segments, census.live_segments);
  EXPECT_LE(census.decodable_by_degree, census.undecoded_live_segments);
  EXPECT_DOUBLE_EQ(
      census.saved_original_blocks_degree,
      static_cast<double>(census.decodable_by_degree * cfg.segment_size));
  EXPECT_EQ(census.live_segments, net.live_segment_count());
  EXPECT_GE(census.pending_innovative_blocks, 0.0);
}

TEST(Network, DegreeDistributionIsPoissonShaped) {
  ProtocolConfig cfg = small_config();
  cfg.num_peers = 200;
  cfg.seed = 99;
  Network net{cfg};
  net.run_until(20.0);
  const auto counts = net.peer_degree_counts(cfg.buffer_cap);
  std::size_t total = 0;
  double mean = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    total += counts[i];
    mean += static_cast<double>(i) * static_cast<double>(counts[i]);
  }
  EXPECT_EQ(total, cfg.num_peers);
  mean /= static_cast<double>(cfg.num_peers);
  const double rho_theory =
      ode::closed_form::rho(cfg.lambda, cfg.mu, cfg.gamma);
  EXPECT_NEAR(mean, rho_theory, 0.2 * rho_theory);  // instantaneous snapshot
}

TEST(Network, InjectionBlockedWhenBufferTight) {
  ProtocolConfig cfg = small_config();
  cfg.buffer_cap = cfg.segment_size;  // room for exactly one segment
  Network net{cfg};
  net.run_until(10.0);
  EXPECT_GT(net.metrics().injection_blocked, 0u);
  check_structural_invariants(net);
}

TEST(Network, GossipSkipsWhenNoEligibleTarget) {
  // Tiny population where everyone quickly holds what everyone else has.
  ProtocolConfig cfg = small_config();
  cfg.num_peers = 2;
  cfg.lambda = 1.0;
  cfg.segment_size = 1;
  cfg.mu = 50.0;  // hammer gossip so ineligible targets occur
  cfg.buffer_cap = 4;
  Network net{cfg};
  net.run_until(20.0);
  EXPECT_GT(net.metrics().gossip_no_target +
                net.metrics().gossip_idle,
            0u);
  check_structural_invariants(net);
}

/// Replay adversary under churn, with integrity tags: each dishonest
/// occupant caches one block and keeps re-emitting it, so a cached
/// segment can outlive its last honest copy until the occupant departs.
ProtocolConfig replay_config() {
  ProtocolConfig cfg = small_config();
  cfg.num_peers = 40;
  cfg.segment_size = 4;
  cfg.buffer_cap = 24;
  cfg.gamma = 2.0;
  cfg.payload_bytes = 16;
  cfg.adversary.dishonest_fraction = 0.3;
  cfg.adversary.strategy = proto::CorruptionStrategy::kReplay;
  cfg.adversary.integrity_checks = 2;
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 5.0;
  return cfg;
}

TEST(Network, ReplayPinKeepsDecoderAndTagsUntilItsSlotDeparts) {
  Network net{replay_config()};
  ASSERT_GT(net.dishonest_count(), 0u);
  const proto::IntegrityAuthority& tags = *net.integrity();
  // Segments with no live copy but a replay pin at the last checkpoint,
  // with their server state then.
  std::unordered_map<coding::SegmentId, std::size_t> pinned_dead;
  std::size_t released = 0;
  std::size_t kept_decoders = 0;
  std::uint64_t departed = 0;
  for (double t = 0.05; t <= 20.0; t += 0.05) {
    net.run_until(t);
    const bool someone_departed = net.metrics().peers_departed > departed;
    departed = net.metrics().peers_departed;
    std::unordered_map<coding::SegmentId, std::size_t> now_pinned_dead;
    for (const auto& [id, info] : net.segment_registry()) {
      const auto pit = pinned_dead.find(id);
      if (info.resolved) {
        ASSERT_EQ(info.degree, 0u) << id.to_string();
        ASSERT_EQ(info.replay_pins, 0u) << id.to_string();
        ASSERT_FALSE(tags.known(id)) << id.to_string();
        if (!info.decoded) {
          ASSERT_EQ(net.servers().state(id), 0u);
        }
        if (pit != pinned_dead.end()) {
          // Only a departure empties a replay cache.
          ASSERT_TRUE(someone_departed) << id.to_string();
          ++released;
        }
      } else if (info.degree == 0) {
        ASSERT_GT(info.replay_pins, 0u) << id.to_string();
        ASSERT_TRUE(tags.known(id)) << id.to_string();
        const std::size_t state = net.servers().state(id);
        if (pit != pinned_dead.end()) {
          ASSERT_GE(state, pit->second) << id.to_string();
          if (state > 0 && !info.decoded) ++kept_decoders;
        }
        now_pinned_dead.emplace(id, state);
      }
    }
    pinned_dead = std::move(now_pinned_dead);
  }
  EXPECT_GT(released, 0u);
  EXPECT_GT(kept_decoders, 0u);
  EXPECT_GT(net.metrics().segments_resolved, 0u);
  check_structural_invariants(net);
}

TEST(Network, ReplayPinSurvivesRegistryCompaction) {
  Network net{replay_config()};
  net.run_until(10.0);
  std::unordered_set<coding::SegmentId> pinned;
  for (const auto& [id, info] : net.segment_registry()) {
    if (info.replay_pins > 0) pinned.insert(id);
  }
  ASSERT_FALSE(pinned.empty());
  EXPECT_GT(net.compact_registry(), 0u);
  for (const auto& id : pinned) {
    EXPECT_TRUE(net.segment_registry().contains(id)) << id.to_string();
  }
  // Replays of the pinned segments keep landing and must find them.
  EXPECT_NO_THROW(net.run_until(20.0));
  check_structural_invariants(net);
}

TEST(Network, InvalidConfigRejected) {
  ProtocolConfig cfg = small_config();
  cfg.buffer_cap = 2;
  cfg.segment_size = 5;  // B < s
  EXPECT_THROW((Network{cfg}), std::invalid_argument);
}

}  // namespace
}  // namespace icollect::p2p
