/// Gossip segment-selection policy tests: PeerBuffer selection helpers
/// and end-to-end policy behavior.

#include <gtest/gtest.h>

#include "p2p/network.h"
#include "proto/peer_buffer.h"

namespace icollect::p2p {
namespace {

using proto::PeerBuffer;

coding::CodedBlock block_of(coding::SegmentId id, std::size_t s,
                            sim::Rng& rng) {
  coding::CodedBlock b;
  b.segment = id;
  b.coefficients.resize(s);
  do {
    rng.fill_gf(b.coefficients);
  } while (b.is_degenerate());
  return b;
}

TEST(GossipSelection, NewestTracksFirstArrivalOrder) {
  sim::Rng rng{61};
  PeerBuffer pb{20, 2};
  pb.insert(block_of({1, 0}, 2, rng));
  pb.insert(block_of({2, 0}, 2, rng));
  EXPECT_EQ(pb.newest_segment(), (coding::SegmentId{2, 0}));
  // More blocks of an *old* segment do not make it newest.
  pb.insert(block_of({1, 0}, 2, rng));
  EXPECT_EQ(pb.newest_segment(), (coding::SegmentId{2, 0}));
  pb.insert(block_of({3, 0}, 2, rng));
  EXPECT_EQ(pb.newest_segment(), (coding::SegmentId{3, 0}));
}

TEST(GossipSelection, NewestRecomputedAfterEviction) {
  sim::Rng rng{62};
  PeerBuffer pb{20, 2};
  pb.insert(block_of({1, 0}, 2, rng));
  const auto h2 = pb.insert(block_of({2, 0}, 2, rng));
  pb.erase(h2);  // the newest segment vanishes
  EXPECT_EQ(pb.newest_segment(), (coding::SegmentId{1, 0}));
}

TEST(GossipSelection, ReinsertionRefreshesArrival) {
  sim::Rng rng{63};
  PeerBuffer pb{20, 2};
  const auto h1 = pb.insert(block_of({1, 0}, 2, rng));
  pb.insert(block_of({2, 0}, 2, rng));
  pb.erase(h1);  // segment 1 fully leaves...
  pb.insert(block_of({1, 0}, 2, rng));  // ...and arrives anew
  EXPECT_EQ(pb.newest_segment(), (coding::SegmentId{1, 0}));
}

TEST(GossipSelection, RarestPicksFewestBlocks) {
  sim::Rng rng{64};
  PeerBuffer pb{20, 4};
  pb.insert(block_of({1, 0}, 4, rng));
  pb.insert(block_of({1, 0}, 4, rng));
  pb.insert(block_of({1, 0}, 4, rng));
  const auto h4 = pb.insert(block_of({2, 0}, 4, rng));
  const auto h5 = pb.insert(block_of({2, 0}, 4, rng));
  pb.insert(block_of({3, 0}, 4, rng));
  EXPECT_EQ(pb.rarest_segment(), (coding::SegmentId{3, 0}));
  pb.erase(h5);
  pb.erase(h4);  // segment 2 gone; 3 still rarest (1 block vs 3)
  EXPECT_EQ(pb.rarest_segment(), (coding::SegmentId{3, 0}));
}

TEST(GossipSelection, RarestTieBrokenByRecency) {
  sim::Rng rng{65};
  PeerBuffer pb{20, 4};
  pb.insert(block_of({1, 0}, 4, rng));
  pb.insert(block_of({2, 0}, 4, rng));  // both have one block
  EXPECT_EQ(pb.rarest_segment(), (coding::SegmentId{2, 0}));
}

TEST(GossipSelection, EmptyBufferViolatesContract) {
  PeerBuffer pb{4, 2};
  EXPECT_THROW((void)pb.newest_segment(), ContractViolation);
  EXPECT_THROW((void)pb.rarest_segment(), ContractViolation);
}

TEST(GossipPolicyEndToEnd, AllPoliciesKeepInvariants) {
  for (const auto policy :
       {GossipPolicy::kUniformSegment, GossipPolicy::kNewestFirst,
        GossipPolicy::kRarestFirst}) {
    ProtocolConfig cfg;
    cfg.num_peers = 50;
    cfg.lambda = 10.0;
    cfg.segment_size = 5;
    cfg.mu = 8.0;
    cfg.gamma = 1.0;
    cfg.buffer_cap = 60;
    cfg.num_servers = 2;
    cfg.set_normalized_capacity(3.0);
    cfg.fidelity = CollectionFidelity::kStateCounter;
    cfg.gossip_policy = policy;
    cfg.seed = 31;
    Network net{cfg};
    net.run_until(10.0);
    const auto& m = net.metrics();
    std::size_t in_network = 0;
    for (std::size_t slot = 0; slot < cfg.num_peers; ++slot) {
      in_network += net.peer(slot).buffer().size();
    }
    EXPECT_EQ(m.blocks_injected + m.gossip_sent,
              m.ttl_expirations + m.blocks_lost_to_churn + in_network)
        << to_string(policy);
    EXPECT_GT(m.gossip_sent, 0u) << to_string(policy);
  }
}

TEST(GossipPolicyEndToEnd, NewestFirstImprovesLastWordsUnderChurn) {
  ProtocolConfig cfg;
  cfg.num_peers = 100;
  cfg.lambda = 20.0;
  cfg.segment_size = 10;
  cfg.mu = 10.0;
  cfg.gamma = 1.0;
  cfg.buffer_cap = 120;
  cfg.num_servers = 4;
  cfg.set_normalized_capacity(5.0);
  cfg.fidelity = CollectionFidelity::kStateCounter;
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 4.0;
  cfg.seed = 77;

  cfg.gossip_policy = GossipPolicy::kUniformSegment;
  Network uniform{cfg};
  uniform.run_until(30.0);

  cfg.gossip_policy = GossipPolicy::kNewestFirst;
  Network newest{cfg};
  newest.run_until(30.0);

  EXPECT_GT(newest.last_words_stats(1.0).recovery_fraction(),
            uniform.last_words_stats(1.0).recovery_fraction() * 1.3);
  // And steady throughput must not collapse.
  EXPECT_GT(newest.normalized_throughput(),
            uniform.normalized_throughput() * 0.8);
}

}  // namespace
}  // namespace icollect::p2p
