/// Pull-scheduling subsystem tests (src/sched/): RankTracker deficit
/// bookkeeping, suspension and staleness semantics, the bank-outcome
/// feed, the want rule and the documented RNG draw contracts of the
/// rarest-first and deficit-weighted policies,
/// and end-to-end pins — at fixed seeds the feedback policies must not
/// need more pulls than the uniform control, in both the event-driven
/// simulator and the live loopback cluster.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coding/coded_block.h"
#include "common/rng.h"
#include "net/transport.h"
#include "node/cluster.h"
#include "p2p/network.h"
#include "proto/pull_policy.h"
#include "proto/selection.h"
#include "proto/server_bank.h"
#include "sched/pull_policies.h"
#include "sched/rank_tracker.h"

namespace icollect {
namespace {

using coding::SegmentId;
using proto::PullPolicyKind;
using sched::RankTracker;
using sched::RankTrackerOptions;

constexpr SegmentId kA{1, 0};
constexpr SegmentId kB{2, 0};
constexpr SegmentId kC{2, 1};

// --- RankTracker deficit bookkeeping --------------------------------------

TEST(Sched, StateOpensAndUpdatesDeficits) {
  RankTracker t;
  EXPECT_EQ(t.open_count(), 0U);
  EXPECT_EQ(t.total_deficit(), 0U);

  t.on_state(kA, 1, 4);  // deficit 3
  t.on_state(kB, 3, 4);  // deficit 1
  EXPECT_EQ(t.open_count(), 2U);
  EXPECT_EQ(t.deficit(kA), 3U);
  EXPECT_EQ(t.deficit(kB), 1U);
  EXPECT_EQ(t.total_deficit(), 4U);

  t.on_state(kA, 2, 4);  // advance: deficit 2
  EXPECT_EQ(t.deficit(kA), 2U);
  EXPECT_EQ(t.total_deficit(), 3U);
}

TEST(Sched, FullStateCountsAsDecoded) {
  RankTracker t;
  t.on_state(kA, 2, 4);
  t.on_state(kA, 4, 4);  // collected == s
  EXPECT_EQ(t.open_count(), 0U);
  EXPECT_EQ(t.deficit(kA), 0U);
  EXPECT_EQ(t.total_deficit(), 0U);
}

// --- the bank-outcome feed -------------------------------------------------

/// A bank over a segment of s = 4 coefficient-only blocks, plus the
/// feed of one offered block into a tracker.
struct FeedRig {
  static constexpr std::size_t kS = 4;
  proto::ServerBank bank{/*keep_payloads=*/false};
  RankTracker tracker{RankTrackerOptions{.redundant_suspend_streak = 8}};

  proto::ServerBank::PullResult offer(const coding::CodedBlock& block,
                                      std::optional<std::uint64_t> puller) {
    const auto result = bank.offer(block, 0.0);
    sched::feed_outcome(tracker, bank, block.segment, kS, result, puller);
    return result;
  }
  static coding::CodedBlock unit(const SegmentId& id, std::size_t k) {
    return coding::CodedBlock::systematic(id, kS, k, {});
  }
};

TEST(Sched, DecodedSegmentNeverReenters) {
  FeedRig rig;
  for (std::size_t k = 0; k + 1 < FeedRig::kS; ++k) {
    rig.offer(FeedRig::unit(kA, k), 7);
  }
  EXPECT_EQ(rig.tracker.deficit(kA), 1U);
  // The decoding block takes the segment out of the open set.
  EXPECT_EQ(rig.offer(FeedRig::unit(kA, FeedRig::kS - 1), 7),
            proto::ServerBank::PullResult::kInnovative);
  EXPECT_EQ(rig.tracker.open_count(), 0U);
  // A late forwarded block and a late pulled one for the decoded
  // segment must not reopen it: the bank reports state s for good.
  rig.offer(FeedRig::unit(kA, 0), std::nullopt);
  rig.offer(FeedRig::unit(kA, 1), 7);
  EXPECT_EQ(rig.tracker.open_count(), 0U);
  EXPECT_EQ(rig.tracker.suspended_count(), 0U);
  EXPECT_EQ(rig.tracker.deficit(kA), 0U);
  EXPECT_EQ(rig.tracker.total_deficit(), 0U);
  EXPECT_FALSE(rig.tracker.is_exhausted(7, kA));
}

TEST(Sched, RedundantForwardedBlockMarksNoPeerExhausted) {
  FeedRig rig;
  rig.offer(FeedRig::unit(kA, 0), 7);
  // The same block again, forwarded by a sibling server: redundant, but
  // it says nothing about any peer's span and builds no streak.
  EXPECT_EQ(rig.offer(FeedRig::unit(kA, 0), std::nullopt),
            proto::ServerBank::PullResult::kRedundant);
  EXPECT_FALSE(rig.tracker.is_exhausted(7, kA));
  // Pulled from peer 7, it marks exactly that peer.
  EXPECT_EQ(rig.offer(FeedRig::unit(kA, 0), 7),
            proto::ServerBank::PullResult::kRedundant);
  EXPECT_TRUE(rig.tracker.is_exhausted(7, kA));
  EXPECT_FALSE(rig.tracker.is_exhausted(8, kA));
  EXPECT_EQ(rig.tracker.deficit(kA), 3U);
}

TEST(Sched, RedundantStreakSuspendsAndEvidenceReactivates) {
  RankTracker t{RankTrackerOptions{.redundant_suspend_streak = 2}};
  t.on_state(kA, 1, 4);
  t.on_redundant(kA);
  EXPECT_FALSE(t.is_suspended(kA));
  t.on_redundant(kA);
  EXPECT_TRUE(t.is_suspended(kA));
  EXPECT_EQ(t.open_count(), 0U);
  EXPECT_EQ(t.suspended_count(), 1U);
  // Suspended deficits leave the weighted total.
  EXPECT_EQ(t.total_deficit(), 0U);
  EXPECT_EQ(t.deficit(kA), 3U);  // still remembered

  // An innovative advance is fresh evidence: the segment reactivates
  // with its streak reset.
  t.on_state(kA, 2, 4);
  EXPECT_FALSE(t.is_suspended(kA));
  EXPECT_EQ(t.open_count(), 1U);
  EXPECT_EQ(t.total_deficit(), 2U);
  t.on_redundant(kA);
  EXPECT_FALSE(t.is_suspended(kA));  // streak restarted from zero
}

TEST(Sched, ReactivateAllIsTheEscapeHatch) {
  RankTracker t{RankTrackerOptions{.redundant_suspend_streak = 1}};
  t.on_state(kA, 1, 4);
  t.on_state(kB, 2, 4);
  t.on_redundant(kA);
  t.on_redundant(kB);
  EXPECT_EQ(t.open_count(), 0U);
  EXPECT_EQ(t.suspended_count(), 2U);
  t.reactivate_all();
  EXPECT_EQ(t.open_count(), 2U);
  EXPECT_EQ(t.suspended_count(), 0U);
  EXPECT_EQ(t.total_deficit(), 5U);
}

TEST(Sched, ExhaustionPerPeerClearsOnSuspensionCycle) {
  RankTracker t{RankTrackerOptions{.redundant_suspend_streak = 2}};
  t.on_state(kA, 1, 4);
  t.mark_exhausted(7, kA);
  EXPECT_TRUE(t.is_exhausted(7, kA));
  EXPECT_FALSE(t.is_exhausted(8, kA));
  EXPECT_FALSE(t.is_exhausted(7, kB));

  // Suspension and reactivation forget the exhaustion evidence: spans
  // drift while a segment is parked.
  t.on_redundant(kA);
  t.on_redundant(kA);
  ASSERT_TRUE(t.is_suspended(kA));
  t.reactivate_all();
  EXPECT_FALSE(t.is_exhausted(7, kA));
}

// --- per-peer availability (BUFFER_SUMMARY merges) ------------------------

TEST(Sched, SummaryMergeReplacesWholesale) {
  RankTracker t;
  const std::array<SegmentId, 2> first{kA, kB};
  t.merge_summary(5, first, 1.0);
  EXPECT_TRUE(t.peer_has(5, kA, 1.5));
  EXPECT_TRUE(t.peer_has(5, kB, 1.5));

  const std::array<SegmentId, 1> second{kC};
  t.merge_summary(5, second, 2.0);
  EXPECT_FALSE(t.peer_has(5, kA, 2.1));  // old report fully replaced
  EXPECT_TRUE(t.peer_has(5, kC, 2.1));
}

TEST(Sched, SummariesExpireAtTheStalenessBound) {
  RankTracker t{RankTrackerOptions{.staleness_bound = 1.0}};
  const std::array<SegmentId, 1> segs{kA};
  t.merge_summary(5, segs, 10.0);
  EXPECT_TRUE(t.peer_fresh(5, 10.5));
  EXPECT_TRUE(t.peer_has(5, kA, 11.0));   // exactly at the bound
  EXPECT_FALSE(t.peer_has(5, kA, 11.01));  // past it
  EXPECT_FALSE(t.peer_fresh(5, 11.01));
  EXPECT_FALSE(t.peer_fresh(6, 10.0));  // never reported
}

TEST(Sched, SummaryAdvertisingSuspendedSegmentReactivatesIt) {
  RankTracker t{RankTrackerOptions{.redundant_suspend_streak = 1}};
  t.on_state(kA, 1, 4);
  t.on_redundant(kA);
  ASSERT_TRUE(t.is_suspended(kA));
  const std::array<SegmentId, 1> segs{kA};
  t.merge_summary(5, segs, 1.0);
  EXPECT_FALSE(t.is_suspended(kA));
  EXPECT_EQ(t.open_count(), 1U);
}

TEST(Sched, ForgetPeerDropsItsReport) {
  RankTracker t;
  const std::array<SegmentId, 1> segs{kA};
  t.merge_summary(5, segs, 1.0);
  EXPECT_EQ(t.tracked_peers(), 1U);
  t.forget_peer(5);
  EXPECT_EQ(t.tracked_peers(), 0U);
  EXPECT_FALSE(t.peer_has(5, kA, 1.0));
}

TEST(Sched, AdvertiserIndexMatchesTheReports) {
  // Random merge/forget sequences against a model of the reports: after
  // every step, advertisers(id) is exactly the set of peers whose last
  // summary lists id, and the index holds no segment nobody lists.
  common::Rng gen{2024};
  constexpr std::uint64_t kPeers = 12;
  constexpr std::uint32_t kSegments = 9;
  const auto seg = [](std::uint32_t k) { return SegmentId{1 + k % 3, k}; };
  // Every report stays fresh, so peer_has() reads the same model.
  RankTracker t{RankTrackerOptions{.staleness_bound = 1e9}};
  std::map<std::uint64_t, std::set<std::uint32_t>> model;
  std::vector<SegmentId> summary;
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t peer = gen.uniform_index(kPeers);
    if (gen.uniform_index(5) == 0) {
      t.forget_peer(peer);
      model.erase(peer);
    } else {
      // Up to 8 ids drawn with replacement: duplicates are common.
      summary.clear();
      std::set<std::uint32_t>& listed = model[peer];
      listed.clear();
      const std::size_t n = gen.uniform_index(9);
      for (std::size_t i = 0; i < n; ++i) {
        const auto k = static_cast<std::uint32_t>(gen.uniform_index(kSegments));
        summary.push_back(seg(k));
        listed.insert(k);
      }
      t.merge_summary(peer, summary, static_cast<double>(step));
    }
    std::size_t advertised = 0;
    for (std::uint32_t k = 0; k < kSegments; ++k) {
      std::set<std::uint64_t> expected;
      for (const auto& [p, listed] : model) {
        if (listed.contains(k)) expected.insert(p);
      }
      const auto got = t.advertisers(seg(k));
      const std::set<std::uint64_t> got_set(got.begin(), got.end());
      ASSERT_EQ(got_set.size(), got.size()) << "duplicate advertiser";
      ASSERT_EQ(got_set, expected) << "step " << step << " segment " << k;
      for (std::uint64_t p = 0; p < kPeers; ++p) {
        ASSERT_EQ(t.peer_has(p, seg(k), static_cast<double>(step)),
                  expected.contains(p));
      }
      if (!expected.empty()) ++advertised;
    }
    ASSERT_EQ(t.advertised_segments(), advertised);
    ASSERT_EQ(t.tracked_peers(), model.size());
  }
  for (std::uint64_t p = 0; p < kPeers; ++p) t.forget_peer(p);
  EXPECT_EQ(t.tracked_peers(), 0U);
  EXPECT_EQ(t.advertised_segments(), 0U);
}

TEST(Sched, IndexedTargetChoiceMatchesTheRosterScan) {
  // The live server's target rule (sched::pick_advertiser, candidates
  // from the advertiser index) against the roster scan it replaced:
  // proto::uniform_over_eligible over eligible && peer_has &&
  // !is_exhausted. Same pick, same RNG state, on every trial.
  common::Rng gen{77};
  common::Rng rng_scan{5};
  common::Rng rng_index{5};
  constexpr int kProbes = 16;
  constexpr double kNow = 10.0;
  const SegmentId want{1, 0};
  const std::array<SegmentId, 4> others{SegmentId{1, 1}, SegmentId{2, 0},
                                        SegmentId{3, 7}, SegmentId{4, 2}};
  std::vector<std::size_t> scratch;
  std::size_t probe_hits = 0;
  std::size_t fallback_picks = 0;
  std::size_t no_target = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    const std::size_t n = gen.uniform_index(201);
    // Roster order is establishment order, not id order.
    std::vector<net::NodeId> roster(n);
    for (std::size_t i = 0; i < n; ++i) {
      roster[i] = static_cast<net::NodeId>(1000 + i);
    }
    for (std::size_t i = n; i > 1; --i) {
      std::swap(roster[i - 1], roster[gen.uniform_index(i)]);
    }
    std::unordered_map<std::uint64_t, std::size_t> pos;
    for (std::size_t i = 0; i < n; ++i) pos[roster[i]] = i;
    // Densities from sparse (the scan's fallback) to dense (probe hits).
    constexpr std::array<std::size_t, 3> kPercent{3, 40, 95};
    const std::size_t advertise = kPercent[gen.uniform_index(3)];
    const std::size_t eligible_pct = kPercent[gen.uniform_index(3)];
    RankTracker t{RankTrackerOptions{.staleness_bound = 1.0}};
    std::vector<std::uint8_t> eligible(n);
    std::vector<SegmentId> summary;
    for (std::size_t i = 0; i < n; ++i) {
      eligible[i] = gen.uniform_index(100) < eligible_pct ? 1 : 0;
      if (gen.uniform_index(100) >= advertise + 20) continue;  // no report
      summary.clear();
      if (gen.uniform_index(100) < advertise) summary.push_back(want);
      summary.push_back(others[gen.uniform_index(others.size())]);
      if (gen.uniform_index(4) == 0) summary.push_back(want);  // duplicate
      // A quarter of the reports are stale at kNow.
      const double at = gen.uniform_index(4) == 0 ? kNow - 2.0 : kNow - 0.5;
      t.merge_summary(roster[i], summary, at);
      if (gen.uniform_index(5) == 0) t.mark_exhausted(roster[i], want);
    }
    // Reports from sessions not on the roster (e.g. a server session).
    const std::array<SegmentId, 1> stray{want};
    t.merge_summary(1, stray, kNow);
    t.merge_summary(999999, stray, kNow);

    const auto pred = [&](std::size_t i) {
      return eligible[i] != 0 && t.peer_has(roster[i], want, kNow) &&
             !t.is_exhausted(roster[i], want);
    };
    bool probe_hit = false;
    common::Rng probe = rng_scan;
    for (int k = 0; k < kProbes && n > 0 && !probe_hit; ++k) {
      probe_hit = pred(probe.uniform_index(n));
    }
    const std::size_t scan = proto::uniform_over_eligible(
        rng_scan, n, kProbes, proto::EligibleRef{pred});
    const auto roster_index = [&](std::uint64_t peer) {
      const auto it = pos.find(peer);
      return it != pos.end() ? it->second : proto::kNoSelection;
    };
    const auto is_eligible = [&](std::size_t i) { return eligible[i] != 0; };
    const std::size_t indexed = sched::pick_advertiser(
        rng_index, t, want, kNow, n, kProbes, roster_index,
        proto::EligibleRef{is_eligible}, scratch);
    ASSERT_EQ(indexed, scan) << "trial " << trial << " roster " << n;
    ASSERT_EQ(rng_index.engine()(), rng_scan.engine()())
        << "draw sequences diverged at trial " << trial;
    if (scan == proto::kNoSelection) {
      ++no_target;
    } else if (probe_hit) {
      ++probe_hits;
    } else {
      ++fallback_picks;
    }
  }
  // Every branch of the draw contract was exercised.
  EXPECT_GT(no_target, 100U);
  EXPECT_GT(probe_hits, 100U);
  EXPECT_GT(fallback_picks, 100U);
}

// --- policy draw contracts ------------------------------------------------

TEST(PullPolicy, RarestPicksUniqueMinimumWithoutDrawing) {
  RankTracker t;
  t.on_state(kA, 1, 4);  // deficit 3
  t.on_state(kB, 3, 4);  // deficit 1 — the unique minimum
  sched::RarestFirstPullPolicy policy;
  common::Rng rng{11};
  common::Rng twin{11};
  const auto want = policy.want_segment(rng, t);
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(*want, kB);
  // No tie ⇒ no RNG draw: the stream must match an untouched twin.
  EXPECT_EQ(rng.uniform_index(1U << 20), twin.uniform_index(1U << 20));
}

TEST(PullPolicy, RarestBreaksTiesWithExactlyOneDraw) {
  RankTracker t;
  t.on_state(kA, 2, 4);  // deficit 2
  t.on_state(kB, 2, 4);  // deficit 2 — tied minimum
  t.on_state(kC, 1, 4);  // deficit 3
  sched::RarestFirstPullPolicy policy;
  common::Rng rng{11};
  common::Rng twin{11};
  const auto want = policy.want_segment(rng, t);
  ASSERT_TRUE(want.has_value());
  EXPECT_TRUE(*want == kA || *want == kB);
  // Exactly one uniform_index(ties) draw.
  (void)twin.uniform_index(2);
  EXPECT_EQ(rng.uniform_index(1U << 20), twin.uniform_index(1U << 20));
}

TEST(PullPolicy, RarestReturnsNulloptOnEmptyView) {
  RankTracker t;
  sched::RarestFirstPullPolicy policy;
  common::Rng rng{11};
  common::Rng twin{11};
  EXPECT_FALSE(policy.want_segment(rng, t).has_value());
  EXPECT_EQ(rng.uniform_index(1U << 20), twin.uniform_index(1U << 20));
}

TEST(PullPolicy, DeficitWeightedDrawsOnceAndSamplesProportionally) {
  RankTracker t;
  t.on_state(kA, 1, 4);  // deficit 3
  t.on_state(kB, 3, 4);  // deficit 1
  sched::DeficitWeightedPullPolicy policy;
  {
    common::Rng rng{11};
    common::Rng twin{11};
    ASSERT_TRUE(policy.want_segment(rng, t).has_value());
    (void)twin.uniform_index(4);  // exactly one draw over total_deficit
    EXPECT_EQ(rng.uniform_index(1U << 20), twin.uniform_index(1U << 20));
  }
  common::Rng rng{29};
  std::map<SegmentId, int> counts;
  const int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) ++counts[*policy.want_segment(rng, t)];
  // P(kA) = 3/4: a binomial(4000, .75) stays within ±4σ ≈ ±110 of 3000.
  EXPECT_NEAR(counts[kA], 3000, 150);
  EXPECT_EQ(counts[kA] + counts[kB], kTrials);
}

TEST(PullPolicy, PoliciesAreDeterministicUnderAFixedSeed) {
  RankTracker t;
  t.on_state(kA, 2, 4);
  t.on_state(kB, 2, 4);
  t.on_state(kC, 1, 4);
  for (const proto::PullPolicyKind kind :
       {proto::PullPolicyKind::kRarestFirst,
        proto::PullPolicyKind::kDeficitWeighted}) {
    common::Rng a{123};
    common::Rng b{123};
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(sched::next_want(kind, a, t), sched::next_want(kind, b, t));
    }
  }
}

TEST(PullPolicy, UniformKindsWantNothingAndDrawNothing) {
  RankTracker t;
  t.on_state(kA, 1, 4);
  for (const proto::PullPolicyKind kind :
       {proto::PullPolicyKind::kUniform, proto::PullPolicyKind::kUniformAll}) {
    common::Rng rng{11};
    common::Rng twin{11};
    EXPECT_FALSE(sched::next_want(kind, rng, t).has_value());
    EXPECT_EQ(rng.uniform_index(1U << 20), twin.uniform_index(1U << 20));
  }
}

TEST(PullPolicy, WantReactivatesSuspendedSegmentsOnceTheOpenSetDrains) {
  RankTracker t{RankTrackerOptions{.redundant_suspend_streak = 1}};
  t.on_state(kA, 1, 4);
  t.on_state(kB, 3, 4);
  t.on_redundant(kB);
  common::Rng rng{11};
  // kA is still open: kB stays parked.
  EXPECT_EQ(sched::next_want(PullPolicyKind::kRarestFirst, rng, t), kA);
  EXPECT_TRUE(t.is_suspended(kB));
  t.on_redundant(kA);
  ASSERT_EQ(t.open_count(), 0U);
  // The open set drained: both return and the rarest one is wanted.
  EXPECT_EQ(sched::next_want(PullPolicyKind::kRarestFirst, rng, t), kB);
  EXPECT_EQ(t.open_count(), 2U);
  EXPECT_EQ(t.suspended_count(), 0U);
}

TEST(PullPolicy, FactoryAndNameParsingRoundTrip) {
  EXPECT_EQ(proto::parse_pull_policy_kind("uniform"),
            PullPolicyKind::kUniform);
  EXPECT_EQ(proto::parse_pull_policy_kind("non-empty"),
            PullPolicyKind::kUniform);
  EXPECT_EQ(proto::parse_pull_policy_kind("uniform-all"),
            PullPolicyKind::kUniformAll);
  EXPECT_EQ(proto::parse_pull_policy_kind("all"),
            PullPolicyKind::kUniformAll);
  EXPECT_EQ(proto::parse_pull_policy_kind("rarest"),
            PullPolicyKind::kRarestFirst);
  EXPECT_EQ(proto::parse_pull_policy_kind("rarest-first"),
            PullPolicyKind::kRarestFirst);
  EXPECT_EQ(proto::parse_pull_policy_kind("deficit"),
            PullPolicyKind::kDeficitWeighted);
  EXPECT_EQ(proto::parse_pull_policy_kind("deficit-weighted"),
            PullPolicyKind::kDeficitWeighted);
  EXPECT_FALSE(proto::parse_pull_policy_kind("round-robin").has_value());
  EXPECT_FALSE(proto::parse_pull_policy_kind("").has_value());
  // Every kind's printed name parses back to it.
  for (const PullPolicyKind kind :
       {PullPolicyKind::kUniform, PullPolicyKind::kUniformAll,
        PullPolicyKind::kRarestFirst, PullPolicyKind::kDeficitWeighted}) {
    EXPECT_EQ(proto::parse_pull_policy_kind(proto::to_string(kind)), kind);
  }

  // Only the feedback kinds run the rank feedback loop.
  static_assert(!proto::wants_feedback(PullPolicyKind::kUniform));
  static_assert(!proto::wants_feedback(PullPolicyKind::kUniformAll));
  static_assert(proto::wants_feedback(PullPolicyKind::kRarestFirst));
  static_assert(proto::wants_feedback(PullPolicyKind::kDeficitWeighted));
}

// --- end-to-end pins: feedback beats uniform at fixed seeds ---------------

/// Simulator pulls-to-completion (the BENCH_pulls.json table-A protocol
/// in miniature): inject for a fixed window under the paper's
/// state-counter collection process, stop injection, drain until every
/// segment resolves, count pulls.
std::uint64_t sim_pulls_to_completion(proto::PullPolicyKind policy,
                                      std::uint64_t seed) {
  p2p::ProtocolConfig cfg;
  cfg.num_peers = 30;
  cfg.segment_size = 4;
  cfg.lambda = 8.0;
  cfg.mu = 8.0;
  cfg.gamma = 0.25;
  cfg.buffer_cap = 32;
  cfg.num_servers = 2;
  cfg.set_normalized_capacity(2.0);
  cfg.fidelity = p2p::CollectionFidelity::kStateCounter;
  cfg.pull_policy = policy;
  cfg.seed = seed;
  p2p::Network net{cfg};
  net.run_until(2.0);
  net.stop_injection();
  const auto all_resolved = [&] {
    for (const auto& [id, info] : net.segment_registry()) {
      if (!info.decoded && !info.lost) return false;
    }
    return true;
  };
  double t = 2.0;
  while (!all_resolved() && t < 300.0) {
    t += 0.25;
    net.run_until(t);
  }
  EXPECT_TRUE(all_resolved());
  return net.metrics().server_pull_attempts;
}

TEST(PullPolicy, SimulatorRarestNeedsNoMorePullsThanUniform) {
  std::uint64_t uniform = 0;
  std::uint64_t rarest = 0;
  std::uint64_t deficit = 0;
  for (const std::uint64_t seed : {101U, 202U, 303U}) {
    uniform += sim_pulls_to_completion(PullPolicyKind::kUniform, seed);
    rarest += sim_pulls_to_completion(PullPolicyKind::kRarestFirst, seed);
    deficit += sim_pulls_to_completion(PullPolicyKind::kDeficitWeighted, seed);
  }
  EXPECT_LE(rarest, uniform);
  EXPECT_LE(deficit, uniform);
}

/// Live-cluster pulls-to-completion: every peer injects a fixed budget
/// over the real wire protocol, run to completion, count pulls.
std::uint64_t cluster_pulls_to_completion(proto::PullPolicyKind policy,
                                          std::uint64_t seed) {
  node::ClusterConfig cfg;
  cfg.num_peers = 12;
  cfg.num_servers = 2;
  cfg.segment_size = 4;
  cfg.buffer_cap = 32;
  cfg.payload_bytes = 16;
  cfg.lambda = 6.0;
  cfg.mu = 6.0;
  cfg.gamma = 0.5;
  cfg.server_rate = 16.0;
  cfg.segments_per_peer = 3;
  cfg.retain_own_until_acked = true;
  cfg.pull_policy = policy;
  cfg.seed = seed;
  cfg.net.seed = seed;
  node::LoopbackCluster cluster{cfg};
  EXPECT_TRUE(cluster.run_to_completion(600.0));
  return cluster.pulls_sent();
}

TEST(PullPolicy, ClusterRarestNeedsNoMorePullsThanUniform) {
  std::uint64_t uniform = 0;
  std::uint64_t rarest = 0;
  std::uint64_t deficit = 0;
  for (const std::uint64_t seed : {11U, 22U, 33U}) {
    uniform +=
        cluster_pulls_to_completion(proto::PullPolicyKind::kUniform, seed);
    rarest += cluster_pulls_to_completion(
        proto::PullPolicyKind::kRarestFirst, seed);
    deficit += cluster_pulls_to_completion(
        proto::PullPolicyKind::kDeficitWeighted, seed);
  }
  EXPECT_LE(rarest, uniform);
  EXPECT_LE(deficit, uniform);
}

/// The BUFFER_SUMMARY feedback loop actually runs under the live
/// policies (and stays silent under uniform).
TEST(PullPolicy, ClusterFeedbackFlowsOnlyUnderSchedulingPolicies) {
  for (const proto::PullPolicyKind kind :
       {proto::PullPolicyKind::kUniform,
        proto::PullPolicyKind::kRarestFirst}) {
    node::ClusterConfig cfg;
    cfg.num_peers = 8;
    cfg.num_servers = 2;
    cfg.segment_size = 4;
    cfg.segments_per_peer = 2;
    cfg.payload_bytes = 16;
    cfg.retain_own_until_acked = true;
    cfg.pull_policy = kind;
    cfg.seed = 5;
    cfg.net.seed = 5;
    node::LoopbackCluster cluster{cfg};
    EXPECT_TRUE(cluster.run_to_completion(600.0));
    std::uint64_t summaries = 0;
    for (std::size_t i = 0; i < cfg.num_servers; ++i) {
      summaries += cluster.server(i).summaries_received();
    }
    if (kind == proto::PullPolicyKind::kUniform) {
      EXPECT_EQ(summaries, 0U);
      EXPECT_EQ(cluster.server(0).tracker(), nullptr);
    } else {
      EXPECT_GT(summaries, 0U);
      EXPECT_NE(cluster.server(0).tracker(), nullptr);
    }
  }
}

}  // namespace
}  // namespace icollect
