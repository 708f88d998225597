/// Unit tests for the extracted protocol core (src/proto/): the peer
/// and server state machines of Sec. 2 exercised directly — no event
/// queue, no transport — through the same typed inputs both drivers
/// feed them. Every test suite here is named ProtoCore.* so the asan
/// and tsan presets pick the whole file up via their test filters.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/clock.h"
#include "proto/peer_core.h"
#include "proto/selection.h"
#include "proto/server_bank.h"
#include "proto/server_core.h"

namespace icollect::proto {
namespace {

/// A PeerCore plus the minimal driver scaffolding every test needs: an
/// arm_ttl sink that records (handle, delay) pairs instead of arming
/// real timers.
struct TestPeer {
  common::Rng rng;
  PeerCore core;
  std::vector<std::pair<coding::BlockHandle, double>> armed;

  explicit TestPeer(const PeerCore::Params& params,
                    coding::OriginId origin = 1, std::uint64_t seed = 42)
      : rng{seed}, core{params, origin, rng} {
    core.set_arm_ttl([this](coding::BlockHandle h, double delay) {
      armed.emplace_back(h, delay);
    });
  }
};

PeerCore::Params small_params() {
  PeerCore::Params p;
  p.segment_size = 3;
  p.buffer_cap = 9;
  p.gamma = 1.0;
  return p;
}

coding::CodedBlock foreign_block(coding::SegmentId id, std::size_t s,
                                 common::Rng& rng) {
  coding::CodedBlock b;
  b.segment = id;
  b.coefficients.resize(s);
  do {
    rng.fill_gf(b.coefficients);
  } while (b.is_degenerate());
  return b;
}

TEST(ProtoCore, InjectSeedsSystematicBlocksAndArmsTtls) {
  TestPeer t{small_params()};
  ASSERT_TRUE(t.core.can_inject());
  const coding::SegmentId expected = t.core.next_segment_id();
  const auto injected = t.core.inject();
  EXPECT_EQ(injected.id, expected);
  EXPECT_TRUE(injected.crcs.empty());  // payload_bytes == 0
  EXPECT_EQ(t.core.buffer().size(), 3u);
  EXPECT_EQ(t.core.buffer().segment_count(), 1u);
  EXPECT_TRUE(t.core.is_own(injected.id));
  // One Exp(γ) lifetime armed per systematic block, all positive.
  ASSERT_EQ(t.armed.size(), 3u);
  for (const auto& [handle, delay] : t.armed) EXPECT_GT(delay, 0.0);
  // The seeded segment is immediately at full local rank.
  const coding::SegmentBuffer* sb = t.core.buffer().find(injected.id);
  ASSERT_NE(sb, nullptr);
  EXPECT_TRUE(sb->full_rank());
}

TEST(ProtoCore, CanInjectRequiresRoomForWholeSegment) {
  auto params = small_params();
  params.buffer_cap = 5;  // room for one segment (3) but not two
  TestPeer t{params};
  EXPECT_TRUE(t.core.can_inject());
  (void)t.core.inject();
  EXPECT_FALSE(t.core.can_inject());  // 2 free slots < s = 3
}

TEST(ProtoCore, SequentialInjectionsGetDistinctIds) {
  TestPeer t{small_params()};
  const auto a = t.core.inject();
  const auto b = t.core.inject();
  EXPECT_EQ(a.id.origin, b.id.origin);
  EXPECT_NE(a.id, b.id);
}

TEST(ProtoCore, AcceptStoresForeignBlock) {
  TestPeer t{small_params()};
  auto block = foreign_block({7, 0}, 3, t.rng);
  EXPECT_EQ(t.core.accept(std::move(block)),
            PeerCore::AcceptResult::kStored);
  EXPECT_EQ(t.core.buffer().size(), 1u);
  EXPECT_EQ(t.armed.size(), 1u);
}

TEST(ProtoCore, AcceptRejectsShapeMismatchAndDegenerate) {
  TestPeer t{small_params()};
  // Wrong segment size.
  auto wrong = foreign_block({7, 0}, 4, t.rng);
  EXPECT_EQ(t.core.accept(std::move(wrong)),
            PeerCore::AcceptResult::kShapeMismatch);
  // All-zero coefficient vector.
  coding::CodedBlock degenerate;
  degenerate.segment = {7, 1};
  degenerate.coefficients.assign(3, 0);
  EXPECT_EQ(t.core.accept(std::move(degenerate)),
            PeerCore::AcceptResult::kShapeMismatch);
  EXPECT_TRUE(t.core.buffer().empty());
}

TEST(ProtoCore, AcceptRejectsWhenBufferFull) {
  auto params = small_params();
  params.buffer_cap = 3;
  TestPeer t{params};
  (void)t.core.inject();  // fills the buffer exactly
  EXPECT_TRUE(t.core.buffer().full());
  auto block = foreign_block({7, 0}, 3, t.rng);
  EXPECT_EQ(t.core.accept(std::move(block)),
            PeerCore::AcceptResult::kBufferFull);
  EXPECT_FALSE(t.core.can_accept({7, 0}));
}

TEST(ProtoCore, AcceptRejectsFullRankSegment) {
  TestPeer t{small_params()};
  const auto injected = t.core.inject();  // own segment at rank s
  auto block = foreign_block(injected.id, 3, t.rng);
  EXPECT_EQ(t.core.accept(std::move(block)),
            PeerCore::AcceptResult::kSegmentFullRank);
  EXPECT_FALSE(t.core.can_accept(injected.id));
  // A different segment is still welcome.
  EXPECT_TRUE(t.core.can_accept({7, 0}));
}

TEST(ProtoCore, DropOnAckRefusesAckedSegmentBlocks) {
  auto params = small_params();
  params.drop_on_ack = true;
  TestPeer t{params};
  auto first = foreign_block({7, 0}, 3, t.rng);
  EXPECT_EQ(t.core.accept(std::move(first)),
            PeerCore::AcceptResult::kStored);
  EXPECT_EQ(t.core.on_ack({7, 0}), PeerCore::AckResult::kOtherSegment);
  // The ACK evicted the buffered block...
  EXPECT_TRUE(t.core.buffer().empty());
  // ...and later arrivals of the segment are refused outright.
  auto late = foreign_block({7, 0}, 3, t.rng);
  EXPECT_EQ(t.core.accept(std::move(late)),
            PeerCore::AcceptResult::kAckedSegment);
}

TEST(ProtoCore, AckResultsDistinguishOwnDuplicateOther) {
  TestPeer t{small_params()};
  const auto injected = t.core.inject();
  EXPECT_EQ(t.core.on_ack(injected.id), PeerCore::AckResult::kOwnSegment);
  EXPECT_EQ(t.core.on_ack(injected.id), PeerCore::AckResult::kDuplicate);
  EXPECT_EQ(t.core.on_ack({99, 0}), PeerCore::AckResult::kOtherSegment);
  EXPECT_TRUE(t.core.is_acked(injected.id));
}

TEST(ProtoCore, TtlExpiryRemovesBlockOnceAndGoesStale) {
  TestPeer t{small_params()};
  const auto injected = t.core.inject();
  ASSERT_EQ(t.armed.size(), 3u);
  const coding::BlockHandle h = t.armed.front().first;
  const auto seg = t.core.on_ttl_expired(h);
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ(*seg, injected.id);
  EXPECT_EQ(t.core.buffer().size(), 2u);
  // The same handle firing again (stale timer) is a no-op.
  EXPECT_FALSE(t.core.on_ttl_expired(h).has_value());
  EXPECT_EQ(t.core.buffer().size(), 2u);
}

TEST(ProtoCore, RetainedSegmentIsPinnedUntilAckedThenAges) {
  auto params = small_params();
  params.retain_own_until_acked = true;
  TestPeer t{params};
  const auto injected = t.core.inject();
  // Pinned: the s systematic blocks carry no TTL and hold rank s, so
  // the segment refuses relayed copies of itself.
  EXPECT_TRUE(t.armed.empty());
  EXPECT_EQ(t.core.retained_segments(), 1u);
  const coding::SegmentBuffer* sb = t.core.buffer().find(injected.id);
  ASSERT_NE(sb, nullptr);
  EXPECT_TRUE(sb->full_rank());
  EXPECT_EQ(t.core.accept(foreign_block(injected.id, 3, t.rng)),
            PeerCore::AcceptResult::kSegmentFullRank);

  // The first own ACK releases the pin: one TTL per block, and a
  // duplicate ACK arms nothing more.
  EXPECT_EQ(t.core.on_ack(injected.id), PeerCore::AckResult::kOwnSegment);
  EXPECT_EQ(t.armed.size(), 3u);
  EXPECT_EQ(t.core.retained_segments(), 0u);
  EXPECT_EQ(t.core.on_ack(injected.id), PeerCore::AckResult::kDuplicate);
  EXPECT_EQ(t.armed.size(), 3u);

  // Once those TTLs fire the segment is gone.
  for (const auto& [handle, delay] : t.armed) {
    EXPECT_GT(delay, 0.0);
    EXPECT_EQ(t.core.on_ttl_expired(handle), injected.id);
  }
  EXPECT_EQ(t.core.buffer().find(injected.id), nullptr);
  EXPECT_TRUE(t.core.buffer().empty());

  // Without retention the same inject arms its s TTLs at once.
  TestPeer plain{small_params()};
  (void)plain.core.inject();
  EXPECT_EQ(plain.armed.size(), 3u);
  EXPECT_EQ(plain.core.retained_segments(), 0u);
}

TEST(ProtoCore, RecodeStaysInsideTheSegment) {
  TestPeer t{small_params()};
  const auto injected = t.core.inject();
  const coding::CodedBlock b = t.core.recode(injected.id);
  EXPECT_EQ(b.segment, injected.id);
  EXPECT_EQ(b.segment_size(), 3u);
  EXPECT_FALSE(b.is_degenerate());
  // recode_into produces the same shape without reallocating semantics.
  coding::CodedBlock out;
  t.core.recode_into(injected.id, out);
  EXPECT_EQ(out.segment, injected.id);
  EXPECT_EQ(out.segment_size(), 3u);
  EXPECT_FALSE(out.is_degenerate());
}

TEST(ProtoCore, AnswerPullEmptyBufferReturnsFalse) {
  TestPeer t{small_params()};
  coding::CodedBlock out;
  EXPECT_FALSE(t.core.answer_pull(out));
  (void)t.core.inject();
  EXPECT_TRUE(t.core.answer_pull(out));
  EXPECT_EQ(out.segment_size(), 3u);
}

TEST(ProtoCore, ForeignAcksAreRememberedOnlyUnderDropOnAck) {
  TestPeer plain{small_params()};
  EXPECT_EQ(plain.core.on_ack({99, 0}), PeerCore::AckResult::kOtherSegment);
  EXPECT_EQ(plain.core.on_ack({99, 0}), PeerCore::AckResult::kOtherSegment);
  EXPECT_FALSE(plain.core.is_acked({99, 0}));
  EXPECT_EQ(plain.core.acked_count(), 0U);

  auto params = small_params();
  params.drop_on_ack = true;
  TestPeer dropping{params};
  EXPECT_EQ(dropping.core.on_ack({99, 0}),
            PeerCore::AckResult::kOtherSegment);
  EXPECT_EQ(dropping.core.on_ack({99, 0}), PeerCore::AckResult::kDuplicate);
  EXPECT_EQ(dropping.core.acked_count(), 1U);
}

TEST(ProtoCore, RebirthResetsIdentityAndHistory) {
  TestPeer t{small_params()};
  const auto injected = t.core.inject();
  (void)t.core.on_ack(injected.id);
  EXPECT_EQ(t.core.clear_all(), 3u);
  t.core.rebirth(77);
  EXPECT_EQ(t.core.origin(), 77u);
  EXPECT_FALSE(t.core.is_own(injected.id));
  EXPECT_FALSE(t.core.is_acked(injected.id));
  EXPECT_EQ(t.core.next_segment_id(), (coding::SegmentId{77, 0}));
}

/// A core with 16-byte payloads whose egress rule is `strategy`.
PeerCore::Params egress_params(CorruptionStrategy strategy, bool byzantine,
                               std::size_t segment_size = 3) {
  auto p = small_params();
  p.segment_size = segment_size;
  p.buffer_cap = 3 * segment_size;
  p.payload_bytes = 16;
  p.byzantine = byzantine;
  p.corruption = strategy;
  return p;
}

/// A genuine egress block: a recode of a freshly injected segment.
coding::CodedBlock genuine_block(TestPeer& t) {
  return t.core.recode(t.core.inject().id);
}

void expect_same_block(const coding::CodedBlock& a,
                       const coding::CodedBlock& b) {
  EXPECT_EQ(a.segment, b.segment);
  EXPECT_EQ(a.coefficients, b.coefficients);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(ProtoCore, EgressRandomPayloadScramblesOnlyThePayload) {
  TestPeer t{egress_params(CorruptionStrategy::kRandomPayload, true)};
  coding::CodedBlock block = genuine_block(t);
  const coding::CodedBlock genuine = block;
  EXPECT_EQ(t.core.corrupt_egress(block), PeerCore::EgressResult::kCorrupted);
  EXPECT_EQ(block.segment, genuine.segment);
  EXPECT_EQ(block.coefficients, genuine.coefficients);
  EXPECT_EQ(block.payload.size(), genuine.payload.size());
  EXPECT_NE(block.payload, genuine.payload);
  EXPECT_EQ(t.core.replay_block(), nullptr);
}

TEST(ProtoCore, EgressGarbageCoefficientsKeepPayloadAndStayNonDegenerate) {
  // s = 1, so 1 in 256 draws is all-zero and exercises the repair.
  TestPeer t{egress_params(CorruptionStrategy::kGarbageCoefficients, true,
                           /*segment_size=*/1)};
  const coding::CodedBlock genuine = genuine_block(t);
  int changed = 0;
  for (int i = 0; i < 2048; ++i) {
    coding::CodedBlock block = genuine;
    ASSERT_EQ(t.core.corrupt_egress(block),
              PeerCore::EgressResult::kCorrupted);
    EXPECT_EQ(block.segment, genuine.segment);
    EXPECT_EQ(block.payload, genuine.payload);
    ASSERT_EQ(block.coefficients.size(), 1U);
    EXPECT_FALSE(block.is_degenerate());
    if (block.coefficients != genuine.coefficients) ++changed;
  }
  EXPECT_GT(changed, 1900);
}

TEST(ProtoCore, EgressReplayResendsFirstGenuineBlockUntilRebirth) {
  TestPeer t{egress_params(CorruptionStrategy::kReplay, true)};
  coding::CodedBlock first = genuine_block(t);
  const coding::CodedBlock genuine = first;
  EXPECT_EQ(t.core.corrupt_egress(first),
            PeerCore::EgressResult::kReplayCached);
  expect_same_block(first, genuine);  // the cached block goes out as is
  ASSERT_NE(t.core.replay_block(), nullptr);

  coding::CodedBlock later = genuine_block(t);  // another segment
  ASSERT_NE(later.segment, genuine.segment);
  EXPECT_EQ(t.core.corrupt_egress(later), PeerCore::EgressResult::kCorrupted);
  expect_same_block(later, genuine);

  (void)t.core.clear_all();
  t.core.rebirth(9);
  EXPECT_EQ(t.core.replay_block(), nullptr);
  coding::CodedBlock fresh = genuine_block(t);
  EXPECT_EQ(fresh.segment.origin, 9U);
  EXPECT_EQ(t.core.corrupt_egress(fresh),
            PeerCore::EgressResult::kReplayCached);
  expect_same_block(*t.core.replay_block(), fresh);
}

TEST(ProtoCore, HonestEgressLeavesBlockAloneAndDrawsNothing) {
  for (const auto strategy : {CorruptionStrategy::kRandomPayload,
                              CorruptionStrategy::kGarbageCoefficients,
                              CorruptionStrategy::kReplay}) {
    SCOPED_TRACE(to_string(strategy));
    TestPeer honest{egress_params(strategy, false)};
    TestPeer twin{egress_params(strategy, false)};
    coding::CodedBlock block = genuine_block(honest);
    const coding::CodedBlock twin_block = genuine_block(twin);
    EXPECT_EQ(honest.core.corrupt_egress(block),
              PeerCore::EgressResult::kHonest);
    expect_same_block(block, twin_block);
    EXPECT_EQ(honest.core.replay_block(), nullptr);
    EXPECT_EQ(honest.rng.uniform(), twin.rng.uniform());
  }
}

TEST(ProtoCore, PayloadInjectionRecordsCrcs) {
  auto params = small_params();
  params.payload_bytes = 16;
  params.record_own_crcs = true;
  TestPeer t{params};
  const auto injected = t.core.inject();
  ASSERT_EQ(injected.crcs.size(), 3u);
  const auto* crcs = t.core.original_crcs(injected.id);
  ASSERT_NE(crcs, nullptr);
  EXPECT_EQ(*crcs, injected.crcs);
}

TEST(ProtoCore, PayloadSourceOverridesGeneratedBytes) {
  auto params = small_params();
  params.payload_bytes = 4;
  TestPeer t{params};
  t.core.set_payload_source([](const coding::SegmentId&, std::size_t s,
                               std::size_t bytes) {
    std::vector<std::vector<std::uint8_t>> blocks(s);
    for (std::size_t k = 0; k < s; ++k) {
      blocks[k].assign(bytes, static_cast<std::uint8_t>(k + 1));
    }
    return blocks;
  });
  const auto injected = t.core.inject();
  ASSERT_EQ(injected.crcs.size(), 3u);
  // Identical payloads across runs → identical CRCs: the source, not
  // the RNG stream, determined the bytes.
  TestPeer u{params, /*origin=*/1, /*seed=*/999};
  u.core.set_payload_source([](const coding::SegmentId&, std::size_t s,
                               std::size_t bytes) {
    std::vector<std::vector<std::uint8_t>> blocks(s);
    for (std::size_t k = 0; k < s; ++k) {
      blocks[k].assign(bytes, static_cast<std::uint8_t>(k + 1));
    }
    return blocks;
  });
  EXPECT_EQ(u.core.inject().crcs, injected.crcs);
}

TEST(ProtoCore, StoredHookSeesPreInsertOccupancy) {
  TestPeer t{small_params()};
  std::vector<std::size_t> before_counts;
  t.core.set_stored_hook(
      [&](const coding::SegmentId&, std::size_t blocks_before) {
        before_counts.push_back(blocks_before);
      });
  (void)t.core.inject();
  EXPECT_EQ(before_counts, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ProtoCore, ServerCoreDecodesAndForwardsInnovativeOnly) {
  double now = 5.0;
  const obs::CallbackClock clock{[&now] { return now; }};
  ServerCore server{/*keep_payloads=*/false, clock};
  std::vector<ServerBank::DecodeEvent> decodes;
  server.set_decode_callback(
      [&](const ServerBank::DecodeEvent& ev) { decodes.push_back(ev); });

  // Feed the three systematic blocks of one segment.
  const coding::SegmentId id{3, 0};
  for (std::size_t k = 0; k < 3; ++k) {
    const auto result =
        server.on_pull_block(coding::CodedBlock::systematic(id, 3, k, {}));
    EXPECT_EQ(result, ServerBank::PullResult::kInnovative);
    EXPECT_TRUE(ServerCore::should_forward(result));
    now += 1.0;
  }
  ASSERT_EQ(decodes.size(), 1u);
  EXPECT_EQ(decodes.front().id, id);
  EXPECT_EQ(decodes.front().when, 7.0);  // clock at the completing offer
  EXPECT_TRUE(server.bank().is_decoded(id));

  // Once decoded, further pulls of the segment are waste, not forwarded.
  const auto stale =
      server.on_pull_block(coding::CodedBlock::systematic(id, 3, 0, {}));
  EXPECT_EQ(stale, ServerBank::PullResult::kAlreadyDecoded);
  EXPECT_FALSE(ServerCore::should_forward(stale));
}

TEST(ProtoCore, ServerCoreCountedModeAdvancesStatePerPull) {
  double now = 0.0;
  const obs::CallbackClock clock{[&now] { return now; }};
  ServerCore server{/*keep_payloads=*/false, clock};
  const coding::SegmentId id{4, 0};
  EXPECT_EQ(server.on_pull_counted(id, 2),
            ServerBank::PullResult::kInnovative);
  EXPECT_EQ(server.bank().state(id), 1u);
  EXPECT_EQ(server.on_pull_counted(id, 2),
            ServerBank::PullResult::kInnovative);
  EXPECT_TRUE(server.bank().is_decoded(id));
  EXPECT_EQ(server.on_pull_counted(id, 2),
            ServerBank::PullResult::kAlreadyDecoded);
}

TEST(ProtoCore, UniformOverEligibleHonorsPredicate) {
  common::Rng rng{7};
  const auto even_only = [](std::size_t i) { return i % 2 == 0; };
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t pick =
        uniform_over_eligible(rng, 10, 4, EligibleRef{even_only});
    ASSERT_NE(pick, kNoSelection);
    EXPECT_EQ(pick % 2, 0u);
  }
  // No eligible candidate → kNoSelection, even through the scan.
  const auto none = [](std::size_t) { return false; };
  EXPECT_EQ(uniform_over_eligible(rng, 10, 4, EligibleRef{none}),
            kNoSelection);
  // Empty candidate set short-circuits before any draw.
  common::Rng untouched{11};
  const auto all = [](std::size_t) { return true; };
  EXPECT_EQ(uniform_over_eligible(untouched, 0, 4, EligibleRef{all}),
            kNoSelection);
}

}  // namespace
}  // namespace icollect::proto
