/// ServerBank tests: real-coding and state-counter collection paths.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "proto/server_bank.h"
#include "source_segment.h"

namespace icollect::proto {
namespace {

using fixtures::random_originals;
using fixtures::source_buffer;

TEST(ServerBank, RealCodingDecodesSegment) {
  common::Rng rng{81};
  const coding::SegmentId id{1, 0};
  const auto orig = random_originals(4, 8, rng);
  const auto src = source_buffer(id, orig);
  ServerBank bank{/*keep_payloads=*/true};
  std::size_t decodes = 0;
  bank.set_decode_callback([&](const ServerBank::DecodeEvent& ev) {
    ++decodes;
    EXPECT_EQ(ev.id, id);
    EXPECT_EQ(ev.segment_size, 4u);
    ASSERT_NE(ev.decoder, nullptr);
    EXPECT_TRUE(ev.decoder->complete());
    EXPECT_DOUBLE_EQ(ev.when, 3.5);
  });
  while (!bank.is_decoded(id)) {
    (void)bank.offer(src.recode(rng), 3.5);
  }
  EXPECT_EQ(decodes, 1u);
  EXPECT_EQ(bank.segments_decoded(), 1u);
  EXPECT_EQ(bank.original_blocks_recovered(), 4u);
  EXPECT_EQ(bank.state(id), 4u);
  ASSERT_NE(bank.originals(id), nullptr);
  EXPECT_EQ(*bank.originals(id), orig);
}

TEST(ServerBank, RedundantAfterDecode) {
  common::Rng rng{82};
  const coding::SegmentId id{1, 0};
  const auto src =
      source_buffer(id, random_originals(2, 4, rng));
  ServerBank bank;
  while (!bank.is_decoded(id)) (void)bank.offer(src.recode(rng), 0.0);
  const auto result = bank.offer(src.recode(rng), 1.0);
  EXPECT_EQ(result, ServerBank::PullResult::kAlreadyDecoded);
  EXPECT_GE(bank.redundant_pulls(), 1u);
}

TEST(ServerBank, DependentBlockIsRedundant) {
  common::Rng rng{83};
  const coding::SegmentId id{2, 0};
  const auto src =
      source_buffer(id, random_originals(5, 4, rng));
  ServerBank bank;
  const auto b = src.recode(rng);
  EXPECT_EQ(bank.offer(b, 0.0), ServerBank::PullResult::kInnovative);
  EXPECT_EQ(bank.offer(b, 0.0), ServerBank::PullResult::kRedundant);
  EXPECT_EQ(bank.state(id), 1u);
  EXPECT_EQ(bank.pulls(), 2u);
  EXPECT_EQ(bank.innovative_pulls(), 1u);
  EXPECT_EQ(bank.redundant_pulls(), 1u);
}

TEST(ServerBank, CounterModeAlwaysAdvancesUntilComplete) {
  const coding::SegmentId id{3, 0};
  ServerBank bank;
  std::size_t decodes = 0;
  bank.set_decode_callback([&](const ServerBank::DecodeEvent& ev) {
    ++decodes;
    EXPECT_EQ(ev.decoder, nullptr);  // no real decoder in counter mode
    EXPECT_EQ(ev.segment_size, 3u);
  });
  EXPECT_EQ(bank.offer_counted(id, 3, 0.1),
            ServerBank::PullResult::kInnovative);
  EXPECT_EQ(bank.state(id), 1u);
  EXPECT_EQ(bank.offer_counted(id, 3, 0.2),
            ServerBank::PullResult::kInnovative);
  EXPECT_EQ(bank.offer_counted(id, 3, 0.3),
            ServerBank::PullResult::kInnovative);
  EXPECT_TRUE(bank.is_decoded(id));
  EXPECT_EQ(decodes, 1u);
  EXPECT_EQ(bank.offer_counted(id, 3, 0.4),
            ServerBank::PullResult::kAlreadyDecoded);
  EXPECT_EQ(bank.state(id), 3u);
}

TEST(ServerBank, CounterModeSegmentSizeOneDecodesImmediately) {
  ServerBank bank;
  EXPECT_EQ(bank.offer_counted({4, 0}, 1, 0.0),
            ServerBank::PullResult::kInnovative);
  EXPECT_TRUE(bank.is_decoded({4, 0}));
  EXPECT_EQ(bank.original_blocks_recovered(), 1u);
}

TEST(ServerBank, TracksManySegmentsIndependently) {
  common::Rng rng{84};
  ServerBank bank;
  for (std::uint32_t k = 0; k < 10; ++k) {
    (void)bank.offer_counted({k, 0}, 5, 0.0);
  }
  EXPECT_EQ(bank.segments_in_progress(), 10u);
  for (std::uint32_t k = 0; k < 10; ++k) {
    EXPECT_EQ(bank.state({k, 0}), 1u);
  }
  EXPECT_EQ(bank.state({99, 0}), 0u);  // never seen
}

TEST(ServerBank, ForgetReleasesPartialDecoder) {
  common::Rng rng{86};
  const coding::SegmentId id{6, 0};
  const auto src =
      source_buffer(id, random_originals(4, 8, rng));
  ServerBank bank;
  ASSERT_EQ(bank.offer(src.recode(rng), 0.0),
            ServerBank::PullResult::kInnovative);
  ASSERT_EQ(bank.segments_in_progress(), 1u);
  ASSERT_EQ(bank.state(id), 1u);
  bank.forget(id);
  EXPECT_EQ(bank.segments_in_progress(), 0u);
  EXPECT_EQ(bank.state(id), 0u);
  EXPECT_FALSE(bank.is_decoded(id));
  EXPECT_EQ(bank.pulls(), 1u);  // lifetime counters are history, not state
  EXPECT_EQ(bank.innovative_pulls(), 1u);
}

TEST(ServerBank, ForgetReleasesStateCounter) {
  ServerBank bank;
  (void)bank.offer_counted({7, 0}, 5, 0.0);
  (void)bank.offer_counted({7, 0}, 5, 0.1);
  (void)bank.offer_counted({7, 1}, 5, 0.2);
  ASSERT_EQ(bank.segments_in_progress(), 2u);
  bank.forget({7, 0});
  EXPECT_EQ(bank.segments_in_progress(), 1u);
  EXPECT_EQ(bank.state({7, 0}), 0u);
  EXPECT_EQ(bank.state({7, 1}), 1u);
}

TEST(ServerBank, ForgetDecodedOrUnknownChangesNothing) {
  common::Rng rng{87};
  const coding::SegmentId id{8, 0};
  const auto orig = random_originals(3, 8, rng);
  const auto src = source_buffer(id, orig);
  ServerBank bank{/*keep_payloads=*/true};
  while (!bank.is_decoded(id)) (void)bank.offer(src.recode(rng), 0.0);
  (void)bank.offer_counted({9, 0}, 4, 0.0);
  const std::uint64_t pulls = bank.pulls();

  bank.forget(id);       // decoded
  bank.forget({99, 0});  // never seen
  EXPECT_TRUE(bank.is_decoded(id));
  EXPECT_EQ(bank.state(id), 3u);
  ASSERT_NE(bank.originals(id), nullptr);
  EXPECT_EQ(*bank.originals(id), orig);
  EXPECT_EQ(bank.segments_decoded(), 1u);
  EXPECT_EQ(bank.segments_in_progress(), 1u);
  EXPECT_EQ(bank.state({9, 0}), 1u);
  EXPECT_EQ(bank.pulls(), pulls);
}

TEST(ServerBank, DiscardPayloadsMode) {
  common::Rng rng{85};
  const coding::SegmentId id{5, 0};
  const auto src =
      source_buffer(id, random_originals(2, 4, rng));
  ServerBank bank{/*keep_payloads=*/false};
  while (!bank.is_decoded(id)) (void)bank.offer(src.recode(rng), 0.0);
  EXPECT_EQ(bank.originals(id), nullptr);
}

TEST(ServerBank, CounterModeZeroSizeViolatesContract) {
  ServerBank bank;
  EXPECT_THROW((void)bank.offer_counted({1, 1}, 0, 0.0),
               icollect::ContractViolation);
}

}  // namespace
}  // namespace icollect::proto
