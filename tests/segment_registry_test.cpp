/// SegmentRegistry: dense (origin, seq) storage of the simulator's
/// per-segment bookkeeping — lookup, (origin, seq) iteration order, and
/// erasure that no lookup, iteration or count sees.

#include "p2p/segment_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/assert.h"

namespace icollect::p2p {
namespace {

using coding::SegmentId;

SegmentInfo info_at(double injected_at) {
  SegmentInfo info;
  info.injected_at = injected_at;
  return info;
}

std::vector<SegmentId> ids_of(const SegmentRegistry& reg) {
  std::vector<SegmentId> out;
  for (const auto& [id, info] : reg) out.push_back(id);
  return out;
}

TEST(SegmentRegistry, StartsEmpty) {
  const SegmentRegistry reg;
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.begin(), reg.end());
  EXPECT_EQ(reg.find(SegmentId{0, 0}), reg.end());
  EXPECT_FALSE(reg.contains(SegmentId{3, 7}));
}

TEST(SegmentRegistry, IteratesInOriginSeqOrder) {
  SegmentRegistry reg;
  // Registration interleaves origins, and origin 1 never injects.
  reg.emplace({2, 0}, info_at(0.1));
  reg.emplace({0, 0}, info_at(0.2));
  reg.emplace({2, 1}, info_at(0.3));
  reg.emplace({0, 1}, info_at(0.4));
  reg.emplace({3, 0}, info_at(0.5));
  EXPECT_EQ(reg.size(), 5u);
  const std::vector<SegmentId> want{{0, 0}, {0, 1}, {2, 0}, {2, 1}, {3, 0}};
  EXPECT_EQ(ids_of(reg), want);
  const auto it = reg.find({2, 1});
  ASSERT_NE(it, reg.end());
  EXPECT_EQ(it->first, (SegmentId{2, 1}));
  EXPECT_DOUBLE_EQ(it->second.injected_at, 0.3);
  EXPECT_EQ(reg.find({1, 0}), reg.end());  // origin without segments
  EXPECT_EQ(reg.find({2, 2}), reg.end());  // seq not yet registered
  EXPECT_EQ(reg.find({9, 0}), reg.end());  // origin beyond the table
}

TEST(SegmentRegistry, SeqsRegisterInOrder) {
  SegmentRegistry reg;
  reg.emplace({0, 0}, {});
  EXPECT_THROW(reg.emplace({0, 2}, {}), ContractViolation);
  EXPECT_THROW(reg.emplace({0, 0}, {}), ContractViolation);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(SegmentRegistry, ErasedEntriesAreNotFoundIteratedOrCounted) {
  SegmentRegistry reg;
  for (std::uint32_t seq = 0; seq < 6; ++seq) {
    reg.emplace({0, seq}, info_at(seq));
    reg.emplace({1, seq}, info_at(10.0 + seq));
  }
  // Erase from the middle of origin 0 and the front of origin 1.
  const std::size_t erased =
      reg.erase_if([](const SegmentId& id, const SegmentInfo& /*info*/) {
        return (id.origin == 0 && (id.seq == 2 || id.seq == 3)) ||
               (id.origin == 1 && id.seq < 4);
      });
  EXPECT_EQ(erased, 6u);
  EXPECT_EQ(reg.size(), 6u);
  const std::vector<SegmentId> want{{0, 0}, {0, 1}, {0, 4},
                                    {0, 5}, {1, 4}, {1, 5}};
  EXPECT_EQ(ids_of(reg), want);
  for (const SegmentId gone : {SegmentId{0, 2}, SegmentId{0, 3},
                               SegmentId{1, 0}, SegmentId{1, 3}}) {
    EXPECT_FALSE(reg.contains(gone)) << gone.to_string();
    EXPECT_EQ(reg.find(gone), reg.end()) << gone.to_string();
    EXPECT_EQ(reg.get(gone), nullptr) << gone.to_string();
  }
  EXPECT_DOUBLE_EQ(reg.find({1, 4})->second.injected_at, 14.0);
  // Registration carries on after the trimmed front.
  reg.emplace({1, 6}, info_at(16.0));
  EXPECT_TRUE(reg.contains({1, 6}));
  EXPECT_EQ(reg.size(), 7u);
  // A second pass finds nothing more to erase.
  EXPECT_EQ(reg.erase_if([](const SegmentId&, const SegmentInfo& info) {
              return info.injected_at < 0.0;
            }),
            0u);
}

TEST(SegmentRegistry, EmptiedRowTakesNewSeqs) {
  SegmentRegistry reg;
  reg.emplace({0, 0}, {});
  reg.emplace({0, 1}, {});
  EXPECT_EQ(reg.erase_if([](const SegmentId&, const SegmentInfo&) {
              return true;
            }),
            2u);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.begin(), reg.end());
  reg.emplace({0, 2}, info_at(2.0));
  EXPECT_EQ(ids_of(reg), (std::vector<SegmentId>{{0, 2}}));
}

}  // namespace
}  // namespace icollect::p2p
