/// PeerBuffer tests: capacity, segment organization, handle lifecycle,
/// and a randomized model check against a hash-map reference.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "proto/peer_buffer.h"

namespace icollect::proto {
namespace {

coding::CodedBlock block_of(coding::SegmentId id, std::size_t s,
                            common::Rng& rng) {
  coding::CodedBlock b;
  b.segment = id;
  b.coefficients.resize(s);
  do {
    rng.fill_gf(b.coefficients);
  } while (b.is_degenerate());
  return b;
}

TEST(PeerBuffer, StartsEmpty) {
  const PeerBuffer pb{10};
  EXPECT_TRUE(pb.empty());
  EXPECT_FALSE(pb.full());
  EXPECT_EQ(pb.size(), 0u);
  EXPECT_EQ(pb.segment_count(), 0u);
  EXPECT_TRUE(pb.has_room(10));
  EXPECT_FALSE(pb.has_room(11));
}

TEST(PeerBuffer, ZeroCapacityViolatesContract) {
  EXPECT_THROW((PeerBuffer{0}), icollect::ContractViolation);
}

TEST(PeerBuffer, InsertAndFindBySegment) {
  common::Rng rng{71};
  PeerBuffer pb{10};
  const coding::SegmentId s1{1, 0};
  const coding::SegmentId s2{2, 0};
  pb.insert(block_of(s1, 4, rng));
  pb.insert(block_of(s1, 4, rng));
  pb.insert(block_of(s2, 4, rng));
  EXPECT_EQ(pb.size(), 3u);
  EXPECT_EQ(pb.segment_count(), 2u);
  ASSERT_NE(pb.find(s1), nullptr);
  EXPECT_EQ(pb.find(s1)->block_count(), 2u);
  ASSERT_NE(pb.find(s2), nullptr);
  EXPECT_EQ(pb.find(s2)->block_count(), 1u);
  EXPECT_EQ(pb.find(coding::SegmentId{3, 0}), nullptr);
}

TEST(PeerBuffer, FullBufferRejectsInsert) {
  common::Rng rng{72};
  PeerBuffer pb{2};
  pb.insert(block_of({1, 0}, 2, rng));
  pb.insert(block_of({1, 0}, 2, rng));
  EXPECT_TRUE(pb.full());
  EXPECT_THROW(pb.insert(block_of({1, 0}, 2, rng)),
               icollect::ContractViolation);
}

TEST(PeerBuffer, HandlesNeverRepeat) {
  // Handle slots are recycled, serials are not: no handle is ever
  // issued twice, across erases and clears alike.
  common::Rng rng{73};
  PeerBuffer pb{4};
  std::set<coding::BlockHandle> seen;
  std::vector<coding::BlockHandle> live;
  for (int round = 0; round < 200; ++round) {
    while (pb.has_room(1)) {
      const auto h = pb.insert(
          block_of({static_cast<coding::OriginId>(round % 3), 0}, 2, rng));
      EXPECT_TRUE(seen.insert(h).second) << "handle " << h << " repeated";
      live.push_back(h);
    }
    if (round % 5 == 4) {
      pb.clear();
      live.clear();
    } else {
      ASSERT_TRUE(pb.erase(live.front()).has_value());
      live.erase(live.begin());
    }
  }
}

TEST(PeerBuffer, EraseReturnsSegmentAndPrunes) {
  common::Rng rng{74};
  PeerBuffer pb{10};
  const coding::SegmentId s1{1, 0};
  const auto h1 = pb.insert(block_of(s1, 4, rng));
  const auto h2 = pb.insert(block_of(s1, 4, rng));
  auto seg = pb.erase(h1);
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ(*seg, s1);
  EXPECT_EQ(pb.size(), 1u);
  EXPECT_EQ(pb.segment_count(), 1u);
  seg = pb.erase(h2);
  ASSERT_TRUE(seg.has_value());
  EXPECT_TRUE(pb.empty());
  EXPECT_EQ(pb.segment_count(), 0u);  // emptied segment entry dropped
  EXPECT_EQ(pb.find(s1), nullptr);
  EXPECT_FALSE(pb.erase(h2).has_value());  // stale handle
  // The freed slot goes to the next block; the old handle stays stale.
  const auto h3 = pb.insert(block_of(s1, 4, rng));
  EXPECT_NE(h3, h2);
  EXPECT_FALSE(pb.erase(h2).has_value());
  EXPECT_EQ(pb.size(), 1u);
  EXPECT_FALSE(pb.erase(coding::BlockHandle{0}).has_value());
}

TEST(PeerBuffer, RandomSegmentIsUniformOverSegments) {
  common::Rng rng{75};
  PeerBuffer pb{100};
  // Segment A holds 9 blocks, B holds 1 — selection must be uniform over
  // *segments* (paper: "chooses a segment r u.a.r. from among all the
  // segments of which it has at least one block"), not over blocks.
  const coding::SegmentId a{1, 0};
  const coding::SegmentId b{2, 0};
  for (std::size_t k = 0; k < 9; ++k) pb.insert(block_of(a, 4, rng));
  pb.insert(block_of(b, 4, rng));
  std::map<coding::SegmentId, int> hits;
  for (int t = 0; t < 4000; ++t) ++hits[pb.random_segment(rng)];
  EXPECT_NEAR(hits[a], 2000, 200);
  EXPECT_NEAR(hits[b], 2000, 200);
}

TEST(PeerBuffer, RandomSegmentOnEmptyViolatesContract) {
  common::Rng rng{76};
  const PeerBuffer pb{4};
  EXPECT_THROW((void)pb.random_segment(rng), icollect::ContractViolation);
}

TEST(PeerBuffer, ClearStalesEveryHandle) {
  common::Rng rng{77};
  PeerBuffer pb{10};
  const auto h1 = pb.insert(block_of({1, 0}, 2, rng));
  const auto h2 = pb.insert(block_of({2, 0}, 2, rng));
  EXPECT_EQ(pb.clear(), 2u);
  EXPECT_TRUE(pb.empty());
  EXPECT_EQ(pb.size(), 0u);
  EXPECT_TRUE(pb.segments().empty());
  EXPECT_FALSE(pb.erase(h1).has_value());
  EXPECT_FALSE(pb.erase(h2).has_value());
  // Refill: the recycled slots must not revive the pre-clear handles.
  pb.insert(block_of({1, 0}, 2, rng));
  pb.insert(block_of({2, 0}, 2, rng));
  EXPECT_FALSE(pb.erase(h1).has_value());
  EXPECT_FALSE(pb.erase(h2).has_value());
  EXPECT_EQ(pb.size(), 2u);
}

TEST(PeerBuffer, SegmentListTracksMembership) {
  common::Rng rng{78};
  PeerBuffer pb{10};
  std::vector<coding::BlockHandle> hs;
  for (std::uint32_t k = 0; k < 5; ++k) {
    hs.push_back(pb.insert(block_of({k, 0}, 2, rng)));
  }
  EXPECT_EQ(pb.segments().size(), 5u);
  // Remove the middle segment's only block: list shrinks by one.
  pb.erase(hs[2]);
  EXPECT_EQ(pb.segments().size(), 4u);
  for (const auto& id : pb.segments()) {
    EXPECT_NE(pb.find(id), nullptr);
  }
}

// --- model check ---------------------------------------------------------

/// The hash-map PeerBuffer this one replaced, kept as an oracle for the
/// order-sensitive semantics the simulator's RNG stream depends on:
/// segment list order (append on first block, swap-pop on last), block
/// order inside a segment, and the newest/oldest/rarest tie-breaks.
class MapBuffer {
 public:
  void insert(coding::BlockHandle handle, coding::CodedBlock block) {
    const coding::SegmentId id = block.segment;
    auto it = segments_.find(id);
    if (it == segments_.end()) {
      it = segments_
               .emplace(id, coding::SegmentBuffer{
                                id, block.coefficients.size()})
               .first;
      segment_pos_[id] = segment_list_.size();
      segment_list_.push_back(id);
      arrival_seq_[id] = next_arrival_seq_++;
    }
    it->second.add(handle, std::move(block));
    handle_index_[handle] = id;
    ++total_blocks_;
  }

  std::optional<coding::SegmentId> erase(coding::BlockHandle handle) {
    const auto hit = handle_index_.find(handle);
    if (hit == handle_index_.end()) return std::nullopt;
    const coding::SegmentId id = hit->second;
    handle_index_.erase(hit);
    auto sit = segments_.find(id);
    sit->second.remove(handle);
    --total_blocks_;
    if (sit->second.empty()) {
      segments_.erase(sit);
      const std::size_t pos = segment_pos_.at(id);
      const std::size_t last = segment_list_.size() - 1;
      if (pos != last) {
        segment_list_[pos] = segment_list_[last];
        segment_pos_[segment_list_[pos]] = pos;
      }
      segment_list_.pop_back();
      segment_pos_.erase(id);
      arrival_seq_.erase(id);
    }
    return id;
  }

  std::size_t clear() {
    const std::size_t lost = total_blocks_;
    segments_.clear();
    handle_index_.clear();
    segment_list_.clear();
    segment_pos_.clear();
    arrival_seq_.clear();
    total_blocks_ = 0;
    return lost;
  }

  [[nodiscard]] const coding::SegmentBuffer* find(
      const coding::SegmentId& id) const {
    const auto it = segments_.find(id);
    return it == segments_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const coding::SegmentId& newest_segment() const {
    const coding::SegmentId* best = nullptr;
    std::uint64_t best_seq = 0;
    for (const auto& id : segment_list_) {
      const std::uint64_t seq = arrival_seq_.at(id);
      if (best == nullptr || seq > best_seq) {
        best = &id;
        best_seq = seq;
      }
    }
    return *best;
  }

  [[nodiscard]] const coding::SegmentId& oldest_segment() const {
    const coding::SegmentId* best = nullptr;
    std::uint64_t best_seq = 0;
    for (const auto& id : segment_list_) {
      const std::uint64_t seq = arrival_seq_.at(id);
      if (best == nullptr || seq < best_seq) {
        best = &id;
        best_seq = seq;
      }
    }
    return *best;
  }

  [[nodiscard]] const coding::SegmentId& rarest_segment() const {
    const coding::SegmentId* best = nullptr;
    std::size_t best_count = 0;
    std::uint64_t best_seq = 0;
    for (const auto& id : segment_list_) {
      const std::size_t count = segments_.at(id).block_count();
      const std::uint64_t seq = arrival_seq_.at(id);
      if (best == nullptr || count < best_count ||
          (count == best_count && seq > best_seq)) {
        best = &id;
        best_count = count;
        best_seq = seq;
      }
    }
    return *best;
  }

  [[nodiscard]] const coding::SegmentId& random_segment(
      common::Rng& rng) const {
    return segment_list_[rng.uniform_index(segment_list_.size())];
  }

  [[nodiscard]] const std::vector<coding::SegmentId>& segments() const {
    return segment_list_;
  }
  [[nodiscard]] std::size_t size() const { return total_blocks_; }

 private:
  std::size_t total_blocks_ = 0;
  std::unordered_map<coding::SegmentId, coding::SegmentBuffer> segments_;
  std::unordered_map<coding::BlockHandle, coding::SegmentId> handle_index_;
  std::vector<coding::SegmentId> segment_list_;
  std::unordered_map<coding::SegmentId, std::size_t> segment_pos_;
  std::unordered_map<coding::SegmentId, std::uint64_t> arrival_seq_;
  std::uint64_t next_arrival_seq_ = 0;
};

std::vector<std::vector<std::uint8_t>> block_rows(
    const coding::SegmentBuffer& sb) {
  std::vector<std::vector<std::uint8_t>> rows;
  sb.for_each_block(
      [&rows](const coding::CodedBlock& b) { rows.push_back(b.coefficients); });
  return rows;
}

void expect_same_state(const PeerBuffer& pb, const MapBuffer& ref,
                       common::Rng& rng_pb, common::Rng& rng_ref) {
  ASSERT_EQ(pb.size(), ref.size());
  ASSERT_EQ(pb.segments(), ref.segments());
  for (const auto& id : ref.segments()) {
    ASSERT_NE(pb.find(id), nullptr);
    EXPECT_EQ(block_rows(*pb.find(id)), block_rows(*ref.find(id)));
  }
  if (ref.size() == 0) return;
  EXPECT_EQ(pb.newest_segment(), ref.newest_segment());
  EXPECT_EQ(pb.oldest_segment(), ref.oldest_segment());
  EXPECT_EQ(pb.rarest_segment(), ref.rarest_segment());
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(pb.random_segment(rng_pb), ref.random_segment(rng_ref));
  }
}

TEST(PeerBuffer, MatchesMapReferenceUnderRandomOps) {
  constexpr std::size_t kCap = 24;
  constexpr std::size_t kS = 3;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    common::Rng ops{seed};
    common::Rng rng_pb{seed * 1000};
    common::Rng rng_ref{seed * 1000};
    PeerBuffer pb{kCap};
    MapBuffer ref;
    // Live blocks as (buffer handle, reference handle) pairs, plus the
    // buffer handles that have gone stale.
    std::vector<std::pair<coding::BlockHandle, coding::BlockHandle>> live;
    std::vector<coding::BlockHandle> stale;
    std::set<coding::BlockHandle> issued;
    coding::BlockHandle next_ref = 1;
    for (int step = 0; step < 3000; ++step) {
      const double u = ops.uniform();
      if (u < 0.55 && pb.has_room(1)) {
        // Few segment ids, so first arrivals, re-arrivals and swap-pops
        // all recur.
        const coding::SegmentId id{
            static_cast<coding::OriginId>(ops.uniform_index(10)), 0};
        const coding::CodedBlock b = block_of(id, kS, ops);
        const coding::BlockHandle h = pb.insert(b);
        ASSERT_TRUE(issued.insert(h).second) << "handle repeated";
        ref.insert(next_ref, b);
        live.emplace_back(h, next_ref++);
      } else if (u < 0.95 && !live.empty()) {
        const std::size_t k = ops.uniform_index(live.size());
        const auto [h, rh] = live[k];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        const auto got = pb.erase(h);
        ASSERT_EQ(got, ref.erase(rh));
        ASSERT_TRUE(got.has_value());
        stale.push_back(h);
      } else if (u < 0.98 && !stale.empty()) {
        const coding::BlockHandle h = stale[ops.uniform_index(stale.size())];
        const std::size_t before = pb.size();
        EXPECT_FALSE(pb.erase(h).has_value());
        EXPECT_EQ(pb.size(), before);
      } else {
        EXPECT_EQ(pb.clear(), ref.clear());
        for (const auto& [h, rh] : live) stale.push_back(h);
        live.clear();
      }
      expect_same_state(pb, ref, rng_pb, rng_ref);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace icollect::proto
