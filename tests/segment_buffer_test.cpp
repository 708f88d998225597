/// SegmentBuffer: per-peer per-segment storage, rank tracking, recoding.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "coding/decoder.h"
#include "coding/segment_buffer.h"
#include "gf/gf_vector.h"
#include "sim/random.h"
#include "source_segment.h"

namespace icollect::coding {
namespace {

using fixtures::random_originals;
using fixtures::source_buffer;

TEST(SegmentBuffer, StartsEmpty) {
  const SegmentBuffer sb{SegmentId{1, 2}, 4};
  EXPECT_TRUE(sb.empty());
  EXPECT_EQ(sb.block_count(), 0u);
  EXPECT_EQ(sb.rank(), 0u);
  EXPECT_FALSE(sb.full_rank());
}

TEST(SegmentBuffer, RankGrowsWithIndependentBlocks) {
  sim::Rng rng{41};
  const SegmentId id{1, 2};
  const auto orig = random_originals(4, 8, rng);
  SegmentBuffer sb{id, 4};
  for (std::size_t k = 0; k < 4; ++k) {
    sb.add(k + 1, CodedBlock::systematic(id, 4, k, orig[k]));
    EXPECT_EQ(sb.rank(), k + 1);
  }
  EXPECT_TRUE(sb.full_rank());
}

TEST(SegmentBuffer, DuplicateBlocksCountButDoNotRaiseRank) {
  sim::Rng rng{42};
  const SegmentId id{1, 2};
  const SegmentBuffer src = source_buffer(id, random_originals(4, 8, rng));
  SegmentBuffer sb{id, 4};
  const CodedBlock b = src.recode(rng);
  sb.add(1, b);
  sb.add(2, b);
  EXPECT_EQ(sb.block_count(), 2u);
  EXPECT_EQ(sb.rank(), 1u);
}

TEST(SegmentBuffer, RemoveRecomputesRank) {
  sim::Rng rng{43};
  const SegmentId id{3, 3};
  SegmentBuffer sb = source_buffer(id, random_originals(3, 8, rng));
  EXPECT_TRUE(sb.full_rank());
  EXPECT_TRUE(sb.remove(2));
  EXPECT_EQ(sb.block_count(), 2u);
  EXPECT_EQ(sb.rank(), 2u);
  EXPECT_FALSE(sb.full_rank());
  EXPECT_FALSE(sb.remove(2));  // already gone
}

TEST(SegmentBuffer, HandlesAreReported) {
  sim::Rng rng{44};
  const SegmentId id{5, 5};
  const SegmentBuffer src = source_buffer(id, random_originals(2, 4, rng));
  SegmentBuffer sb{id, 2};
  sb.add(11, src.recode(rng));
  sb.add(22, src.recode(rng));
  auto hs = sb.handles();
  std::sort(hs.begin(), hs.end());
  EXPECT_EQ(hs, (std::vector<BlockHandle>{11, 22}));
}

TEST(SegmentBuffer, RecodeStaysInsideStoredSpan) {
  sim::Rng rng{45};
  const SegmentId id{6, 6};
  const SegmentBuffer src = source_buffer(id, random_originals(5, 8, rng));
  SegmentBuffer sb{id, 5};
  // Store only 2 independent blocks: the recoded output must lie in that
  // 2-dimensional span (never innovative to a decoder that knows it).
  sb.add(1, src.recode(rng));
  sb.add(2, src.recode(rng));
  Decoder span{id, 5, 8};
  sb.for_each_block([&](const CodedBlock& b) { span.add(b); });
  for (int t = 0; t < 50; ++t) {
    EXPECT_FALSE(span.is_innovative(sb.recode(rng)));
  }
}

TEST(SegmentBuffer, RecodePreservesPayloadConsistency) {
  // Decoding from recoded blocks must recover the true originals.
  sim::Rng rng{46};
  const SegmentId id{7, 7};
  const auto orig = random_originals(4, 16, rng);
  const SegmentBuffer sb = source_buffer(id, orig);
  Decoder dec{id, 4, 16};
  int guard = 0;
  while (!dec.complete() && ++guard < 100) dec.add(sb.recode(rng));
  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(dec.originals(), orig);
}

TEST(SegmentBuffer, RecodeNeverDegenerate) {
  // At s = 1 a draw is all-zero with probability 1/256, so the redraw runs.
  sim::Rng rng{47};
  const SegmentBuffer sb =
      source_buffer(SegmentId{8, 8}, random_originals(1, 2, rng));
  for (int t = 0; t < 300; ++t) {
    EXPECT_FALSE(sb.recode(rng).is_degenerate());
  }
}

TEST(SegmentBuffer, SourceRecodeNeverDegenerate) {
  // The source encoder: a recode over s = 4 systematic blocks.
  sim::Rng rng{5};
  const SegmentBuffer sb =
      source_buffer(SegmentId{1, 0}, random_originals(4, 2, rng));
  for (int t = 0; t < 300; ++t) {
    EXPECT_FALSE(sb.recode(rng).is_degenerate());
  }
}

TEST(SegmentBuffer, SourceRecodeIsTheStatedCombination) {
  sim::Rng rng{6};
  const auto orig = random_originals(3, 10, rng);
  const SegmentBuffer src = source_buffer(SegmentId{1, 0}, orig);
  const CodedBlock b = src.recode(rng);
  std::vector<std::uint8_t> expect(10, 0);
  for (std::size_t j = 0; j < 3; ++j) {
    gf::add_scaled(expect, orig[j], b.coefficients[j]);
  }
  EXPECT_EQ(b.payload, expect);
}

TEST(SegmentBuffer, RecodeOnEmptyViolatesContract) {
  sim::Rng rng{48};
  SegmentBuffer sb{SegmentId{9, 9}, 3};
  EXPECT_THROW((void)sb.recode(rng), ContractViolation);
}

TEST(SegmentBuffer, AddWrongSegmentViolatesContract) {
  sim::Rng rng{49};
  SegmentBuffer sb{SegmentId{1, 0}, 3};
  CodedBlock b;
  b.segment = SegmentId{1, 1};
  b.coefficients = {1, 0, 0};
  EXPECT_THROW(sb.add(1, b), ContractViolation);
}

TEST(SegmentBuffer, IsInnovativeAgreesWithRankChange) {
  sim::Rng rng{50};
  const SegmentId id{2, 9};
  const SegmentBuffer src = source_buffer(id, random_originals(6, 4, rng));
  SegmentBuffer sb{id, 6};
  for (std::size_t k = 0; k < 20; ++k) {
    const CodedBlock b = src.recode(rng);
    // Oracle: a coefficient-only decoder fed the stored blocks.
    Decoder probe{id, 6, 0};
    sb.for_each_block([&](const CodedBlock& stored) {
      CodedBlock coeff_only;
      coeff_only.segment = id;
      coeff_only.coefficients = stored.coefficients;
      probe.add(coeff_only);
    });
    CodedBlock candidate;
    candidate.segment = id;
    candidate.coefficients = b.coefficients;
    const bool predicted = probe.is_innovative(candidate);
    const std::size_t before = sb.rank();
    sb.add(k + 1, b);
    EXPECT_EQ(predicted, sb.rank() > before);
  }
}

/// Rank oracle: a coefficient-only progressive decoder fed `blocks`.
std::size_t reference_rank(const SegmentId& id, std::size_t s,
                           const std::vector<CodedBlock>& blocks) {
  Decoder probe{id, s, 0};
  for (const CodedBlock& b : blocks) probe.add(b);
  return probe.rank();
}

/// A non-degenerate block in the span of `sources`' first `k` rows, so
/// interleavings hit duplicates and dependent blocks, not just fresh
/// full-rank draws.
CodedBlock block_in_span(const SegmentId& id,
                         const std::vector<std::vector<gf::Element>>& sources,
                         std::size_t k, sim::Rng& rng) {
  CodedBlock b;
  b.segment = id;
  b.coefficients.assign(sources.front().size(), gf::Element{0});
  while (b.is_degenerate()) {
    for (std::size_t j = 0; j < k; ++j) {
      gf::add_scaled(b.coefficients, sources[j], rng.gf_element());
    }
  }
  return b;
}

TEST(SegmentBuffer, IncrementalRankMatchesDecoderModel) {
  for (const std::size_t s : {1U, 2U, 8U, 16U, 64U}) {
    SCOPED_TRACE(s);
    sim::Rng rng{900 + s};
    const SegmentId id{4, static_cast<std::uint32_t>(s)};
    std::vector<std::vector<gf::Element>> sources(s);
    for (auto& row : sources) {
      row.resize(s);
      for (auto& c : row) c = rng.gf_element();
    }
    SegmentBuffer sb{id, s};
    // The model: stored blocks in insertion order, with their handles.
    std::vector<CodedBlock> blocks;
    std::vector<BlockHandle> handles;
    BlockHandle next = 1;
    bool added_at_full_rank = false;
    bool removed_from_middle = false;
    for (int op = 0; op < 600; ++op) {
      const bool grow = blocks.size() < 2 ||
                        (blocks.size() < 2 * s + 4 && rng.bernoulli(0.6));
      if (grow) {
        added_at_full_rank |= blocks.size() >= 2 && sb.rank() == s;
        // Mostly low-dimensional spans; sometimes the full space.
        const std::size_t k = rng.bernoulli(0.3)
                                  ? s
                                  : 1 + rng.uniform_index((s + 1) / 2);
        CodedBlock b = block_in_span(id, sources, k, rng);
        blocks.push_back(b);
        handles.push_back(next);
        sb.add(next++, std::move(b));
      } else {
        const std::size_t at = rng.uniform_index(blocks.size());
        removed_from_middle |= at > 0 && at + 1 < blocks.size();
        EXPECT_TRUE(sb.remove(handles[at]));
        blocks.erase(blocks.begin() + static_cast<std::ptrdiff_t>(at));
        handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(at));
      }
      // Query on most steps only, so some queries absorb several adds.
      if (rng.bernoulli(0.7)) {
        ASSERT_EQ(sb.rank(), reference_rank(id, s, blocks)) << "op " << op;
        EXPECT_EQ(sb.full_rank(), sb.rank() == s);
      }
    }
    EXPECT_TRUE(added_at_full_rank);
    EXPECT_TRUE(removed_from_middle);
  }
}

}  // namespace
}  // namespace icollect::coding
