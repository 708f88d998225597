/// BatchDecoder tests, including cross-validation against the
/// progressive Decoder (two independent elimination paths must agree on
/// rank, decodability and the recovered payloads).

#include <gtest/gtest.h>

#include <stdexcept>

#include "coding/batch_decoder.h"
#include "coding/decoder.h"
#include "coding/segment_buffer.h"
#include "sim/random.h"
#include "source_segment.h"

namespace icollect::coding {
namespace {

using fixtures::random_originals;
using fixtures::source_buffer;

TEST(BatchDecoder, EmptyBatch) {
  EXPECT_EQ(BatchDecoder::rank({}), 0u);
  EXPECT_FALSE(BatchDecoder::decodable({}));
  EXPECT_FALSE(BatchDecoder::decode({}).has_value());
}

TEST(BatchDecoder, FullRankBatchDecodes) {
  sim::Rng rng{201};
  const auto orig = random_originals(6, 20, rng);
  const auto src = source_buffer({1, 0}, orig);
  std::vector<CodedBlock> blocks;
  for (int i = 0; i < 9; ++i) blocks.push_back(src.recode(rng));
  EXPECT_TRUE(BatchDecoder::decodable(blocks));
  const auto decoded = BatchDecoder::decode(blocks);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, orig);
}

TEST(BatchDecoder, RankDeficientBatchFails) {
  sim::Rng rng{202};
  const auto orig = random_originals(5, 8, rng);
  const auto src = source_buffer({1, 0}, orig);
  std::vector<CodedBlock> blocks;
  for (int i = 0; i < 3; ++i) blocks.push_back(src.recode(rng));
  EXPECT_FALSE(BatchDecoder::decodable(blocks));
  EXPECT_FALSE(BatchDecoder::decode(blocks).has_value());
  // Duplicating existing blocks must not unlock it.
  blocks.push_back(blocks.front());
  blocks.push_back(blocks.back());
  EXPECT_FALSE(BatchDecoder::decode(blocks).has_value());
}

TEST(BatchDecoder, MixedSegmentsRejected) {
  sim::Rng rng{203};
  const auto a = source_buffer({1, 0}, random_originals(3, 4, rng));
  const auto b = source_buffer({2, 0}, random_originals(3, 4, rng));
  std::vector<CodedBlock> blocks{a.recode(rng), b.recode(rng)};
  EXPECT_THROW((void)BatchDecoder::rank(blocks), std::invalid_argument);
}

TEST(BatchDecoder, InconsistentPayloadsRejected) {
  sim::Rng rng{204};
  const auto src = source_buffer({1, 0}, random_originals(3, 4, rng));
  std::vector<CodedBlock> blocks{src.recode(rng), src.recode(rng),
                                 src.recode(rng)};
  blocks[1].payload.resize(2);
  EXPECT_THROW((void)BatchDecoder::decode(blocks), std::invalid_argument);
}

TEST(BatchDecoder, AgreesWithProgressiveDecoderOnRank) {
  sim::Rng rng{205};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t s = 2 + rng.uniform_index(10);
    const auto src =
        source_buffer({7, 7}, random_originals(s, 8, rng));
    std::vector<CodedBlock> blocks;
    const std::size_t n = 1 + rng.uniform_index(2 * s);
    // A mix of fresh and duplicated blocks to create rank deficiencies.
    for (std::size_t i = 0; i < n; ++i) {
      if (!blocks.empty() && rng.bernoulli(0.3)) {
        blocks.push_back(blocks[rng.uniform_index(blocks.size())]);
      } else {
        blocks.push_back(src.recode(rng));
      }
    }
    Decoder progressive{{7, 7}, s, 8};
    for (const auto& b : blocks) progressive.add(b);
    ASSERT_EQ(BatchDecoder::rank(blocks), progressive.rank())
        << "trial " << trial << " s=" << s << " n=" << n;
    ASSERT_EQ(BatchDecoder::decodable(blocks), progressive.complete());
    if (progressive.complete()) {
      const auto batch = BatchDecoder::decode(blocks);
      ASSERT_TRUE(batch.has_value());
      ASSERT_EQ(*batch, progressive.originals());
    }
  }
}

TEST(BatchDecoder, SystematicSubsetSuffices) {
  sim::Rng rng{206};
  const auto orig = random_originals(4, 12, rng);
  std::vector<CodedBlock> blocks;
  for (std::size_t k = 0; k < 4; ++k) {
    blocks.push_back(CodedBlock::systematic({3, 1}, 4, k, orig[k]));
  }
  EXPECT_EQ(BatchDecoder::rank(blocks), 4u);
  EXPECT_EQ(*BatchDecoder::decode(blocks), orig);
}

}  // namespace
}  // namespace icollect::coding
