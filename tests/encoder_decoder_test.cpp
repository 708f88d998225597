/// End-to-end RLNC codec tests: source encoding, progressive decoding,
/// innovation detection, and recoding chains. Parameterized over segment
/// size, since the paper's central knob is s.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coding/decoder.h"
#include "coding/segment_buffer.h"
#include "sim/random.h"
#include "source_segment.h"

namespace icollect::coding {
namespace {

using fixtures::random_originals;
using fixtures::source_buffer;

class CodecRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecRoundTripTest, RandomCodedBlocksDecode) {
  const std::size_t s = GetParam();
  sim::Rng rng{1000 + s};
  const SegmentId id{3, 7};
  const auto originals = random_originals(s, 32, rng);
  const SegmentBuffer src = source_buffer(id, originals);
  Decoder dec{id, s, 32};

  std::size_t offered = 0;
  while (!dec.complete()) {
    dec.add(src.recode(rng));
    ++offered;
    ASSERT_LE(offered, s + 20) << "decoder failed to complete";
  }
  // Over GF(256), random draws are innovative w.h.p.: expect few extras.
  EXPECT_LE(offered, s + 5);
  for (std::size_t k = 0; k < s; ++k) {
    const auto got = dec.original(k);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), originals[k].begin(),
                           originals[k].end()))
        << "block " << k;
  }
}

TEST_P(CodecRoundTripTest, SystematicBlocksDecodeExactlyAtRankS) {
  const std::size_t s = GetParam();
  sim::Rng rng{2000 + s};
  const SegmentId id{1, 1};
  const auto originals = random_originals(s, 16, rng);
  Decoder dec{id, s, 16};
  for (std::size_t k = 0; k < s; ++k) {
    EXPECT_FALSE(dec.complete());
    EXPECT_TRUE(dec.add(CodedBlock::systematic(id, s, k, originals[k])));
    EXPECT_EQ(dec.rank(), k + 1);
  }
  EXPECT_TRUE(dec.complete());
  EXPECT_EQ(dec.originals(), originals);
}

TEST_P(CodecRoundTripTest, RecodedChainStillDecodes) {
  // source -> buffer A -> recode -> buffer B -> recode -> server: the
  // paper's "coding operation is not limited to the source".
  const std::size_t s = GetParam();
  sim::Rng rng{3000 + s};
  const SegmentId id{9, 4};
  const auto originals = random_originals(s, 24, rng);
  const SegmentBuffer src = source_buffer(id, originals);

  SegmentBuffer a{id, s};
  for (std::size_t k = 0; k < 2 * s; ++k) {
    a.add(k + 1, src.recode(rng));
  }
  SegmentBuffer b{id, s};
  for (std::size_t k = 0; k < 2 * s; ++k) {
    b.add(1000 + k, a.recode(rng));
  }
  Decoder dec{id, s, 24};
  std::size_t offered = 0;
  while (!dec.complete() && offered < 6 * s + 30) {
    dec.add(b.recode(rng));
    ++offered;
  }
  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(dec.originals(), originals);
}

INSTANTIATE_TEST_SUITE_P(SegmentSizes, CodecRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32, 64));

TEST(DecoderTest, DuplicateBlockIsRedundant) {
  sim::Rng rng{7};
  const auto originals = random_originals(4, 8, rng);
  const SegmentBuffer src = source_buffer(SegmentId{1, 0}, originals);
  Decoder dec{SegmentId{1, 0}, 4, 8};
  const CodedBlock b = src.recode(rng);
  EXPECT_TRUE(dec.add(b));
  EXPECT_FALSE(dec.add(b));
  EXPECT_EQ(dec.redundant_count(), 1u);
  EXPECT_EQ(dec.rank(), 1u);
}

TEST(DecoderTest, LinearCombinationOfKnownRowsIsRedundant) {
  sim::Rng rng{8};
  const auto originals = random_originals(5, 8, rng);
  const SegmentBuffer src = source_buffer(SegmentId{1, 0}, originals);
  Decoder dec{SegmentId{1, 0}, 5, 8};
  const CodedBlock b1 = src.recode(rng);
  const CodedBlock b2 = src.recode(rng);
  ASSERT_TRUE(dec.add(b1));
  ASSERT_TRUE(dec.add(b2));
  // 3*b1 + 5*b2 is in the decoder's span.
  CodedBlock mix;
  mix.segment = SegmentId{1, 0};
  mix.coefficients.assign(5, 0);
  mix.payload.assign(8, 0);
  gf::add_scaled(mix.coefficients, b1.coefficients, 3);
  gf::add_scaled(mix.coefficients, b2.coefficients, 5);
  gf::add_scaled(mix.payload, b1.payload, 3);
  gf::add_scaled(mix.payload, b2.payload, 5);
  EXPECT_FALSE(dec.is_innovative(mix));
  EXPECT_FALSE(dec.add(mix));
}

TEST(DecoderTest, RedundantAddLeavesRowsByteIdentical) {
  constexpr std::size_t kS = 6;
  constexpr std::size_t kPayload = 40;
  const SegmentId id{2, 5};
  sim::Rng rng{10};
  const auto originals = random_originals(kS, kPayload, rng);
  const SegmentBuffer src = source_buffer(id, originals);
  Decoder dec{id, kS, kPayload};
  std::vector<CodedBlock> held;
  while (held.size() < 3) {
    CodedBlock b = src.recode(rng);
    if (dec.add(b)) held.push_back(std::move(b));
  }
  const auto rows = [&dec] {
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t p = 0; p < kS; ++p) {
      const auto c = dec.row_coefficients(p);
      const auto y = dec.row_payload(p);
      out.emplace_back(c.begin(), c.end());
      out.emplace_back(y.begin(), y.end());
    }
    return out;
  };
  // Redundant candidates: a consistent combination of the held blocks,
  // the same coefficients under a payload no combination carries, and
  // a copy of a held block.
  CodedBlock mix{id, std::vector<gf::Element>(kS, 0),
                 std::vector<std::uint8_t>(kPayload, 0)};
  for (const CodedBlock& b : held) {
    const gf::Element f = rng.gf_element();
    gf::add_scaled(mix.coefficients, b.coefficients, f);
    gf::add_scaled(mix.payload, b.payload, f);
  }
  CodedBlock garbled = mix;
  for (std::uint8_t& byte : garbled.payload) byte ^= 0xA5;
  for (const CodedBlock& redundant : {mix, garbled, held.front()}) {
    const auto before = rows();
    const std::size_t rank = dec.rank();
    const std::uint64_t redundant_before = dec.redundant_count();
    EXPECT_FALSE(dec.add(redundant));
    EXPECT_EQ(dec.rank(), rank);
    EXPECT_EQ(rows(), before);
    EXPECT_EQ(dec.redundant_count(), redundant_before + 1);
  }
  // Past completion every block is redundant, and the recovered
  // originals stay put.
  while (!dec.complete()) dec.add(src.recode(rng));
  const auto complete = rows();
  EXPECT_FALSE(dec.add(src.recode(rng)));
  EXPECT_EQ(rows(), complete);
  EXPECT_EQ(dec.originals(), originals);
}

TEST(DecoderTest, IsInnovativeDoesNotMutate) {
  sim::Rng rng{9};
  const auto originals = random_originals(4, 4, rng);
  const SegmentBuffer src = source_buffer(SegmentId{1, 0}, originals);
  Decoder dec{SegmentId{1, 0}, 4, 4};
  const CodedBlock b = src.recode(rng);
  EXPECT_TRUE(dec.is_innovative(b));
  EXPECT_EQ(dec.rank(), 0u);
  EXPECT_TRUE(dec.is_innovative(b));  // still, since nothing was added
}

TEST(DecoderTest, MismatchedSegmentViolatesContract) {
  Decoder dec{SegmentId{1, 0}, 4, 0};
  CodedBlock b;
  b.segment = SegmentId{2, 0};
  b.coefficients.assign(4, 1);
  EXPECT_THROW((void)dec.add(b), ContractViolation);
}

TEST(DecoderTest, WrongCoefficientLengthViolatesContract) {
  Decoder dec{SegmentId{1, 0}, 4, 0};
  CodedBlock b;
  b.segment = SegmentId{1, 0};
  b.coefficients.assign(3, 1);
  EXPECT_THROW((void)dec.add(b), ContractViolation);
}

TEST(DecoderTest, OriginalBeforeCompleteViolatesContract) {
  Decoder dec{SegmentId{1, 0}, 2, 4};
  EXPECT_THROW((void)dec.original(0), ContractViolation);
}

TEST(DecoderTest, AfterCompleteEverythingIsRedundant) {
  sim::Rng rng{10};
  const auto originals = random_originals(3, 4, rng);
  const SegmentBuffer src = source_buffer(SegmentId{1, 0}, originals);
  Decoder dec{SegmentId{1, 0}, 3, 4};
  while (!dec.complete()) dec.add(src.recode(rng));
  const auto redundant_before = dec.redundant_count();
  EXPECT_FALSE(dec.add(src.recode(rng)));
  EXPECT_EQ(dec.redundant_count(), redundant_before + 1);
  EXPECT_FALSE(dec.is_innovative(src.recode(rng)));
}

TEST(DecoderTest, ZeroPayloadSizeTracksCoefficientsOnly) {
  sim::Rng rng{11};
  Decoder dec{SegmentId{4, 4}, 3, 0};
  CodedBlock b;
  b.segment = SegmentId{4, 4};
  b.coefficients = {1, 2, 3};
  EXPECT_TRUE(dec.add(b));
  b.coefficients = {0, 1, 1};
  EXPECT_TRUE(dec.add(b));
  b.coefficients = {1, 3, 2};  // = row1 + row2
  EXPECT_FALSE(dec.add(b));
}

}  // namespace
}  // namespace icollect::coding
