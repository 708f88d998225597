/// Tests for the homomorphic per-block integrity check
/// (proto/integrity.h): valid blocks and arbitrary re-codings pass,
/// every corruption strategy that CAN be caught is caught, replay
/// passes by construction, and the forgery escape rate matches the
/// 256^-checks bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "coding/coded_block.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "gf/kernels.h"
#include "kernel_kinds.h"
#include "proto/adversary.h"
#include "proto/integrity.h"

namespace icollect::proto {
namespace {

using coding::CodedBlock;
using coding::SegmentId;

std::vector<std::vector<std::uint8_t>> random_originals(common::Rng& rng,
                                                        std::size_t s,
                                                        std::size_t len) {
  std::vector<std::vector<std::uint8_t>> originals(s);
  for (auto& b : originals) {
    b.resize(len);
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.gf_element());
  }
  return originals;
}

/// An honest coded block: p = sum_k c_k * b_k.
CodedBlock combine(const SegmentId& id,
                   std::span<const std::vector<std::uint8_t>> originals,
                   std::span<const gf::Element> coeffs) {
  CodedBlock block;
  block.segment = id;
  block.coefficients.assign(coeffs.begin(), coeffs.end());
  block.payload.assign(originals.front().size(), 0);
  for (std::size_t k = 0; k < originals.size(); ++k) {
    for (std::size_t i = 0; i < block.payload.size(); ++i) {
      block.payload[i] = gf::GF256::add(
          block.payload[i], gf::GF256::mul(coeffs[k], originals[k][i]));
    }
  }
  return block;
}

CodedBlock random_valid_block(common::Rng& rng, const SegmentId& id,
                              std::span<const std::vector<std::uint8_t>>
                                  originals) {
  std::vector<gf::Element> coeffs(originals.size());
  do {
    rng.fill_gf(coeffs);
  } while (CodedBlock{id, coeffs, {}}.is_degenerate());
  return combine(id, originals, coeffs);
}

TEST(Integrity, ValidBlocksAndRecodingsPass) {
  common::Rng rng{0x11};
  IntegrityAuthority auth{IntegrityParams{0xFEEDULL, 3}};
  const SegmentId id{7, 1};
  const auto originals = random_originals(rng, 4, 24);
  auth.register_segment(id, originals);
  EXPECT_TRUE(auth.known(id));
  EXPECT_EQ(auth.segments(), 1U);
  EXPECT_EQ(auth.checks(), 3U);

  // Unit vectors (the originals themselves, as coded blocks).
  for (std::size_t k = 0; k < originals.size(); ++k) {
    std::vector<gf::Element> unit(originals.size(), 0);
    unit[k] = 1;
    EXPECT_EQ(auth.verify(combine(id, originals, unit)), VerifyResult::kOk);
  }

  // Random combinations, then combinations OF combinations — the
  // re-coding an honest relay applies. Linearity must keep them valid.
  for (int i = 0; i < 50; ++i) {
    const CodedBlock a = random_valid_block(rng, id, originals);
    const CodedBlock b = random_valid_block(rng, id, originals);
    ASSERT_EQ(auth.verify(a), VerifyResult::kOk);
    ASSERT_EQ(auth.verify(b), VerifyResult::kOk);
    const auto alpha = static_cast<gf::Element>(rng.gf_nonzero());
    const auto beta = static_cast<gf::Element>(rng.gf_element());
    CodedBlock mixed;
    mixed.segment = id;
    mixed.coefficients.resize(originals.size());
    mixed.payload.resize(a.payload.size());
    for (std::size_t k = 0; k < originals.size(); ++k) {
      mixed.coefficients[k] =
          gf::GF256::add(gf::GF256::mul(alpha, a.coefficients[k]),
                         gf::GF256::mul(beta, b.coefficients[k]));
    }
    for (std::size_t j = 0; j < a.payload.size(); ++j) {
      mixed.payload[j] = gf::GF256::add(gf::GF256::mul(alpha, a.payload[j]),
                                        gf::GF256::mul(beta, b.payload[j]));
    }
    ASSERT_EQ(auth.verify(mixed), VerifyResult::kOk);
  }
}

TEST(Integrity, DuplicateRegistrationLeavesTagsIntact) {
  // A second registration of a live id is a contract error; a caller
  // that catches it must still hold a segment whose blocks verify.
  common::Rng rng{0x12};
  IntegrityAuthority auth{IntegrityParams{0xFEEDULL, 2}};
  const SegmentId id{4, 2};
  const auto originals = random_originals(rng, 3, 300);
  auth.register_segment(id, originals);
  const auto other = random_originals(rng, 3, 300);
  EXPECT_THROW(auth.register_segment(id, other), ContractViolation);
  EXPECT_EQ(auth.segments(), 1U);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(auth.verify(random_valid_block(rng, id, originals)),
              VerifyResult::kOk);
  }
}

TEST(Integrity, RandomPayloadCorruptionCaught) {
  common::Rng rng{0x22};
  IntegrityAuthority auth{IntegrityParams{0xABCULL, 4}};
  const SegmentId id{3, 9};
  const auto originals = random_originals(rng, 5, 32);
  auth.register_segment(id, originals);
  for (int i = 0; i < 200; ++i) {
    CodedBlock block = random_valid_block(rng, id, originals);
    // The kRandomPayload attack: honest coefficients, scrambled payload.
    CodedBlock forged = block;
    for (auto& byte : forged.payload) {
      byte = static_cast<std::uint8_t>(rng.gf_element());
    }
    if (forged.payload == block.payload) continue;  // astronomically rare
    ASSERT_EQ(auth.verify(forged), VerifyResult::kCheckFailed);
  }
}

TEST(Integrity, GarbageCoefficientsCaught) {
  // The attack a transport CRC can never see: the payload is a real
  // combination, only the claimed coefficients lie about WHICH one.
  common::Rng rng{0x33};
  IntegrityAuthority auth{IntegrityParams{0xDEFULL, 4}};
  const SegmentId id{12, 0};
  const auto originals = random_originals(rng, 4, 16);
  auth.register_segment(id, originals);
  for (int i = 0; i < 200; ++i) {
    CodedBlock block = random_valid_block(rng, id, originals);
    CodedBlock forged = block;
    do {
      rng.fill_gf(forged.coefficients);
    } while (forged.is_degenerate() ||
             forged.coefficients == block.coefficients);
    ASSERT_EQ(auth.verify(forged), VerifyResult::kCheckFailed);
  }
}

TEST(Integrity, ReplayPassesByConstruction) {
  // A replayed block IS in the span — no per-block check can reject it.
  // The scenario pack measures replay damage as redundancy instead.
  common::Rng rng{0x44};
  IntegrityAuthority auth{IntegrityParams{0x123ULL, 4}};
  const SegmentId id{1, 1};
  const auto originals = random_originals(rng, 3, 8);
  auth.register_segment(id, originals);
  const CodedBlock block = random_valid_block(rng, id, originals);
  EXPECT_EQ(auth.verify(block), VerifyResult::kOk);
  EXPECT_EQ(auth.verify(block), VerifyResult::kOk);  // ... and again
}

TEST(Integrity, UnknownSegmentQuarantined) {
  // Tags are registered synchronously at injection, so an unknown id
  // means a forged segment — rejected, not given the benefit of doubt.
  common::Rng rng{0x55};
  IntegrityAuthority auth{IntegrityParams{0x321ULL, 2}};
  const SegmentId known{5, 5};
  const auto originals = random_originals(rng, 4, 8);
  auth.register_segment(known, originals);
  CodedBlock block = random_valid_block(rng, known, originals);
  block.segment = SegmentId{5, 6};  // same origin, forged seq
  EXPECT_EQ(auth.verify(block), VerifyResult::kUnknownSegment);
  EXPECT_FALSE(auth.known(block.segment));
}

TEST(Integrity, ShapeMismatchRejected) {
  common::Rng rng{0x66};
  IntegrityAuthority auth{IntegrityParams{0x777ULL, 2}};
  const SegmentId id{2, 4};
  const auto originals = random_originals(rng, 4, 12);
  auth.register_segment(id, originals);
  const CodedBlock block = random_valid_block(rng, id, originals);

  CodedBlock wrong_s = block;
  wrong_s.coefficients.push_back(0);
  EXPECT_EQ(auth.verify(wrong_s), VerifyResult::kShapeMismatch);

  CodedBlock wrong_len = block;
  wrong_len.payload.pop_back();
  EXPECT_EQ(auth.verify(wrong_len), VerifyResult::kShapeMismatch);
}

TEST(Integrity, ForgetDropsTags) {
  common::Rng rng{0x77};
  IntegrityAuthority auth{IntegrityParams{0x999ULL, 2}};
  const SegmentId id{8, 8};
  const auto originals = random_originals(rng, 3, 8);
  auth.register_segment(id, originals);
  const CodedBlock block = random_valid_block(rng, id, originals);
  EXPECT_EQ(auth.verify(block), VerifyResult::kOk);
  auth.forget(id);
  EXPECT_FALSE(auth.known(id));
  EXPECT_EQ(auth.verify(block), VerifyResult::kUnknownSegment);
  // A slot reused after forget() may register the id afresh.
  auth.register_segment(id, originals);
  EXPECT_EQ(auth.verify(block), VerifyResult::kOk);
}

TEST(Integrity, EscapeRateMatchesChecksBound) {
  // With k=1 check a random forgery escapes with probability 1/256;
  // 8000 trials give a mean of 31 escapes — accept a generous band.
  // With k=4 the bound is 2^-32: zero escapes, ever, in practice.
  common::Rng rng{0x88};
  const SegmentId id{6, 2};
  IntegrityAuthority weak{IntegrityParams{0x1357ULL, 1}};
  IntegrityAuthority strong{IntegrityParams{0x1357ULL, 4}};
  const auto originals = random_originals(rng, 4, 16);
  weak.register_segment(id, originals);
  strong.register_segment(id, originals);

  int weak_escapes = 0;
  int strong_escapes = 0;
  const int trials = 8000;
  for (int i = 0; i < trials; ++i) {
    CodedBlock forged = random_valid_block(rng, id, originals);
    for (auto& byte : forged.payload) {
      byte = static_cast<std::uint8_t>(rng.gf_element());
    }
    if (weak.verify(forged) == VerifyResult::kOk) ++weak_escapes;
    if (strong.verify(forged) == VerifyResult::kOk) ++strong_escapes;
  }
  EXPECT_GT(weak_escapes, 5) << "k=1 should leak a few forgeries";
  EXPECT_LT(weak_escapes, 90) << "k=1 escape rate far above 1/256";
  EXPECT_EQ(strong_escapes, 0) << "k=4 escape probability is 2^-32";
}

TEST(Integrity, DeterministicAcrossInstances) {
  // Same key, same originals: an authority rebuilt from scratch reaches
  // identical verdicts (the PRF chain has no hidden state).
  common::Rng rng{0x99};
  const SegmentId id{4, 4};
  const auto originals = random_originals(rng, 4, 16);
  IntegrityAuthority a{IntegrityParams{0xAAULL, 3}};
  IntegrityAuthority b{IntegrityParams{0xAAULL, 3}};
  a.register_segment(id, originals);
  b.register_segment(id, originals);
  for (int i = 0; i < 100; ++i) {
    CodedBlock block = random_valid_block(rng, id, originals);
    if (rng.bernoulli(0.5)) {
      block.payload[rng.uniform_index(block.payload.size())] ^= 0x5A;
    }
    EXPECT_EQ(a.verify(block), b.verify(block));
  }
}

// ---- bit-exactness of the chunked, kernel-backed check --------------

/// <r_j, v> as first written: the splitmix64 PRF expanded one word per
/// 8 bytes, low byte first, and one table multiply per payload byte.
gf::Element reference_check_dot(std::uint64_t key, const SegmentId& id,
                                std::size_t j,
                                std::span<const std::uint8_t> v) {
  constexpr std::uint64_t kCheckDomain = 0xC0EFF1C1E47A65ULL;
  const std::uint64_t seg = (static_cast<std::uint64_t>(id.origin) << 32U) |
                            id.seq;
  std::uint64_t state = common::splitmix64(key ^ kCheckDomain);
  state = common::splitmix64(state ^ seg);
  state = common::splitmix64(state ^ (static_cast<std::uint64_t>(j) + 1));
  gf::Element acc = 0;
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i % 8 == 0) word = common::splitmix64(state + i / 8);
    const auto r = static_cast<gf::Element>(word & 0xFFU);
    word >>= 8U;
    acc = gf::GF256::add(acc, gf::GF256::mul(r, v[i]));
  }
  return acc;
}

/// Reference tags T[j][k] and verdict built on reference_check_dot.
struct ReferenceChecker {
  std::uint64_t key;
  SegmentId id;
  std::vector<std::vector<gf::Element>> tags;  // checks x s

  ReferenceChecker(std::uint64_t k, std::size_t checks, const SegmentId& sid,
                   std::span<const std::vector<std::uint8_t>> originals)
      : key{k}, id{sid}, tags(checks) {
    for (std::size_t j = 0; j < checks; ++j) {
      for (const auto& b : originals) {
        tags[j].push_back(reference_check_dot(key, id, j, b));
      }
    }
  }

  [[nodiscard]] gf::Element rhs(std::size_t j,
                                std::span<const gf::Element> c) const {
    gf::Element acc = 0;
    for (std::size_t k = 0; k < c.size(); ++k) {
      acc = gf::GF256::add(acc, gf::GF256::mul(c[k], tags[j][k]));
    }
    return acc;
  }

  [[nodiscard]] VerifyResult verify(const CodedBlock& block) const {
    for (std::size_t j = 0; j < tags.size(); ++j) {
      if (reference_check_dot(key, id, j, block.payload) !=
          rhs(j, block.coefficients)) {
        return VerifyResult::kCheckFailed;
      }
    }
    return VerifyResult::kOk;
  }

  /// A forgery that passes both reference checks: keep the payload and
  /// solve the 2x2 system sum_k c_k T[j][k] = <r_j, p> in c_0, c_1
  /// (Cramer's rule; char 2, so minus is plus). Returns false when the
  /// leading 2x2 tag minor is singular.
  [[nodiscard]] bool forge_passing(CodedBlock& block) const {
    const gf::Element l0 = reference_check_dot(key, id, 0, block.payload);
    const gf::Element l1 = reference_check_dot(key, id, 1, block.payload);
    const auto& t = tags;
    using G = gf::GF256;
    const gf::Element det =
        G::add(G::mul(t[0][0], t[1][1]), G::mul(t[0][1], t[1][0]));
    if (det == 0) return false;
    std::fill(block.coefficients.begin(), block.coefficients.end(), 0);
    block.coefficients[0] = G::div(
        G::add(G::mul(l0, t[1][1]), G::mul(t[0][1], l1)), det);
    block.coefficients[1] = G::div(
        G::add(G::mul(t[0][0], l1), G::mul(l0, t[1][0])), det);
    return true;
  }
};

TEST(Integrity, EveryKernelMatchesPerByteReference) {
  const testkit::RestoreAutoKernel restore;
  constexpr std::uint64_t kKey = 0x5EED1234ULL;
  constexpr std::size_t kChecks = 2;
  constexpr std::size_t kS = 3;
  // Both sides of the 8-byte PRF word and the 256-byte expansion chunk.
  constexpr std::size_t kLengths[] = {1, 7, 8, 255, 256, 257, 1024, 1025};
  for (const auto kind : testkit::supported_kernels()) {
    ASSERT_TRUE(gf::Kernels::select(kind));
    const char* name = gf::Kernels::name(kind);
    for (const std::size_t len : kLengths) {
      common::Rng rng{len};
      const SegmentId id{static_cast<std::uint32_t>(len), 9};
      const auto originals = random_originals(rng, kS, len);
      IntegrityAuthority auth{IntegrityParams{kKey, kChecks}};
      auth.register_segment(id, originals);
      const ReferenceChecker ref{kKey, kChecks, id, originals};
      int forged_ok = 0;
      for (int trial = 0; trial < 16; ++trial) {
        CodedBlock block = random_valid_block(rng, id, originals);
        ASSERT_EQ(auth.verify(block), VerifyResult::kOk)
            << name << " len " << len;
        // Random payload: fails the reference unless it escapes.
        rng.fill_gf(block.payload);
        ASSERT_EQ(auth.verify(block), ref.verify(block))
            << name << " len " << len;
        // The same payload under coefficients solved from the reference
        // tags passes only if every tag and every check byte agrees.
        if (ref.forge_passing(block)) {
          ASSERT_EQ(ref.verify(block), VerifyResult::kOk);
          ASSERT_EQ(auth.verify(block), VerifyResult::kOk)
              << name << " len " << len;
          ++forged_ok;
          block.payload[rng.uniform_index(len)] ^= 0x01;
          ASSERT_EQ(auth.verify(block), ref.verify(block))
              << name << " len " << len;
        }
      }
      // One payload byte makes every tag column proportional, so the
      // 2x2 minor is always singular there.
      if (len > 1) {
        EXPECT_GT(forged_ok, 0) << name << " len " << len;
      }
    }
  }
}

}  // namespace
}  // namespace icollect::proto
