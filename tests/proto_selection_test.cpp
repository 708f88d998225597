/// Negative-path and edge-case tests for the shared selection idiom
/// (proto/selection.h) that both drivers' pull-target choice runs on:
/// empty candidate sets, single candidates,
/// all-ineligible rosters, the exhaustive-scan fallback, the documented
/// RNG draw sequence, and uniformity over the eligible subset.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "proto/selection.h"

namespace icollect::proto {
namespace {

const auto kAlwaysEligible = [](std::size_t) { return true; };
const auto kNeverEligible = [](std::size_t) { return false; };

TEST(Selection, EmptyCandidateSetDrawsNothing) {
  common::Rng rng{1};
  common::Rng twin{1};
  EXPECT_EQ(uniform_over_eligible(rng, 0, 12, kAlwaysEligible),
            kNoSelection);
  // n == 0 must return before touching the RNG: the next draw matches a
  // fresh stream.
  EXPECT_EQ(rng.uniform_index(1000), twin.uniform_index(1000));
}

TEST(Selection, SingleCandidateAlwaysChosen) {
  common::Rng rng{2};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(uniform_over_eligible(rng, 1, 4, kAlwaysEligible), 0U);
  }
}

TEST(Selection, SingleIneligibleCandidateIsNoSelection) {
  common::Rng rng{3};
  EXPECT_EQ(uniform_over_eligible(rng, 1, 4, kNeverEligible), kNoSelection);
}

TEST(Selection, AllIneligibleRosterFallsThroughScanToNoSelection) {
  common::Rng rng{4};
  // Every probe rejects, the exhaustive scan finds nothing — the
  // fallback must report kNoSelection, not loop or pick garbage.
  for (int probes : {0, 1, 12}) {
    EXPECT_EQ(uniform_over_eligible(rng, 64, probes, kNeverEligible),
              kNoSelection);
  }
}

TEST(Selection, ScanFallbackFindsTheNeedle) {
  // One eligible candidate in a large roster with few probes: rejection
  // sampling will usually miss it, the guaranteed scan must not.
  common::Rng rng{5};
  const auto only_777 = [](std::size_t i) { return i == 777; };
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(uniform_over_eligible(rng, 1000, 2, only_777), 777U);
  }
}

TEST(Selection, ZeroProbesStillSelectsViaScan) {
  common::Rng rng{6};
  const auto evens = [](std::size_t i) { return i % 2 == 0; };
  for (int i = 0; i < 50; ++i) {
    const std::size_t got = uniform_over_eligible(rng, 10, 0, evens);
    ASSERT_NE(got, kNoSelection);
    EXPECT_EQ(got % 2, 0U);
  }
}

TEST(Selection, DrawSequenceIsOneUniformPerProbe) {
  // Documented contract: with an always-eligible roster the first probe
  // wins, consuming exactly one uniform_index(n) — twin streams agree.
  common::Rng rng{7};
  common::Rng twin{7};
  const std::size_t got = uniform_over_eligible(rng, 37, 12, kAlwaysEligible);
  EXPECT_EQ(got, twin.uniform_index(37));
  // And the streams stay in lockstep afterwards.
  EXPECT_EQ(rng.uniform_index(1000), twin.uniform_index(1000));
}

TEST(Selection, IndexFnMapsProbesToCandidates) {
  // Adjacency-list style: positions [0, n) map through a neighbor table
  // and the *mapped* candidate is tested and returned.
  common::Rng rng{8};
  const std::array<std::size_t, 4> neighbors{10, 20, 30, 40};
  const auto map = [&](std::size_t i) { return neighbors[i]; };
  const auto eligible = [](std::size_t cand) { return cand >= 30; };
  for (int i = 0; i < 50; ++i) {
    const std::size_t got =
        uniform_over_eligible(rng, neighbors.size(), 3, map, eligible);
    EXPECT_TRUE(got == 30 || got == 40) << got;
  }
}

TEST(Selection, UniformOverTheEligibleSubset) {
  // Conditioning on eligibility IS uniform over the eligible set: the
  // ineligible half is never chosen and the eligible half is flat.
  common::Rng rng{9};
  const auto evens = [](std::size_t i) { return i % 2 == 0; };
  constexpr std::size_t kN = 20;
  constexpr int kTrials = 20000;
  std::array<int, kN> counts{};
  for (int i = 0; i < kTrials; ++i) {
    const std::size_t got = uniform_over_eligible(rng, kN, 12, evens);
    ASSERT_NE(got, kNoSelection);
    ++counts[got];
  }
  const double expected = kTrials / 10.0;  // 10 eligible slots
  for (std::size_t i = 0; i < kN; ++i) {
    if (i % 2 != 0) {
      EXPECT_EQ(counts[i], 0) << "ineligible candidate " << i << " chosen";
    } else {
      EXPECT_NEAR(counts[i], expected, 0.15 * expected) << i;
    }
  }
}

}  // namespace
}  // namespace icollect::proto
