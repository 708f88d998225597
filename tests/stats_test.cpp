/// Tests for the measurement-plane primitives: Summary, TimeWeighted,
/// RateEstimator, Trajectory.

#include <gtest/gtest.h>

#include <cmath>

#include "stats/summary.h"
#include "stats/time_series.h"

namespace icollect::stats {
namespace {

TEST(Summary, EmptyIsZeroed) {
  const Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: Σ(x−5)² = 32; 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, SingleSampleVarianceZero) {
  Summary s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, MergeEqualsConcatenation) {
  Summary whole;
  Summary a;
  Summary b;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10;
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(Summary, MergeWithEmptySides) {
  Summary a;
  Summary b;
  b.add(1.0);
  b.add(3.0);
  a.merge(b);  // empty.merge(filled)
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  Summary c;
  a.merge(c);  // filled.merge(empty)
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Summary, ResetClears) {
  Summary s;
  s.add(5.0);
  s.reset();
  EXPECT_TRUE(s.empty());
}

TEST(TimeWeighted, ConstantSignal) {
  TimeWeighted tw{0.0, 5.0};
  EXPECT_DOUBLE_EQ(tw.mean(10.0), 5.0);
}

TEST(TimeWeighted, PiecewiseHandComputed) {
  TimeWeighted tw{0.0, 0.0};
  tw.update(2.0, 10.0);  // 0 for [0,2), 10 for [2,...
  tw.update(6.0, 4.0);   // 10 for [2,6), 4 from 6
  // mean over [0,8] = (0*2 + 10*4 + 4*2)/8 = 48/8 = 6
  EXPECT_DOUBLE_EQ(tw.mean(8.0), 6.0);
  EXPECT_DOUBLE_EQ(tw.value(), 4.0);
}

TEST(TimeWeighted, AddDeltas) {
  TimeWeighted tw{0.0, 1.0};
  tw.add(1.0, 2.0);   // value 3 from t=1
  tw.add(3.0, -3.0);  // value 0 from t=3
  // mean over [0,4] = (1*1 + 3*2 + 0*1)/4 = 7/4
  EXPECT_DOUBLE_EQ(tw.mean(4.0), 1.75);
}

TEST(TimeWeighted, ResetWindowKeepsValue) {
  TimeWeighted tw{0.0, 0.0};
  tw.update(5.0, 8.0);
  tw.reset_window(10.0);
  EXPECT_DOUBLE_EQ(tw.value(), 8.0);
  EXPECT_DOUBLE_EQ(tw.mean(20.0), 8.0);  // only post-reset interval counts
}

TEST(TimeWeighted, NonMonotoneTimeViolatesContract) {
  TimeWeighted tw{5.0, 0.0};
  EXPECT_THROW(tw.update(4.0, 1.0), icollect::ContractViolation);
}

TEST(RateEstimator, BasicRate) {
  RateEstimator r{0.0};
  r.record(10);
  EXPECT_DOUBLE_EQ(r.rate(5.0), 2.0);
  EXPECT_EQ(r.count(), 10u);
}

TEST(RateEstimator, ZeroSpanIsZeroRate) {
  RateEstimator r{3.0};
  r.record();
  EXPECT_DOUBLE_EQ(r.rate(3.0), 0.0);
}

TEST(RateEstimator, ResetWindowClearsCount) {
  RateEstimator r{0.0};
  r.record(100);
  r.reset_window(10.0);
  EXPECT_EQ(r.count(), 0u);
  r.record(5);
  EXPECT_DOUBLE_EQ(r.rate(15.0), 1.0);
  EXPECT_DOUBLE_EQ(r.window_start(), 10.0);
}

TEST(Trajectory, CollectsPoints) {
  Trajectory t;
  EXPECT_TRUE(t.empty());
  t.sample(1.0, 2.0);
  t.sample(2.0, 3.0);
  ASSERT_EQ(t.points().size(), 2u);
  EXPECT_DOUBLE_EQ(t.points()[1].second, 3.0);
  t.clear();
  EXPECT_TRUE(t.empty());
}

}  // namespace
}  // namespace icollect::stats
