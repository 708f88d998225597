/// Statistical soundness of the replica aggregates: Welford moments
/// against closed-form fixtures, Student-t critical values, and an
/// empirical coverage check that the reported 95% CI actually covers
/// the true mean ~95% of the time. A CI that is merely printed is
/// decoration; this file is what makes `mean±ci` a claim.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/report.h"
#include "runner/aggregate.h"
#include "runner/seed_sequence.h"
#include "stats/summary.h"

namespace icollect::runner {
namespace {

// --- Student-t critical values ----------------------------------------------

TEST(StudentT, MatchesTables) {
  EXPECT_NEAR(student_t975(1), 12.706, 1e-3);
  EXPECT_NEAR(student_t975(2), 4.303, 1e-3);
  EXPECT_NEAR(student_t975(4), 2.776, 1e-3);
  EXPECT_NEAR(student_t975(7), 2.365, 1e-3);
  EXPECT_NEAR(student_t975(10), 2.228, 1e-3);
  EXPECT_NEAR(student_t975(30), 2.042, 1e-3);
}

TEST(StudentT, NormalLimitBeyondTable) {
  EXPECT_NEAR(student_t975(31), 1.96, 1e-9);
  EXPECT_NEAR(student_t975(1000), 1.96, 1e-9);
}

TEST(StudentT, MonotoneDecreasingInDf) {
  for (std::uint64_t df = 1; df < 30; ++df) {
    EXPECT_GT(student_t975(df), student_t975(df + 1)) << "df=" << df;
  }
}

// --- Welford closed-form fixture --------------------------------------------

TEST(WelfordFixture, FiveKnownSamples) {
  // {1,2,3,4,5}: mean 3, sample variance 2.5, CI = t(4)·s/√5.
  stats::Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  const double expected_ci =
      student_t975(4) * std::sqrt(2.5) / std::sqrt(5.0);
  EXPECT_NEAR(ci95_half_width(s), expected_ci, 1e-9);
  EXPECT_NEAR(ci95_half_width(s), 1.963, 1e-3);
}

TEST(WelfordFixture, ShiftedDataKeepsVariance) {
  // Welford's claim to fame: no catastrophic cancellation on a large
  // common offset. Naive sum-of-squares loses this fixture.
  stats::Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(1.0e9 + x);
  EXPECT_NEAR(s.mean(), 1.0e9 + 3.0, 1e-3);
  EXPECT_NEAR(s.variance(), 2.5, 1e-6);
}

TEST(WelfordFixture, DegenerateCounts) {
  stats::Summary s;
  EXPECT_EQ(ci95_half_width(s), 0.0);  // no samples
  s.add(7.0);
  EXPECT_EQ(ci95_half_width(s), 0.0);  // one sample: no interval
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(ci95_half_width(s), 0.0);  // zero variance
}

// --- Report aggregate fixture ------------------------------------------------

CollectionReport report_with(double throughput, std::uint64_t pulls) {
  CollectionReport r;
  r.throughput = throughput;
  r.normalized_throughput = throughput / 10.0;
  r.server_pulls = pulls;
  r.mean_blocks_per_peer = 2.0 * throughput;
  return r;
}

TEST(AggregateReport, FoldsMetricsByName) {
  MetricTable agg;
  agg.add(report_sample(report_with(1.0, 10)));
  agg.add(report_sample(report_with(2.0, 20)));
  agg.add(report_sample(report_with(3.0, 30)));
  EXPECT_EQ(agg.replicas(), 3u);
  EXPECT_DOUBLE_EQ(agg.mean("throughput"), 2.0);
  EXPECT_DOUBLE_EQ(agg.at("throughput").variance(), 1.0);
  EXPECT_DOUBLE_EQ(agg.mean("server_pulls"), 20.0);
  EXPECT_DOUBLE_EQ(agg.mean("mean_blocks_per_peer"), 4.0);
  const double expected_ci = student_t975(2) * 1.0 / std::sqrt(3.0);
  EXPECT_NEAR(agg.ci95("throughput"), expected_ci, 1e-9);
  EXPECT_THROW((void)agg.at("no_such_metric"), std::out_of_range);
}

TEST(AggregateReport, JsonCarriesEveryMetric) {
  MetricTable agg;
  agg.add(report_sample(report_with(1.5, 12)));
  agg.add(report_sample(report_with(2.5, 14)));
  const std::string json = aggregate_json(agg);
  EXPECT_NE(json.find("\"replicas\":2"), std::string::npos);
  for (const ReportMetric& m : kReportMetrics) {
    std::string key{"\""};
    key += m.name;
    key += '"';
    EXPECT_NE(json.find(key), std::string::npos) << "missing metric " << m.name;
  }
  for (const char* field : {"mean", "stddev", "ci95", "min", "max"}) {
    EXPECT_NE(json.find(field), std::string::npos);
  }
}

// --- Empirical CI coverage ---------------------------------------------------

TEST(CiCoverage, NominalRateOnGaussianSamples) {
  // 400 independent experiments, each estimating the mean of
  // N(mu, sigma^2) from n=8 draws with a t-based 95% CI. The t interval
  // is exact for Gaussian data, so coverage is Binomial(400, 0.95):
  // sd ≈ 1.1%, and [90%, 99%] is a > 4-sigma acceptance band — tight
  // enough to catch a z-vs-t mixup (z at n=8 covers ~92%, which the
  // paired check below targets directly).
  constexpr int kExperiments = 400;
  constexpr int kSamples = 8;
  constexpr double kMu = 3.7;
  constexpr double kSigma = 2.0;

  const SeedSequence seeds = SeedSequence{0xC0FFEE}.child(1);
  int covered = 0;
  int covered_z = 0;
  for (int e = 0; e < kExperiments; ++e) {
    std::mt19937_64 rng{seeds.stream(static_cast<std::uint64_t>(e))};
    std::normal_distribution<double> dist{kMu, kSigma};
    stats::Summary s;
    for (int i = 0; i < kSamples; ++i) s.add(dist(rng));
    const double ci = ci95_half_width(s);
    if (std::abs(s.mean() - kMu) <= ci) ++covered;
    const double z_ci = 1.96 * s.stddev() / std::sqrt(double{kSamples});
    if (std::abs(s.mean() - kMu) <= z_ci) ++covered_z;
  }
  const double rate = static_cast<double>(covered) / kExperiments;
  EXPECT_GE(rate, 0.90) << "CI too narrow: covers " << rate;
  EXPECT_LE(rate, 0.99) << "CI too wide: covers " << rate;
  // The t correction must buy real coverage over the naive z interval
  // at this small n — this is the regression test for quietly swapping
  // student_t975 back to 1.96.
  EXPECT_GT(covered, covered_z);
}

}  // namespace
}  // namespace icollect::runner
