#include "runner/aggregate.h"

#include <cmath>
#include <stdexcept>

#include "obs/json.h"

namespace icollect::runner {

double student_t975(std::uint64_t df) {
  // Two-sided 95% critical values of Student's t distribution.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
      2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
      2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
      2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df - 1];
  return 1.96;
}

double ci95_half_width(const stats::Summary& s) {
  if (s.count() < 2) return 0.0;
  const double n = static_cast<double>(s.count());
  return student_t975(s.count() - 1) * s.stddev() / std::sqrt(n);
}

void AggregateReport::add(const CollectionReport& report) {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    metrics_[i].add(kReportMetrics[i].read(report));
  }
}

const stats::Summary& AggregateReport::metric(std::string_view name) const {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (kReportMetrics[i].name == name) return metrics_[i];
  }
  throw std::out_of_range("AggregateReport: unknown metric '" +
                          std::string{name} + "'");
}

std::string summary_json(const stats::Summary& s) {
  obs::JsonObject o;
  o.field("mean", s.mean())
      .field("stddev", s.stddev())
      .field("ci95", ci95_half_width(s))
      .field("min", s.min())
      .field("max", s.max());
  return o.str();
}

void MetricTable::add(std::string_view name, double value) {
  for (auto& [n, s] : rows_) {
    if (n == name) {
      s.add(value);
      return;
    }
  }
  rows_.emplace_back(std::string{name}, stats::Summary{});
  rows_.back().second.add(value);
}

const stats::Summary* MetricTable::find(std::string_view name) const {
  for (const auto& [n, s] : rows_) {
    if (n == name) return &s;
  }
  return nullptr;
}

std::string MetricTable::to_json() const {
  obs::JsonObject o;
  for (const auto& [n, s] : rows_) o.field_raw(n, summary_json(s));
  return o.str();
}

std::string AggregateReport::to_json() const {
  obs::JsonObject metrics;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    metrics.field_raw(kReportMetrics[i].name, summary_json(metrics_[i]));
  }
  obs::JsonObject out;
  out.field("replicas", replicas()).field_raw("metrics", metrics.str());
  return out.str();
}

}  // namespace icollect::runner
