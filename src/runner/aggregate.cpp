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

const stats::Summary& MetricTable::at(std::string_view name) const {
  for (const auto& [n, s] : rows_) {
    if (n == name) return s;
  }
  std::string what{"MetricTable: unknown metric '"};
  what += name;
  what += '\'';
  throw std::out_of_range(what);
}

std::string MetricTable::to_json() const {
  obs::JsonObject o;
  for (const auto& [n, s] : rows_) o.field_raw(n, summary_json(s));
  return o.str();
}

Sample report_sample(const CollectionReport& report) {
  Sample sample;
  sample.reserve(kReportMetrics.size());
  for (const ReportMetric& m : kReportMetrics) {
    sample.emplace_back(m.name, m.read(report));
  }
  return sample;
}

std::string aggregate_json(const MetricTable& table) {
  obs::JsonObject out;
  out.field("replicas", table.replicas()).field_raw("metrics", table.to_json());
  return out.str();
}

}  // namespace icollect::runner
