#pragma once

/// \file aggregate.h
/// Order-independent aggregation of Monte-Carlo replica outcomes.
///
/// A MetricTable folds R replicas' named values into per-metric
/// {mean, stddev, 95% CI half-width, min, max} via Welford's online
/// algorithm (stats::Summary). The CI uses the two-sided Student-t
/// 0.975 quantile at R-1 degrees of freedom, so small replica counts get
/// honestly wide intervals instead of the optimistic normal z = 1.96.
///
/// Determinism contract: replicas must be folded in replica-index order
/// (0..R-1). The replica engine (runner/engine.h) guarantees this by
/// parking each replica's sample in a pre-assigned slot and reducing
/// sequentially after the parallel fan-out — which is why identical
/// (seed, cells, replicas) produce byte-identical to_json() output for
/// any worker count.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/report.h"
#include "stats/summary.h"

namespace icollect::runner {

/// Two-sided Student-t critical value t_{0.975, df} (df >= 1). Exact
/// table through df = 30, the normal limit 1.96 beyond.
[[nodiscard]] double student_t975(std::uint64_t df);

/// Half-width of the 95% confidence interval on the mean of `s`
/// (0 when fewer than two samples).
[[nodiscard]] double ci95_half_width(const stats::Summary& s);

/// One metric's replica aggregate as
/// {"mean":..,"stddev":..,"ci95":..,"min":..,"max":..}.
[[nodiscard]] std::string summary_json(const stats::Summary& s);

/// One replica's named outcomes, in the order they fold into a table.
/// The names are views: use string literals (or other names that
/// outlive the fold), as kReportMetrics and the bench tools do.
using Sample = std::vector<std::pair<std::string_view, double>>;

/// Named metric summaries, accumulated in insertion order so the JSON is
/// byte-stable across runs with the same seed.
class MetricTable {
 public:
  void add(std::string_view name, double value);

  /// Fold one replica's sample in. Call in replica-index order.
  void add(const Sample& sample) {
    for (const auto& [name, value] : sample) add(name, value);
  }

  /// Summary by name; throws std::out_of_range on unknown names.
  [[nodiscard]] const stats::Summary& at(std::string_view name) const;

  [[nodiscard]] double mean(std::string_view name) const {
    return at(name).mean();
  }
  [[nodiscard]] double ci95(std::string_view name) const {
    return ci95_half_width(at(name));
  }

  /// Samples folded into the first metric (0 for an empty table).
  [[nodiscard]] std::uint64_t replicas() const noexcept {
    return rows_.empty() ? 0 : rows_.front().second.count();
  }

  /// {"<name>":<summary_json>,...} in insertion order.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<std::pair<std::string, stats::Summary>> rows_;
};

/// One scalar metric of a CollectionReport: its name and its reader.
struct ReportMetric {
  std::string_view name;
  double (*read)(const CollectionReport&);
};

namespace detail {
template <auto Member>
double report_field(const CollectionReport& r) {
  return static_cast<double>(r.*Member);
}
}  // namespace detail

/// The scalar metrics extracted from each CollectionReport, in the fixed
/// order they aggregate and serialize in. A name and its reader share a
/// row, so the two cannot drift apart.
inline constexpr auto kReportMetrics = std::to_array<ReportMetric>({
    {"throughput", detail::report_field<&CollectionReport::throughput>},
    {"normalized_throughput",
     detail::report_field<&CollectionReport::normalized_throughput>},
    {"goodput", detail::report_field<&CollectionReport::goodput>},
    {"normalized_goodput",
     detail::report_field<&CollectionReport::normalized_goodput>},
    {"mean_block_delay",
     detail::report_field<&CollectionReport::mean_block_delay>},
    {"mean_segment_delay",
     detail::report_field<&CollectionReport::mean_segment_delay>},
    {"max_segment_delay",
     detail::report_field<&CollectionReport::max_segment_delay>},
    {"mean_blocks_per_peer",
     detail::report_field<&CollectionReport::mean_blocks_per_peer>},
    {"storage_overhead",
     detail::report_field<&CollectionReport::storage_overhead>},
    {"empty_peer_fraction",
     detail::report_field<&CollectionReport::empty_peer_fraction>},
    {"redundancy_fraction",
     [](const CollectionReport& r) { return r.redundancy_fraction(); }},
    {"segments_injected",
     detail::report_field<&CollectionReport::segments_injected>},
    {"segments_decoded",
     detail::report_field<&CollectionReport::segments_decoded>},
    {"segments_lost", detail::report_field<&CollectionReport::segments_lost>},
    {"blocks_injected",
     detail::report_field<&CollectionReport::blocks_injected>},
    {"original_blocks_recovered",
     detail::report_field<&CollectionReport::original_blocks_recovered>},
    {"server_pulls", detail::report_field<&CollectionReport::server_pulls>},
    {"redundant_pulls",
     detail::report_field<&CollectionReport::redundant_pulls>},
    {"peers_departed",
     detail::report_field<&CollectionReport::peers_departed>},
    {"blocks_lost_to_churn",
     detail::report_field<&CollectionReport::blocks_lost_to_churn>},
    {"saved_original_blocks_degree",
     [](const CollectionReport& r) {
       return r.saved.saved_original_blocks_degree;
     }},
    {"saved_original_blocks_rank",
     [](const CollectionReport& r) {
       return r.saved.saved_original_blocks_rank;
     }},
});

/// A CollectionReport's kReportMetrics as one replica's sample.
[[nodiscard]] Sample report_sample(const CollectionReport& report);

/// {"replicas":R,"metrics":<table.to_json()>} — the per-cell aggregate of
/// sweep JSONL and of a telemetry bundle's summary.json.
[[nodiscard]] std::string aggregate_json(const MetricTable& table);

}  // namespace icollect::runner
