#include "runner/simulation_cell.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/config_args.h"
#include "obs/json.h"
#include "obs/telemetry.h"

namespace icollect::runner {

namespace {

/// One parsed snapshot row: flat {"key":number|null,...} as emitted by
/// obs::Snapshotter. Keys are column names in registration order.
struct SnapshotRow {
  std::vector<std::string> keys;
  std::vector<double> values;  // NaN encodes null
};

[[nodiscard]] std::vector<SnapshotRow> read_snapshot_rows(
    const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error("replica telemetry missing: " + path);
  }
  std::vector<SnapshotRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    SnapshotRow row;
    std::size_t i = 0;
    while (true) {
      const std::size_t kq = line.find('"', i);
      if (kq == std::string::npos) break;
      const std::size_t kend = line.find('"', kq + 1);
      if (kend == std::string::npos || line[kend + 1] != ':') break;
      row.keys.emplace_back(line, kq + 1, kend - kq - 1);
      const std::size_t vstart = kend + 2;
      std::size_t vend = vstart;
      while (vend < line.size() && line[vend] != ',' && line[vend] != '}') {
        ++vend;
      }
      const std::string value = line.substr(vstart, vend - vstart);
      row.values.push_back(value == "null"
                               ? std::numeric_limits<double>::quiet_NaN()
                               : std::strtod(value.c_str(), nullptr));
      i = vend + 1;
    }
    if (!row.keys.empty()) rows.push_back(std::move(row));
  }
  return rows;
}

/// Average the per-replica snapshot series column-wise at each sample
/// index and write the merged snapshots.jsonl / snapshots.csv. All
/// replicas share the virtual-time cadence, so sample index k lands at
/// the same t in every replica; t itself averages to itself.
void merge_replica_snapshots(const std::string& dir, std::size_t replicas) {
  std::vector<std::vector<SnapshotRow>> series;
  series.reserve(replicas);
  std::size_t row_count = std::numeric_limits<std::size_t>::max();
  for (std::size_t r = 0; r < replicas; ++r) {
    series.push_back(read_snapshot_rows(dir + "/replica-" + std::to_string(r) +
                                        "/snapshots.jsonl"));
    row_count = std::min(row_count, series.back().size());
  }
  if (series.empty() || row_count == 0 ||
      row_count == std::numeric_limits<std::size_t>::max()) {
    return;
  }
  const auto& columns = series.front().front().keys;

  std::ofstream jsonl{dir + "/snapshots.jsonl"};
  std::ofstream csv{dir + "/snapshots.csv"};
  if (!jsonl || !csv) {
    throw std::runtime_error("cannot open merged snapshot files under " + dir);
  }
  for (std::size_t c = 0; c < columns.size(); ++c) {
    csv << (c == 0 ? "" : ",") << columns[c];
  }
  csv << '\n';

  for (std::size_t k = 0; k < row_count; ++k) {
    std::string line{"{"};
    std::string csv_line;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      double sum = 0.0;
      std::size_t n = 0;
      for (const auto& rep : series) {
        const auto& row = rep[k];
        if (c < row.values.size() && std::isfinite(row.values[c])) {
          sum += row.values[c];
          ++n;
        }
      }
      const double mean =
          n > 0 ? sum / static_cast<double>(n)
                : std::numeric_limits<double>::quiet_NaN();
      if (c > 0) {
        line += ',';
        csv_line += ',';
      }
      line += '"';
      line += obs::json_escape(columns[c]);
      line += "\":";
      obs::append_json_number(line, mean);
      if (std::isfinite(mean)) {
        std::string num;
        obs::append_json_number(num, mean);
        csv_line += num;
      }
    }
    line += '}';
    jsonl << line << '\n';
    csv << csv_line << '\n';
  }
}

}  // namespace

CollectionReport run_one_replica(const ReplicaPlan& plan, std::uint64_t seed,
                                 std::size_t replica) {
  p2p::ProtocolConfig cfg = plan.config;
  cfg.seed = seed;
  CollectionSystem system{cfg};
  std::unique_ptr<obs::Telemetry> tel;
  if (!plan.metrics_dir.empty()) {
    obs::TelemetryOptions topts;
    topts.metrics_dir =
        plan.metrics_dir + "/replica-" + std::to_string(replica);
    topts.metrics_interval = plan.metrics_interval;
    tel = std::make_unique<obs::Telemetry>(topts);
    system.attach_telemetry(*tel);
  }
  system.warm_up(plan.warm);
  system.run(plan.measure);
  CollectionReport report = system.report();
  if (tel) tel->write_summary(to_json(report));
  return report;
}

Cell simulation_cell(ReplicaPlan plan, std::uint64_t seed_key) {
  const std::size_t replicas = plan.replicas;
  return {[plan = std::move(plan)](std::uint64_t seed, std::size_t r) {
            return report_sample(run_one_replica(plan, seed, r));
          },
          replicas, seed_key};
}

void finalize_cell_telemetry(const ReplicaPlan& plan,
                             const MetricTable& table) {
  if (plan.metrics_dir.empty()) return;
  merge_replica_snapshots(plan.metrics_dir, plan.replicas);
  std::ofstream config{plan.metrics_dir + "/config.json"};
  config << config_json(plan.config) << '\n';
  std::ofstream summary{plan.metrics_dir + "/summary.json"};
  summary << aggregate_json(table) << '\n';
}

}  // namespace icollect::runner
