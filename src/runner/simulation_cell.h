#pragma once

/// \file simulation_cell.h
/// The CollectionSystem replica body of the replica engine: a cell whose
/// replicas each warm up and measure one simulation and yield the
/// report's kReportMetrics.
///
/// Telemetry under parallel execution: when `metrics_dir` is set, each
/// replica writes a full bundle into `<dir>/replica-<r>/`; after the
/// fan-out finalize_cell_telemetry() merges the per-replica
/// `snapshots.jsonl` series (columns averaged across replicas at each
/// sample index — the cadence is virtual-time-driven and identical for
/// all replicas) into `<dir>/snapshots.jsonl` + `<dir>/snapshots.csv`,
/// and writes the cell `config.json` and aggregate `summary.json`
/// alongside.

#include <string>
#include <vector>

#include "core/collection_system.h"
#include "runner/engine.h"

namespace icollect::runner {

/// One experiment cell: a configuration plus its run shape.
struct ReplicaPlan {
  p2p::ProtocolConfig config;
  double warm = 10.0;
  double measure = 30.0;
  std::size_t replicas = 8;

  /// Optional merged-telemetry bundle directory ("" = no telemetry).
  std::string metrics_dir;
  double metrics_interval = 0.5;
};

/// Run one replica to completion. `plan.config.seed` is overridden with
/// `seed`. When the plan has a `metrics_dir`, the replica writes its own
/// telemetry bundle into `<metrics_dir>/replica-<replica>/`.
[[nodiscard]] CollectionReport run_one_replica(const ReplicaPlan& plan,
                                               std::uint64_t seed,
                                               std::size_t replica = 0);

/// A cell whose replicas are run_one_replica() folded by report_sample().
[[nodiscard]] Cell simulation_cell(ReplicaPlan plan, std::uint64_t seed_key);

/// Merge the per-replica snapshot series of a completed cell into
/// `<metrics_dir>/snapshots.{jsonl,csv}` and write the cell-level
/// `config.json` / `summary.json`. No-op when the plan has no
/// metrics_dir.
void finalize_cell_telemetry(const ReplicaPlan& plan,
                             const MetricTable& table);

}  // namespace icollect::runner
