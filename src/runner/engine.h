#pragma once

/// \file engine.h
/// The replica engine: the one way Monte-Carlo replicas run.
///
/// A table is a list of cells; each cell runs R replicas of a body that
/// maps (seed, replica index) to named values. Every (cell, replica)
/// pair is one ThreadPool task, so a 30-cell x 8-replica grid exposes
/// 240-way parallelism instead of 8-way with a barrier per cell.
///
/// Seeding: replica r of a cell runs on
/// `seeds.replica_seed(cell.seed_key, r)`, i.e.
/// `seeds.child(cell.seed_key).stream(r)`. Cells that share a seed key
/// share replica r's seed — the policy and defence arms of one bench
/// table compare paired trajectories that way — while a sweep gives
/// every cell its own key. The seeds are a pure function of (root seed,
/// key, replica), independent of the worker count.
///
/// Reduction: each replica's sample lands in a pre-assigned slot and
/// every cell folds its slots in replica order after the fan-out, so
/// identical (seeds, cells) produce byte-identical tables for any
/// number of workers.

#include <cstdint>
#include <functional>
#include <vector>

#include "runner/aggregate.h"
#include "runner/seed_sequence.h"
#include "runner/thread_pool.h"

namespace icollect::runner {

/// One replica: its seed and index in, its named outcomes out. Bodies
/// run concurrently, so they must not share mutable state (beyond
/// writing their own replica's slot of a caller-owned vector).
using ReplicaBody =
    std::function<Sample(std::uint64_t seed, std::size_t replica)>;

struct Cell {
  ReplicaBody body;
  std::size_t replicas = 1;  ///< >= 1
  std::uint64_t seed_key = 0;
};

/// Run every replica of every cell as one flat task set; the result
/// holds one table per cell, indexed like `cells`.
[[nodiscard]] std::vector<MetricTable> run_cells(
    const SeedSequence& seeds, const std::vector<Cell>& cells,
    ThreadPool& pool);

}  // namespace icollect::runner
