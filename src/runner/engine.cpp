#include "runner/engine.h"

#include "common/assert.h"

namespace icollect::runner {

std::vector<MetricTable> run_cells(const SeedSequence& seeds,
                                   const std::vector<Cell>& cells,
                                   ThreadPool& pool) {
  struct Task {
    std::size_t cell;
    std::size_t replica;
  };
  std::vector<Task> tasks;
  std::vector<std::vector<Sample>> samples(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    ICOLLECT_EXPECTS(cells[c].replicas >= 1);
    samples[c].resize(cells[c].replicas);
    for (std::size_t r = 0; r < cells[c].replicas; ++r) tasks.push_back({c, r});
  }

  pool.parallel_for(tasks.size(), [&](std::size_t i) {
    const auto [c, r] = tasks[i];
    samples[c][r] = cells[c].body(seeds.replica_seed(cells[c].seed_key, r), r);
  });

  std::vector<MetricTable> tables(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (const Sample& sample : samples[c]) tables[c].add(sample);
  }
  return tables;
}

}  // namespace icollect::runner
