#pragma once

/// \file bench_util.h
/// Shared plumbing for the figure-reproduction harnesses: scale control,
/// the Monte-Carlo steady-state sweep (replicas x cells fanned over the
/// runner's thread pool), and aligned table printing.
///
/// Every figure binary prints the series the paper plots, with both the
/// analytical (ODE) and simulated values where applicable; simulated
/// cells report `mean±ci95` over independent replicas. Environment
/// knobs:
///   ICOLLECT_BENCH_SCALE=0.3  quick smoke run (population/duration)
///   ICOLLECT_BENCH_SCALE=3    publication-quality sizing
///   ICOLLECT_BENCH_REPS=8     replicas per simulated point (default 4)
///   ICOLLECT_BENCH_JOBS=8     worker threads (default: hardware)
///   ICOLLECT_BENCH_SEED=S     root of the seed tree (default built-in)
///
/// Seeding: every simulated point draws its replica seeds from
/// runner::SeedSequence rooted at (ICOLLECT_BENCH_SEED, bench name,
/// cell index, replica index) — no bench hand-rolls seed arithmetic, so
/// no two curve parameters ever share an RNG stream.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/collection_system.h"
#include "p2p/network.h"
#include "runner/simulation_cell.h"
#include "stats/csv.h"
#include "stats/summary.h"

namespace icollect::bench {

/// Global scale multiplier from the environment (default 1.0).
inline double scale() {
  static const double s = [] {
    const char* env = std::getenv("ICOLLECT_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::strtod(env, nullptr);
    return v > 0.0 ? v : 1.0;
  }();
  return s;
}

/// Population size / durations scaled from defaults.
inline std::size_t scaled_peers(std::size_t base) {
  const double v = static_cast<double>(base) * scale();
  return v < 20.0 ? 20 : static_cast<std::size_t>(v);
}
inline double scaled_time(double base) {
  return base * (scale() < 1.0 ? scale() : 1.0 + (scale() - 1.0) * 0.5);
}

/// Replication count for simulated points (ICOLLECT_BENCH_REPS,
/// default 4): each figure point aggregates this many independent
/// replicas, reported as mean ± 95% CI.
inline std::size_t reps() {
  static const std::size_t r = [] {
    const char* env = std::getenv("ICOLLECT_BENCH_REPS");
    if (env == nullptr) return std::size_t{4};
    const long v = std::strtol(env, nullptr, 10);
    return v >= 1 && v <= 1000 ? static_cast<std::size_t>(v)
                               : std::size_t{4};
  }();
  return r;
}

/// Worker threads for the bench sweep (ICOLLECT_BENCH_JOBS, default:
/// hardware concurrency).
inline std::size_t jobs() {
  static const std::size_t j = [] {
    const char* env = std::getenv("ICOLLECT_BENCH_JOBS");
    const long v = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
    return runner::ThreadPool::resolve_jobs(v);
  }();
  return j;
}

/// Root of the bench seed tree (ICOLLECT_BENCH_SEED).
inline std::uint64_t seed_root() {
  static const std::uint64_t s = [] {
    const char* env = std::getenv("ICOLLECT_BENCH_SEED");
    return env != nullptr ? std::strtoull(env, nullptr, 10)
                          : 0x1CDC52008ULL;  // icdcs'2008
  }();
  return s;
}

/// The process-wide worker pool, sized by jobs().
inline runner::ThreadPool& pool() {
  static runner::ThreadPool p{jobs()};
  return p;
}

/// FNV-1a, used to give each bench binary its own branch of the seed
/// tree so figures never share replica streams.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Monte-Carlo steady-state sweep: declare every simulated point of a
/// figure up front with add(), execute them all with run() — each
/// (point, replica) pair is one task on the shared pool, so a 30-point
/// figure with 4 replicas exposes 120-way parallelism — then read the
/// per-point kReportMetrics table with result().
class SteadyStateSweep {
 public:
  /// `bench_name` selects this bench's branch of the seed tree.
  explicit SteadyStateSweep(std::string_view bench_name)
      : seeds_{runner::SeedSequence{seed_root()}.child(fnv1a(bench_name))} {}

  /// Register one simulated point; returns its handle for result().
  /// Warm-up and measure durations are in unscaled units (the global
  /// ICOLLECT_BENCH_SCALE policy is applied here).
  std::size_t add(const p2p::ProtocolConfig& cfg, double warm = 10.0,
                  double measure = 25.0) {
    runner::ReplicaPlan plan;
    plan.config = cfg;
    plan.warm = scaled_time(warm);
    plan.measure = scaled_time(measure);
    plan.replicas = reps();
    cells_.push_back(runner::simulation_cell(std::move(plan), cells_.size()));
    return cells_.size() - 1;
  }

  /// Execute every registered point (replicas x points in parallel).
  void run() { tables_ = runner::run_cells(seeds_, cells_, pool()); }

  [[nodiscard]] const runner::MetricTable& result(std::size_t handle) const {
    return tables_.at(handle);
  }

 private:
  runner::SeedSequence seeds_;
  std::vector<runner::Cell> cells_;
  std::vector<runner::MetricTable> tables_;
};

/// Directory for optional CSV export (ICOLLECT_CSV_DIR); nullptr when
/// unset. Each figure bench mirrors its printed table into
/// `<dir>/<name>.csv` so results plot directly.
inline std::unique_ptr<stats::CsvWriter> maybe_csv(const std::string& name) {
  const char* dir = std::getenv("ICOLLECT_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return nullptr;
  return std::make_unique<stats::CsvWriter>(std::string{dir} + "/" + name +
                                            ".csv");
}

/// Aligned markdown-ish table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_{std::move(headers)} {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Mirror the table into a CSV file (no-op if writer is null).
  void to_csv(stats::CsvWriter* csv) const {
    if (csv == nullptr) return;
    csv->write_row(headers_);
    for (const auto& row : rows_) csv->write_row(row);
  }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = display_width(headers_[c]);
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], display_width(row[c]));
      }
    }
    print_row(headers_, width);
    std::string rule;
    for (std::size_t c = 0; c < width.size(); ++c) {
      rule += std::string(width[c] + 2, '-');
      if (c + 1 < width.size()) rule += "+";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row, width);
  }

 private:
  /// Terminal columns of a UTF-8 cell: count code points, not bytes
  /// (the ± of a mean±ci cell is two bytes, one column).
  static std::size_t display_width(const std::string& s) {
    std::size_t w = 0;
    for (const char ch : s) {
      if ((static_cast<unsigned char>(ch) & 0xC0U) != 0x80U) ++w;
    }
    return w;
  }

  static void print_row(const std::vector<std::string>& cells,
                        const std::vector<std::size_t>& width) {
    std::string line;
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      line += " " + cell +
              std::string(width[c] - display_width(cell) + 1, ' ');
      if (c + 1 < width.size()) line += "|";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

/// "mean±ci" cell for metric `name` of a replicated point, both divided
/// by `divisor` (e.g. the population, for a per-peer figure); collapses
/// to the bare mean when only one replica ran (no interval to report).
inline std::string fmt_ci(const runner::MetricTable& point,
                          std::string_view name, int prec = 3,
                          double divisor = 1.0) {
  const double mean = point.mean(name) / divisor;
  if (point.replicas() < 2) return fmt(mean, prec);
  return fmt(mean, prec) + "±" + fmt(point.ci95(name) / divisor, prec);
}

}  // namespace icollect::bench
