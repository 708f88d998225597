/// \file icollect_sweep.cpp
/// Parameter-grid Monte-Carlo driver: fan a (grid x replicas) sweep over
/// a work-stealing thread pool and emit one JSONL row per cell with
/// mean / stddev / 95% CI aggregates for every report metric.
///
///   icollect_sweep [key=value ...] [flags]    (--help lists them all)
///
/// Determinism contract: identical (seed, grid, replicas) produce
/// byte-identical JSONL for ANY --jobs value — replica seeds are derived
/// per (cell, replica) from the root seed, results land in pre-assigned
/// slots, and aggregation runs in index order after the fan-out. Wall
/// clock and worker count are reported on stderr only, never in the
/// JSONL.
///
/// Examples:
///   icollect_sweep peers=150 lambda=20 mu=10 --grid-s=1,10,20
///       --grid-c=2,5,10 --replicas=8 --jobs=8 --out=fig3.jsonl
///   icollect_sweep peers=60 --grid-s=2,4 --replicas=4
///       --metrics-out=sweep_bundle

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/config_args.h"
#include "core/icollect.h"
#include "obs/json.h"
#include "runner/simulation_cell.h"

namespace {

using namespace icollect;

struct Axis {
  std::string key;             // "s", "c", "mu", "lambda", "churn"
  std::vector<double> values;  // parsed list; s cast to size_t on apply
};

/// A comma list of numbers; nullopt on an empty list or a bad item.
std::optional<std::vector<double>> parse_list(std::string_view text) {
  std::vector<double> out;
  while (true) {
    const auto comma = text.find(',');
    const auto v = cli::parse_number<double>(text.substr(0, comma));
    if (!v) return std::nullopt;
    out.push_back(*v);
    if (comma == std::string_view::npos) return out;
    text.remove_prefix(comma + 1);
  }
}

void apply_axis(p2p::ProtocolConfig& cfg, const std::string& key, double v) {
  if (key == "s") {
    cfg.segment_size = static_cast<std::size_t>(v);
  } else if (key == "c") {
    cfg.set_normalized_capacity(v);
  } else if (key == "mu") {
    cfg.mu = v;
  } else if (key == "lambda") {
    cfg.lambda = v;
  } else if (key == "churn") {
    cfg.churn.enabled = v > 0.0;
    cfg.churn.mean_lifetime = v;
  }
}

std::string axis_label(const std::string& key, double v) {
  char buf[64];
  if (key == "s") {
    std::snprintf(buf, sizeof(buf), "s=%zu", static_cast<std::size_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%s=%g", key.c_str(), v);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  double warm = 10.0;
  double measure = 30.0;
  std::size_t replicas = 8;
  long jobs = 0;  // 0 = hardware concurrency
  std::uint64_t seed = 1;
  std::string out_path;
  std::string metrics_dir;
  double metrics_interval = 0.5;
  std::vector<Axis> axes;

  p2p::ProtocolConfig base;
  cli::Flags flags{"[key=value ...] [flags]"};
  flags.section("protocol keys:");
  ConfigKeys keys{flags, base};
  flags.section("grid axes (comma lists, cartesian product; churn 0 = off):");
  for (const char* axis : {"s", "c", "mu", "lambda", "churn"}) {
    flags.parsed("--grid-" + std::string{axis}, "V,V,...",
                 std::string{axis} + "= values", axes,
                 [axis](std::string_view text) -> std::optional<Axis> {
                   auto values = parse_list(text);
                   if (!values) return std::nullopt;
                   return Axis{axis, std::move(*values)};
                 });
  }
  flags.section("runner flags:")
      .add("--replicas", "R", "replicas per cell (default 8)", replicas)
      .add("--jobs", "J", "worker threads (default: hardware)", jobs)
      .add("--seed", "S", "root of the per-cell/per-replica seed tree",
           seed)
      .add("--warm", "T", "warm-up virtual time (default 10)", warm)
      .add("--measure", "T", "measured virtual time (default 30)", measure)
      .section("output:")
      .add("--out", "FILE", "JSONL, one row per cell (default stdout)",
           out_path)
      .add("--metrics-out", "DIR",
           "merged telemetry per cell (<DIR>/cell-<i>/)", metrics_dir)
      .add("--metrics-interval", "T", "snapshot spacing (default 0.5)",
           metrics_interval);
  flags.parse_or_exit(argc, argv);
  if (replicas < 1 || replicas > 100000) {
    flags.usage_error("--replicas must be in [1, 100000]");
  }
  if (metrics_interval <= 0.0) {
    flags.usage_error("--metrics-interval must be > 0");
  }
  try {
    keys.finish();
  } catch (const std::exception& e) {
    flags.usage_error(e.what());
  }

  // Cartesian product, declared-axis order, rightmost axis fastest —
  // the cell order (and therefore every seed) is part of the contract.
  std::vector<std::string> labels;
  std::vector<runner::ReplicaPlan> plans;
  std::vector<runner::Cell> cells;
  std::vector<std::size_t> idx(axes.size(), 0);
  while (true) {
    p2p::ProtocolConfig cfg = base;
    std::string label;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      apply_axis(cfg, axes[a].key, axes[a].values[idx[a]]);
      if (!label.empty()) label += ',';
      label += axis_label(axes[a].key, axes[a].values[idx[a]]);
    }
    if (label.empty()) label = "base";
    try {
      cfg.validate();
    } catch (const std::exception& e) {
      flags.usage_error("cell '" + label + "': " + e.what());
    }
    runner::ReplicaPlan plan;
    plan.config = cfg;
    plan.warm = warm;
    plan.measure = measure;
    plan.replicas = replicas;
    if (!metrics_dir.empty()) {
      plan.metrics_dir = metrics_dir + "/cell-" + std::to_string(cells.size());
      plan.metrics_interval = metrics_interval;
    }
    labels.push_back(label);
    cells.push_back(runner::simulation_cell(plan, cells.size()));
    plans.push_back(plan);
    // Odometer increment; empty axes list degenerates to the single base
    // cell.
    bool done = axes.empty();
    std::size_t a = axes.size();
    while (a > 0) {
      --a;
      if (++idx[a] < axes[a].values.size()) break;
      idx[a] = 0;
      if (a == 0) done = true;  // every axis wrapped: product exhausted
    }
    if (done) break;
  }

  const std::size_t n_jobs = runner::ThreadPool::resolve_jobs(jobs);
  std::fprintf(stderr,
               "icollect_sweep: %zu cells x %zu replicas on %zu jobs "
               "(seed %llu)\n",
               cells.size(), replicas, n_jobs,
               static_cast<unsigned long long>(seed));

  const auto t0 = std::chrono::steady_clock::now();
  runner::ThreadPool pool{n_jobs};
  const auto tables =
      runner::run_cells(runner::SeedSequence{seed}, cells, pool);
  for (std::size_t c = 0; c < plans.size(); ++c) {
    runner::finalize_cell_telemetry(plans[c], tables[c]);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot open --out=%s\n", out_path.c_str());
      return 1;
    }
  }
  std::ostream* out = out_path.empty() ? nullptr : &file;
  for (std::size_t c = 0; c < tables.size(); ++c) {
    obs::JsonObject row;
    row.field("cell", c)
        .field_str("label", labels[c])
        .field("seed", seed)
        .field("replicas", replicas)
        .field("warm", warm)
        .field("measure", measure)
        .field_raw("config", config_json(plans[c].config))
        .field_raw("aggregate", runner::aggregate_json(tables[c]));
    const std::string line = row.str();
    if (out != nullptr) {
      *out << line << '\n';
    } else {
      std::printf("%s\n", line.c_str());
    }
  }
  if (out != nullptr) out->flush();

  std::fprintf(stderr, "icollect_sweep: done in %.2fs (%zu simulations)\n",
               elapsed, cells.size() * replicas);
  return 0;
}
