/// \file icollect_scenarios.cpp
/// Scenario bench generator: the two figure-style tables behind
/// BENCH_scenarios.json.
///
///   Table A — pollution spread vs. honest fraction (simulator):
///     for each dishonest fraction, a defended arm (homomorphic
///     integrity checks on) and an undefended control (checks=0),
///     reporting corruption volume, quarantine counts, the fraction of
///     server pulls that delivered polluted blocks, decoded-payload CRC
///     failures (pollution that reached Gaussian elimination), and
///     normalized throughput.
///
///   Table B — collection-time inflation vs. fault severity (loopback
///     cluster): half the peers are blackholed for a partition window
///     of growing duration (the severity axis); each point reports
///     completion time, its inflation over the unfaulted baseline,
///     fault drops, and send-queue refusals (expected to stay 0 — caps
///     must hold under partition pressure). Isolated peers hold
///     segments the servers still need, so no run completes before
///     its heal; a partition that outlasts the unfaulted completion
///     time pushes completion past its heal deadline.
///
/// Every point aggregates R replicas on the replica engine
/// (runner::run_cells) into mean / stddev / 95% CI half-width
/// (Student-t) / min / max, so the table carries honest error bars at
/// small R. Replica r of every point of one table runs on the same
/// seed, SeedSequence{S}.child(table).stream(r): the defended and
/// undefended arms, and every partition duration, see paired workloads.
///
///   icollect_scenarios [--replicas R] [--seed S] [--out FILE] [--quick]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_table.h"
#include "common/cli.h"
#include "core/icollect.h"
#include "node/cluster.h"
#include "obs/json.h"
#include "runner/engine.h"
#include "workload/trace_replay.h"

namespace {

using namespace icollect;

// --- Table A: pollution spread vs. honest fraction (simulator) ------------

struct PollutionPointSpec {
  double dishonest_fraction;
  std::size_t integrity_checks;  // 0 = undefended control arm
};

p2p::ProtocolConfig sim_base_config() {
  p2p::ProtocolConfig cfg;
  cfg.num_peers = 40;
  cfg.lambda = 8.0;
  cfg.segment_size = 4;
  cfg.mu = 8.0;
  cfg.gamma = 1.0;
  cfg.buffer_cap = 40;
  cfg.num_servers = 2;
  cfg.set_normalized_capacity(2.5);
  cfg.payload_bytes = 16;
  return cfg;
}

runner::Sample run_pollution_replica(const PollutionPointSpec& point,
                                     std::uint64_t seed, double warm,
                                     double measure) {
  p2p::ProtocolConfig cfg = sim_base_config();
  cfg.adversary.dishonest_fraction = point.dishonest_fraction;
  cfg.adversary.strategy = proto::CorruptionStrategy::kRandomPayload;
  cfg.adversary.integrity_checks = point.integrity_checks;
  cfg.seed = seed;

  CollectionSystem system{cfg};
  system.warm_up(warm);
  system.run(measure);
  const CollectionReport rep = system.report();
  const auto& m = system.network().metrics();
  return {
      {"blocks_corrupted", static_cast<double>(m.blocks_corrupted)},
      {"blocks_quarantined", static_cast<double>(m.blocks_quarantined)},
      {"polluted_pull_fraction",
       rep.server_pulls > 0 ? static_cast<double>(m.polluted_pulls) /
                                  static_cast<double>(rep.server_pulls)
                            : 0.0},
      {"payload_crc_failures",
       static_cast<double>(rep.payload_crc_failures)},
      {"segments_decoded", static_cast<double>(rep.segments_decoded)},
      {"normalized_throughput", rep.normalized_throughput},
  };
}

// --- Table B: collection-time inflation vs. fault severity (cluster) ------

node::ClusterConfig cluster_base_config() {
  node::ClusterConfig cfg;
  cfg.num_peers = 8;
  cfg.num_servers = 2;
  cfg.segment_size = 3;
  cfg.buffer_cap = 24;
  cfg.payload_bytes = 16;
  cfg.lambda = 6.0;
  cfg.mu = 6.0;
  cfg.gamma = 0.5;
  cfg.server_rate = 16.0;
  cfg.segments_per_peer = 2;
  cfg.retain_own_until_acked = true;
  return cfg;
}

runner::Sample run_fault_replica(double partition_fraction,
                                 double partition_at, double duration,
                                 std::uint64_t seed, double max_time) {
  node::ClusterConfig cfg = cluster_base_config();
  cfg.seed = seed;
  cfg.net.seed = cfg.seed;
  node::LoopbackCluster cluster{cfg};
  if (duration > 0.0) {
    cluster.set_isolation_window(partition_fraction, partition_at,
                                 partition_at + duration);
  }
  const bool complete = cluster.run_to_completion(max_time);
  return {
      {"complete", complete ? 1.0 : 0.0},
      {"completion_time", cluster.now()},
      {"fault_drops", static_cast<double>(cluster.net().fault_drops())},
      {"queue_refusals",
       static_cast<double>(cluster.net().backpressure_refusals())},
      {"segments_decoded", static_cast<double>(cluster.segments_decoded())},
  };
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t replicas = 5;
  std::uint64_t seed = 1;
  std::string out_path;
  bool quick = false;

  cli::Flags flags;
  flags.add("--replicas", "R", "seeded replicas per point (default 5)",
            replicas)
      .add("--seed", "S", "root of the replica seed tree (default 1)", seed)
      .add("--out", "FILE", "write JSON to FILE (default stdout)", out_path)
      .add("--quick", "", "2 replicas, shorter runs (CI smoke)", quick);
  flags.parse_or_exit(argc, argv);
  if (quick) replicas = 2;
  if (replicas == 0) flags.usage_error("--replicas must be >= 1");
  tools::BenchDocument doc{"icollect-scenario-bench-v1", replicas, seed};
  if (!doc.open(out_path, argv[0])) return 2;
  const double warm = quick ? 1.0 : 2.0;
  const double measure = quick ? 6.0 : 15.0;
  const double max_time = 600.0;

  // Seed keys: every point of a table shares replica r's seed.
  constexpr std::uint64_t kPollutionTable = 0;
  constexpr std::uint64_t kFaultTable = 1;

  // One cell per point, pollution table first; each point object gets
  // its cell's table in the same order once the fan-out is done.
  std::vector<runner::Cell> cells;
  std::vector<obs::JsonObject> pollution_points;
  for (const double f : {0.0, 0.10, 0.25, 0.40}) {
    for (const std::size_t checks : {std::size_t{2}, std::size_t{0}}) {
      if (f == 0.0 && checks == 0) continue;  // no pollution to defend
      std::fprintf(stderr, "pollution: fraction=%.2f checks=%zu ...\n", f,
                   checks);
      pollution_points.emplace_back()
          .field("dishonest_fraction", f)
          .field("honest_fraction", 1.0 - f)
          .field("integrity_checks", static_cast<std::uint64_t>(checks))
          .field_str("arm", checks > 0 ? "defended" : "undefended");
      const PollutionPointSpec point{f, checks};
      cells.push_back({[=](std::uint64_t s, std::size_t) {
                         return run_pollution_replica(point, s, warm,
                                                      measure);
                       },
                       replicas, kPollutionTable});
    }
  }
  const node::ClusterConfig cluster_base = cluster_base_config();
  const double partition_at = 1.0;
  const double durations[] = {0.0, 2.0, 4.0, 8.0};
  std::vector<obs::JsonObject> fault_points;
  for (const double d : durations) {
    std::fprintf(stderr, "faults: partition_duration=%.1f ...\n", d);
    const double fraction = d > 0.0 ? 0.5 : 0.0;
    fault_points.emplace_back()
        .field("partition_fraction", fraction)
        .field("partitioned_peers",
               static_cast<std::uint64_t>(workload::isolated_peer_count(
                   cluster_base.num_peers, fraction)))
        .field("partition_at", partition_at)
        .field("partition_duration", d);
    cells.push_back({[=](std::uint64_t s, std::size_t) {
                       return run_fault_replica(fraction, partition_at, d, s,
                                                max_time);
                     },
                     replicas, kFaultTable});
  }
  runner::ThreadPool pool{runner::ThreadPool::resolve_jobs(0)};
  const auto tables =
      runner::run_cells(runner::SeedSequence{seed}, cells, pool);

  const p2p::ProtocolConfig sim_base = sim_base_config();
  obs::JsonObject sim_cfg;
  sim_cfg.field("peers", static_cast<std::uint64_t>(sim_base.num_peers))
      .field("servers", static_cast<std::uint64_t>(sim_base.num_servers))
      .field("segment_size", static_cast<std::uint64_t>(sim_base.segment_size))
      .field("lambda", sim_base.lambda)
      .field("mu", sim_base.mu)
      .field("normalized_capacity", sim_base.normalized_capacity())
      .field("payload_bytes",
             static_cast<std::uint64_t>(sim_base.payload_bytes))
      .field_str("strategy", "random-payload")
      .field("warm", warm)
      .field("measure", measure);
  std::vector<std::string> points;
  std::size_t next = 0;
  for (obs::JsonObject& o : pollution_points) {
    points.push_back(o.field_raw("metrics", tables[next++].to_json()).str());
  }
  doc.add_table("pollution_vs_honest_fraction", sim_cfg.str(), points);

  obs::JsonObject cluster_cfg;
  cluster_cfg
      .field("peers", static_cast<std::uint64_t>(cluster_base.num_peers))
      .field("servers", static_cast<std::uint64_t>(cluster_base.num_servers))
      .field("segment_size",
             static_cast<std::uint64_t>(cluster_base.segment_size))
      .field("segments_per_peer",
             static_cast<std::uint64_t>(cluster_base.segments_per_peer))
      .field("lambda", cluster_base.lambda)
      .field("mu", cluster_base.mu)
      .field("server_rate", cluster_base.server_rate)
      .field("payload_bytes",
             static_cast<std::uint64_t>(cluster_base.payload_bytes))
      .field("max_time", max_time);
  // Inflation is each point's mean completion time over the unfaulted
  // (duration 0, first) point's.
  const double baseline_mean = tables[next].mean("completion_time");
  points.clear();
  for (obs::JsonObject& o : fault_points) {
    const runner::MetricTable& t = tables[next++];
    o.field_raw("metrics", t.to_json())
        .field("time_inflation_vs_baseline",
               baseline_mean > 0.0 ? t.mean("completion_time") / baseline_mean
                                   : 0.0);
    points.push_back(o.str());
  }
  doc.add_table("collection_time_vs_fault_severity", cluster_cfg.str(),
                points);
  return doc.write();
}
