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
///     segments the servers still need, so completion time tracks the
///     heal deadline — the severity signal is structural, not noise.
///
/// Every point aggregates R seeded replicas into mean / stddev / 95% CI
/// half-width (Student-t, runner::ci95_half_width) / min / max, so the
/// table carries honest error bars at small R.
///
///   icollect_scenarios [--replicas R] [--seed S] [--out FILE] [--quick]

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/icollect.h"
#include "node/cluster.h"
#include "obs/json.h"
#include "runner/aggregate.h"
#include "stats/summary.h"

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

std::string run_pollution_point(const PollutionPointSpec& point,
                                std::uint64_t base_seed,
                                std::uint64_t replicas, double warm,
                                double measure) {
  runner::MetricTable table;
  for (std::uint64_t r = 0; r < replicas; ++r) {
    p2p::ProtocolConfig cfg = sim_base_config();
    cfg.adversary.dishonest_fraction = point.dishonest_fraction;
    cfg.adversary.strategy = proto::CorruptionStrategy::kRandomPayload;
    cfg.adversary.integrity_checks = point.integrity_checks;
    cfg.seed = base_seed + r;

    CollectionSystem system{cfg};
    system.warm_up(warm);
    system.run(measure);
    const CollectionReport rep = system.report();
    const auto& m = system.network().metrics();

    table.add("blocks_corrupted",
              static_cast<double>(m.blocks_corrupted));
    table.add("blocks_quarantined",
              static_cast<double>(m.blocks_quarantined));
    table.add("polluted_pull_fraction",
              rep.server_pulls > 0
                  ? static_cast<double>(m.polluted_pulls) /
                        static_cast<double>(rep.server_pulls)
                  : 0.0);
    table.add("payload_crc_failures",
              static_cast<double>(rep.payload_crc_failures));
    table.add("segments_decoded",
              static_cast<double>(rep.segments_decoded));
    table.add("normalized_throughput", rep.normalized_throughput);
  }

  obs::JsonObject o;
  o.field("dishonest_fraction", point.dishonest_fraction)
      .field("honest_fraction", 1.0 - point.dishonest_fraction)
      .field("integrity_checks",
             static_cast<std::uint64_t>(point.integrity_checks))
      .field_str("arm", point.integrity_checks > 0 ? "defended"
                                                   : "undefended")
      .field_raw("metrics", table.to_json());
  return o.str();
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

struct FaultPointResult {
  std::string json;        // point object minus the inflation field
  double mean_time = 0.0;  // mean completion time over replicas
  runner::MetricTable table;
};

FaultPointResult run_fault_point(double partition_fraction,
                                 double partition_at, double duration,
                                 std::uint64_t base_seed,
                                 std::uint64_t replicas, double max_time) {
  FaultPointResult out;
  for (std::uint64_t r = 0; r < replicas; ++r) {
    node::ClusterConfig cfg = cluster_base_config();
    cfg.seed = base_seed + r;
    cfg.net.seed = cfg.seed;

    node::LoopbackCluster cluster{cfg};
    std::vector<net::NodeId> ids;
    const auto count = static_cast<std::size_t>(
        static_cast<double>(cfg.num_peers) * partition_fraction);
    for (std::size_t i = 0; i < count; ++i) {
      ids.push_back(static_cast<net::NodeId>(i));
    }
    if (!ids.empty() && duration > 0.0) {
      cluster.net().schedule_partition(partition_at,
                                       partition_at + duration,
                                       std::move(ids));
    }
    const bool complete = cluster.run_to_completion(max_time);

    out.table.add("complete", complete ? 1.0 : 0.0);
    out.table.add("completion_time", cluster.now());
    out.table.add("fault_drops",
                  static_cast<double>(cluster.net().fault_drops()));
    out.table.add("queue_refusals",
                  static_cast<double>(
                      cluster.net().backpressure_refusals()));
    out.table.add("segments_decoded",
                  static_cast<double>(cluster.segments_decoded()));
  }
  out.mean_time = out.table.find("completion_time")->mean();

  obs::JsonObject o;
  o.field("partition_fraction", partition_fraction)
      .field("partitioned_peers",
             static_cast<std::uint64_t>(
                 static_cast<double>(cluster_base_config().num_peers) *
                 partition_fraction))
      .field("partition_at", partition_at)
      .field("partition_duration", duration)
      .field_raw("metrics", out.table.to_json());
  out.json = o.str();
  return out;
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
      .add("--seed", "S", "base seed (default 1)", seed)
      .add("--out", "FILE", "write JSON to FILE (default stdout)", out_path)
      .add("--quick", "", "2 replicas, shorter runs (CI smoke)", quick);
  flags.parse_or_exit(argc, argv);
  if (quick) replicas = 2;
  if (replicas == 0) flags.usage_error("--replicas must be >= 1");
  const double warm = quick ? 1.0 : 2.0;
  const double measure = quick ? 6.0 : 15.0;
  const double max_time = 600.0;

  std::string body;
  body += "{\n";
  body += "  \"schema\": \"icollect-scenario-bench-v1\",\n";
  body += "  \"replicas\": " + std::to_string(replicas) + ",\n";
  body += "  \"base_seed\": " + std::to_string(seed) + ",\n";

  // Table A.
  {
    const p2p::ProtocolConfig base = sim_base_config();
    obs::JsonObject cfg_json;
    cfg_json.field("peers", static_cast<std::uint64_t>(base.num_peers))
        .field("servers", static_cast<std::uint64_t>(base.num_servers))
        .field("segment_size",
               static_cast<std::uint64_t>(base.segment_size))
        .field("lambda", base.lambda)
        .field("mu", base.mu)
        .field("normalized_capacity", base.normalized_capacity())
        .field("payload_bytes",
               static_cast<std::uint64_t>(base.payload_bytes))
        .field_str("strategy", "random-payload")
        .field("warm", warm)
        .field("measure", measure);
    body += "  \"pollution_vs_honest_fraction\": {\n";
    body += "    \"config\": " + cfg_json.str() + ",\n";
    body += "    \"points\": [\n";
    const double fractions[] = {0.0, 0.10, 0.25, 0.40};
    bool first = true;
    for (const double f : fractions) {
      for (const std::size_t checks : {std::size_t{2}, std::size_t{0}}) {
        if (f == 0.0 && checks == 0) continue;  // no pollution to defend
        if (!first) body += ",\n";
        first = false;
        std::fprintf(stderr, "pollution: fraction=%.2f checks=%zu ...\n",
                     f, checks);
        body += "      " +
                run_pollution_point({f, checks}, seed, replicas, warm,
                                    measure);
      }
    }
    body += "\n    ]\n  },\n";
  }

  // Table B.
  {
    const node::ClusterConfig base = cluster_base_config();
    const double partition_fraction = 0.5;
    const double partition_at = 1.0;
    obs::JsonObject cfg_json;
    cfg_json.field("peers", static_cast<std::uint64_t>(base.num_peers))
        .field("servers", static_cast<std::uint64_t>(base.num_servers))
        .field("segment_size",
               static_cast<std::uint64_t>(base.segment_size))
        .field("segments_per_peer",
               static_cast<std::uint64_t>(base.segments_per_peer))
        .field("lambda", base.lambda)
        .field("mu", base.mu)
        .field("server_rate", base.server_rate)
        .field("payload_bytes",
               static_cast<std::uint64_t>(base.payload_bytes))
        .field("max_time", max_time);
    body += "  \"collection_time_vs_fault_severity\": {\n";
    body += "    \"config\": " + cfg_json.str() + ",\n";
    body += "    \"points\": [\n";
    const double durations[] = {0.0, 2.0, 4.0, 8.0};
    double baseline_mean = 0.0;
    bool first = true;
    for (const double d : durations) {
      std::fprintf(stderr, "faults: partition_duration=%.1f ...\n", d);
      FaultPointResult res =
          run_fault_point(d > 0.0 ? partition_fraction : 0.0,
                          partition_at, d, seed, replicas, max_time);
      if (d == 0.0) baseline_mean = res.mean_time;
      // Splice the inflation factor into the point object (it depends
      // on the duration-0 baseline, which is always the first point).
      std::string point = res.json;
      obs::JsonObject extra;
      extra.field("time_inflation_vs_baseline",
                  baseline_mean > 0.0 ? res.mean_time / baseline_mean
                                      : 0.0);
      const std::string extra_body = extra.str();
      point.insert(point.size() - 1,
                   "," + extra_body.substr(1, extra_body.size() - 2));
      if (!first) body += ",\n";
      first = false;
      body += "      " + point;
    }
    body += "\n    ]\n  }\n";
  }
  body += "}\n";

  if (out_path.empty()) {
    std::fputs(body.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s: %s\n", argv[0],
                 out_path.c_str(), std::strerror(errno));
    return 2;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu bytes)\n", out_path.c_str(), body.size());
  return 0;
}
