/// \file icollect_pulls.cpp
/// Pull-policy bench generator: the tables behind BENCH_pulls.json.
///
///   Table A — pulls-to-completion vs. pull policy (simulator): a
///     finite workload is injected for a fixed window, injection stops,
///     and the run drains until every injected segment is resolved
///     (decoded or lost to TTL). Each (s, N) point runs the uniform
///     control and the two feedback-driven policies (rarest-first,
///     deficit-weighted), reporting total server
///     pulls at resolution, the collection (drain) time, decoded /
///     lost segment counts and the redundant-pull fraction. Uniform
///     pulls pay the coupon-collector tail — late pulls mostly land on
///     blocks of segments the servers already decoded — which is
///     exactly what the deficit feedback avoids.
///
///   Table B — the same comparison on the live wire protocol (loopback
///     cluster): every peer injects a fixed segment budget, the run
///     goes to completion, and the point reports pulls sent, completion
///     time, innovative-pull counts and the BUFFER_SUMMARY feedback
///     volume (summaries received, targeted pulls).
///
/// Every point aggregates R replicas on the replica engine
/// (runner::run_cells) into mean / stddev / 95% CI half-width
/// (Student-t) / min / max, so the table carries honest error bars at
/// small R. Replica r of every point and arm of one table runs on the
/// same seed, SeedSequence{S}.child(table).stream(r), so the three
/// policies are compared on paired workloads.
///
///   icollect_pulls [--replicas R] [--seed S] [--out FILE] [--quick]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_table.h"
#include "common/cli.h"
#include "node/cluster.h"
#include "obs/json.h"
#include "p2p/network.h"
#include "runner/engine.h"

namespace {

using namespace icollect;

// --- Table A: pulls-to-completion vs. policy (simulator) ------------------

struct SimPointSpec {
  std::size_t segment_size;
  std::size_t num_peers;
};

p2p::ProtocolConfig sim_config(const SimPointSpec& point,
                               proto::PullPolicyKind policy) {
  p2p::ProtocolConfig cfg;
  cfg.num_peers = point.num_peers;
  cfg.segment_size = point.segment_size;
  cfg.lambda = 8.0;
  cfg.mu = 8.0;
  cfg.gamma = 0.25;  // low TTL pressure: losses stay rare in every arm
  cfg.buffer_cap = 8 * point.segment_size;
  cfg.num_servers = 2;
  cfg.set_normalized_capacity(2.0);
  cfg.pull_policy = policy;
  // The paper's idealized collection-state process (Sec. 3): every pull
  // of an undecoded segment advances its state, so the only waste is
  // pulls landing on already-decoded segments — the coupon-collector
  // tail the feedback policies exist to avoid. Real-coding fidelity is
  // the wrong arm for this table: after injection stops its drain tail
  // is governed by span coverage per (peer, segment), which deficit
  // feedback cannot see.
  cfg.fidelity = p2p::CollectionFidelity::kStateCounter;
  return cfg;
}

runner::Sample run_sim_replica(const SimPointSpec& point,
                               proto::PullPolicyKind policy,
                               std::uint64_t seed, double inject_time,
                               double max_time) {
  p2p::ProtocolConfig cfg = sim_config(point, policy);
  cfg.seed = seed;
  p2p::Network net{cfg};
  net.run_until(inject_time);
  net.stop_injection();

  // Drain until every injected segment is resolved: decoded, or lost
  // to TTL before the servers could finish it. Under state-counter
  // fidelity any live copy advances an undecoded segment, so the
  // servers always finish the live population.
  const auto all_resolved = [&] {
    for (const auto& [id, info] : net.segment_registry()) {
      if (!info.decoded && !info.lost) return false;
    }
    return true;
  };
  double t = inject_time;
  while (!all_resolved() && t < max_time) {
    t += 0.25;
    net.run_until(t);
  }

  std::uint64_t decoded = 0;
  std::uint64_t lost = 0;
  for (const auto& [id, info] : net.segment_registry()) {
    decoded += info.decoded ? 1 : 0;
    lost += info.lost ? 1 : 0;
  }
  const auto& m = net.metrics();
  const double pulls = static_cast<double>(m.server_pull_attempts);
  const double innovative =
      static_cast<double>(m.innovative_pulls_window.count());
  return {
      {"pulls_to_completion", pulls},
      {"collection_time", net.now() - inject_time},
      {"segments_injected",
       static_cast<double>(net.segment_registry().size())},
      {"segments_decoded", static_cast<double>(decoded)},
      {"segments_lost", static_cast<double>(lost)},
      {"redundant_fraction", pulls > 0.0 ? 1.0 - innovative / pulls : 0.0},
  };
}

// --- Table B: pulls-to-completion vs. policy (loopback cluster) -----------

struct ClusterPointSpec {
  std::size_t segment_size;
  std::size_t num_peers;
  std::size_t segments_per_peer;
};

node::ClusterConfig cluster_config(const ClusterPointSpec& point,
                                   proto::PullPolicyKind policy) {
  node::ClusterConfig cfg;
  cfg.num_peers = point.num_peers;
  cfg.num_servers = 2;
  cfg.segment_size = point.segment_size;
  cfg.buffer_cap = 8 * point.segment_size;
  cfg.payload_bytes = 16;
  cfg.lambda = 6.0;
  cfg.mu = 6.0;
  cfg.gamma = 0.5;
  cfg.server_rate = 16.0;
  cfg.segments_per_peer = point.segments_per_peer;
  cfg.retain_own_until_acked = true;
  cfg.pull_policy = policy;
  return cfg;
}

runner::Sample run_cluster_replica(const ClusterPointSpec& point,
                                   proto::PullPolicyKind policy,
                                   std::uint64_t seed, double max_time) {
  node::ClusterConfig cfg = cluster_config(point, policy);
  cfg.seed = seed;
  cfg.net.seed = cfg.seed;
  node::LoopbackCluster cluster{cfg};
  const bool complete = cluster.run_to_completion(max_time);

  std::uint64_t summaries = 0;
  std::uint64_t targeted = 0;
  for (std::size_t i = 0; i < cfg.num_servers; ++i) {
    summaries += cluster.server(i).summaries_received();
    targeted += cluster.server(i).targeted_pulls();
  }
  return {
      {"complete", complete ? 1.0 : 0.0},
      {"pulls_to_completion", static_cast<double>(cluster.pulls_sent())},
      {"collection_time", cluster.now()},
      {"segments_decoded", static_cast<double>(cluster.segments_decoded())},
      {"innovative_pulls", static_cast<double>(cluster.innovative_pulls())},
      {"summaries_received", static_cast<double>(summaries)},
      {"targeted_pulls", static_cast<double>(targeted)},
  };
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t replicas = 10;
  std::uint64_t seed = 1;
  std::string out_path;
  bool quick = false;

  cli::Flags flags;
  flags.add("--replicas", "R", "seeded replicas per point (default 10)",
            replicas)
      .add("--seed", "S", "root of the replica seed tree (default 1)", seed)
      .add("--out", "FILE", "write JSON to FILE (default stdout)", out_path)
      .add("--quick", "", "2 replicas, smaller grid (CI smoke)", quick);
  flags.parse_or_exit(argc, argv);
  if (quick) replicas = 2;
  if (replicas == 0) flags.usage_error("--replicas must be >= 1");
  tools::BenchDocument doc{"icollect-pulls-bench-v1", replicas, seed};
  if (!doc.open(out_path, argv[0])) return 2;

  // The same three arms in both tables.
  constexpr proto::PullPolicyKind kArms[] = {
      proto::PullPolicyKind::kUniform,
      proto::PullPolicyKind::kRarestFirst,
      proto::PullPolicyKind::kDeficitWeighted,
  };
  // Seed keys: every arm of a table shares replica r's seed.
  constexpr std::uint64_t kSimTable = 0;
  constexpr std::uint64_t kClusterTable = 1;

  const double inject_time = 2.0;
  const double sim_max_time = quick ? 120.0 : 400.0;
  const double cluster_max_time = 600.0;
  std::vector<SimPointSpec> sim_grid = {{4, 30}, {8, 30}, {4, 60}};
  std::vector<ClusterPointSpec> cluster_grid = {{4, 12, 3}, {5, 16, 2}};
  if (quick) {
    sim_grid = {{4, 30}};
    cluster_grid = {{4, 12, 2}};
  }

  // One cell per (point, arm), simulator table first; each point object
  // gets its cell's table in the same order once the fan-out is done.
  std::vector<runner::Cell> cells;
  std::vector<obs::JsonObject> sim_points;
  std::vector<obs::JsonObject> cluster_points;
  for (const SimPointSpec& point : sim_grid) {
    for (const proto::PullPolicyKind policy : kArms) {
      std::fprintf(stderr, "sim: s=%zu N=%zu policy=%s ...\n",
                   point.segment_size, point.num_peers,
                   proto::to_string(policy));
      sim_points.emplace_back()
          .field("s", static_cast<std::uint64_t>(point.segment_size))
          .field("peers", static_cast<std::uint64_t>(point.num_peers))
          .field_str("policy", proto::to_string(policy));
      cells.push_back({[=](std::uint64_t s, std::size_t) {
                         return run_sim_replica(point, policy, s,
                                                inject_time, sim_max_time);
                       },
                       replicas, kSimTable});
    }
  }
  for (const ClusterPointSpec& point : cluster_grid) {
    for (const proto::PullPolicyKind policy : kArms) {
      std::fprintf(stderr, "cluster: s=%zu N=%zu policy=%s ...\n",
                   point.segment_size, point.num_peers,
                   proto::to_string(policy));
      cluster_points.emplace_back()
          .field("s", static_cast<std::uint64_t>(point.segment_size))
          .field("peers", static_cast<std::uint64_t>(point.num_peers))
          .field("segments_per_peer",
                 static_cast<std::uint64_t>(point.segments_per_peer))
          .field_str("policy", proto::to_string(policy));
      cells.push_back({[=](std::uint64_t s, std::size_t) {
                         return run_cluster_replica(point, policy, s,
                                                    cluster_max_time);
                       },
                       replicas, kClusterTable});
    }
  }
  runner::ThreadPool pool{runner::ThreadPool::resolve_jobs(0)};
  const auto tables =
      runner::run_cells(runner::SeedSequence{seed}, cells, pool);
  std::size_t next = 0;
  const auto with_metrics = [&](std::vector<obs::JsonObject>& points) {
    std::vector<std::string> out;
    for (obs::JsonObject& o : points) {
      out.push_back(o.field_raw("metrics", tables[next++].to_json()).str());
    }
    return out;
  };

  const p2p::ProtocolConfig sim_base = sim_config(sim_grid[0], kArms[0]);
  obs::JsonObject sim_cfg;
  sim_cfg.field("lambda", sim_base.lambda)
      .field("mu", sim_base.mu)
      .field("gamma", sim_base.gamma)
      .field("servers", static_cast<std::uint64_t>(sim_base.num_servers))
      .field("normalized_capacity", sim_base.normalized_capacity())
      .field("inject_time", inject_time)
      .field("max_time", sim_max_time);
  doc.add_table("simulator", sim_cfg.str(), with_metrics(sim_points));

  const node::ClusterConfig cluster_base =
      cluster_config(cluster_grid[0], kArms[0]);
  obs::JsonObject cluster_cfg;
  cluster_cfg.field("lambda", cluster_base.lambda)
      .field("mu", cluster_base.mu)
      .field("gamma", cluster_base.gamma)
      .field("servers", static_cast<std::uint64_t>(cluster_base.num_servers))
      .field("server_rate", cluster_base.server_rate)
      .field("payload_bytes",
             static_cast<std::uint64_t>(cluster_base.payload_bytes))
      .field("max_time", cluster_max_time);
  doc.add_table("cluster", cluster_cfg.str(), with_metrics(cluster_points));
  return doc.write();
}
