/// \file icollect_pulls.cpp
/// Pull-policy bench generator: the tables behind BENCH_pulls.json.
///
///   Table A — pulls-to-completion vs. pull policy (simulator): a
///     finite workload is injected for a fixed window, injection stops,
///     and the run drains until every injected segment is resolved
///     (decoded or lost to TTL). Each (s, N) point runs the uniform
///     control and the two feedback-driven policies (rarest-first,
///     deficit-weighted) over the same seeds, reporting total server
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
/// Every point aggregates R seeded replicas into mean / stddev / 95% CI
/// half-width (Student-t, runner::ci95_half_width) / min / max, so the
/// table carries honest error bars at small R.
///
///   icollect_pulls [--replicas R] [--seed S] [--out FILE] [--quick]

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.h"
#include "node/cluster.h"
#include "obs/json.h"
#include "p2p/network.h"
#include "runner/aggregate.h"
#include "stats/summary.h"

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

std::string run_sim_arm(const SimPointSpec& point,
                        proto::PullPolicyKind policy,
                        std::uint64_t base_seed, std::uint64_t replicas,
                        double inject_time, double max_time) {
  runner::MetricTable table;
  for (std::uint64_t r = 0; r < replicas; ++r) {
    p2p::ProtocolConfig cfg = sim_config(point, policy);
    cfg.seed = base_seed + r;
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
    table.add("pulls_to_completion", pulls);
    table.add("collection_time", net.now() - inject_time);
    table.add("segments_injected",
              static_cast<double>(net.segment_registry().size()));
    table.add("segments_decoded", static_cast<double>(decoded));
    table.add("segments_lost", static_cast<double>(lost));
    table.add("redundant_fraction",
              pulls > 0.0 ? 1.0 - innovative / pulls : 0.0);
  }

  obs::JsonObject o;
  o.field_str("policy", proto::to_string(policy))
      .field_raw("metrics", table.to_json());
  return o.str();
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

std::string run_cluster_arm(const ClusterPointSpec& point,
                            proto::PullPolicyKind policy,
                            std::uint64_t base_seed, std::uint64_t replicas,
                            double max_time) {
  runner::MetricTable table;
  for (std::uint64_t r = 0; r < replicas; ++r) {
    node::ClusterConfig cfg = cluster_config(point, policy);
    cfg.seed = base_seed + r;
    cfg.net.seed = cfg.seed;
    node::LoopbackCluster cluster{cfg};
    const bool complete = cluster.run_to_completion(max_time);

    std::uint64_t summaries = 0;
    std::uint64_t targeted = 0;
    for (std::size_t i = 0; i < cfg.num_servers; ++i) {
      summaries += cluster.server(i).summaries_received();
      targeted += cluster.server(i).targeted_pulls();
    }
    const double pulls = static_cast<double>(cluster.pulls_sent());
    table.add("complete", complete ? 1.0 : 0.0);
    table.add("pulls_to_completion", pulls);
    table.add("collection_time", cluster.now());
    table.add("segments_decoded",
              static_cast<double>(cluster.segments_decoded()));
    table.add("innovative_pulls",
              static_cast<double>(cluster.innovative_pulls()));
    table.add("summaries_received", static_cast<double>(summaries));
    table.add("targeted_pulls", static_cast<double>(targeted));
  }

  obs::JsonObject o;
  o.field_str("policy", proto::to_string(policy))
      .field_raw("metrics", table.to_json());
  return o.str();
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
      .add("--seed", "S", "base seed (default 1)", seed)
      .add("--out", "FILE", "write JSON to FILE (default stdout)", out_path)
      .add("--quick", "", "2 replicas, smaller grid (CI smoke)", quick);
  flags.parse_or_exit(argc, argv);
  if (quick) replicas = 2;
  if (replicas == 0) flags.usage_error("--replicas must be >= 1");

  // The same three arms in both tables.
  constexpr proto::PullPolicyKind kArms[] = {
      proto::PullPolicyKind::kUniform,
      proto::PullPolicyKind::kRarestFirst,
      proto::PullPolicyKind::kDeficitWeighted,
  };

  std::string body;
  body += "{\n";
  body += "  \"schema\": \"icollect-pulls-bench-v1\",\n";
  body += "  \"replicas\": " + std::to_string(replicas) + ",\n";
  body += "  \"base_seed\": " + std::to_string(seed) + ",\n";

  // Table A.
  {
    const double inject_time = 2.0;
    const double max_time = quick ? 120.0 : 400.0;
    const p2p::ProtocolConfig base = sim_config({4, 30}, kArms[0]);
    obs::JsonObject cfg_json;
    cfg_json.field("lambda", base.lambda)
        .field("mu", base.mu)
        .field("gamma", base.gamma)
        .field("servers", static_cast<std::uint64_t>(base.num_servers))
        .field("normalized_capacity", base.normalized_capacity())
        .field("inject_time", inject_time)
        .field("max_time", max_time);
    body += "  \"simulator\": {\n";
    body += "    \"config\": " + cfg_json.str() + ",\n";
    body += "    \"points\": [\n";
    std::vector<SimPointSpec> grid = {{4, 30}, {8, 30}, {4, 60}};
    if (quick) grid = {{4, 30}};
    bool first = true;
    for (const SimPointSpec& point : grid) {
      for (const proto::PullPolicyKind policy : kArms) {
        std::fprintf(stderr, "sim: s=%zu N=%zu policy=%s ...\n",
                     point.segment_size, point.num_peers,
                     proto::to_string(policy));
        obs::JsonObject o;
        o.field("s", static_cast<std::uint64_t>(point.segment_size))
            .field("peers", static_cast<std::uint64_t>(point.num_peers));
        std::string arm = run_sim_arm(point, policy, seed, replicas,
                                      inject_time, max_time);
        // Splice the (s, N) identity into the arm object.
        const std::string id = o.str();
        arm.insert(1, id.substr(1, id.size() - 2) + ",");
        if (!first) body += ",\n";
        first = false;
        body += "      " + arm;
      }
    }
    body += "\n    ]\n  },\n";
  }

  // Table B.
  {
    const double max_time = 600.0;
    const node::ClusterConfig base =
        cluster_config({4, 12, 3}, kArms[0]);
    obs::JsonObject cfg_json;
    cfg_json.field("lambda", base.lambda)
        .field("mu", base.mu)
        .field("gamma", base.gamma)
        .field("servers", static_cast<std::uint64_t>(base.num_servers))
        .field("server_rate", base.server_rate)
        .field("payload_bytes",
               static_cast<std::uint64_t>(base.payload_bytes))
        .field("max_time", max_time);
    body += "  \"cluster\": {\n";
    body += "    \"config\": " + cfg_json.str() + ",\n";
    body += "    \"points\": [\n";
    std::vector<ClusterPointSpec> grid = {{4, 12, 3}, {5, 16, 2}};
    if (quick) grid = {{4, 12, 2}};
    bool first = true;
    for (const ClusterPointSpec& point : grid) {
      for (const proto::PullPolicyKind policy : kArms) {
        std::fprintf(stderr, "cluster: s=%zu N=%zu policy=%s ...\n",
                     point.segment_size, point.num_peers,
                     proto::to_string(policy));
        obs::JsonObject o;
        o.field("s", static_cast<std::uint64_t>(point.segment_size))
            .field("peers", static_cast<std::uint64_t>(point.num_peers))
            .field("segments_per_peer",
                   static_cast<std::uint64_t>(point.segments_per_peer));
        std::string arm =
            run_cluster_arm(point, policy, seed, replicas, max_time);
        const std::string id = o.str();
        arm.insert(1, id.substr(1, id.size() - 2) + ",");
        if (!first) body += ",\n";
        first = false;
        body += "      " + arm;
      }
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
