/// The replica engine's determinism contract: identical (seed, cells,
/// replicas) must yield byte-identical tables for ANY worker count, and
/// the seed tree must hand every replica its own stream. These are the
/// properties the sweep CLI's --jobs flag advertises; break either and
/// parallel results silently stop being reproducible.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "node/cluster.h"
#include "runner/seed_sequence.h"
#include "runner/simulation_cell.h"
#include "runner/thread_pool.h"

namespace icollect::runner {
namespace {

// --- SeedSequence ------------------------------------------------------------

TEST(SeedSequence, IdenticalPathsYieldIdenticalSeeds) {
  const SeedSequence a{42};
  const SeedSequence b{42};
  EXPECT_EQ(a.state(), b.state());
  EXPECT_EQ(a.child(3).stream(7), b.child(3).stream(7));
  EXPECT_EQ(a.replica_seed(3, 7), b.child(3).stream(7));
}

TEST(SeedSequence, DistinctRootsDiverge) {
  EXPECT_NE(SeedSequence{1}.stream(0), SeedSequence{2}.stream(0));
  EXPECT_NE(SeedSequence{0}.state(), SeedSequence{1}.state());
}

TEST(SeedSequence, PathOrderMatters) {
  const SeedSequence root{99};
  EXPECT_NE(root.child(1).child(2).stream(0),
            root.child(2).child(1).stream(0));
}

TEST(SeedSequence, StreamDoesNotAliasChildState) {
  // stream(i) of a sequence must not equal the state of any nearby
  // derived sequence (the +1 offset in the index lane guards this).
  const SeedSequence root{7};
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_NE(root.stream(i), root.child(i).state());
    EXPECT_NE(root.stream(i), root.state());
  }
}

TEST(SeedSequence, NoCollisionsAcross10kStreams) {
  // 100 cells x 100 replicas — the scale of a big sweep. SplitMix64 is
  // bijective per lane, so any collision here is a construction bug,
  // not bad luck (birthday bound ~5e-12 for random 64-bit draws).
  const SeedSequence root{0x1CDC52008ULL};
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(10000);
  for (std::uint64_t cell = 0; cell < 100; ++cell) {
    for (std::uint64_t r = 0; r < 100; ++r) {
      seen.insert(root.replica_seed(cell, r));
    }
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(SeedSequence, ReplicasWithinCellAreDistinct) {
  const SeedSequence root{123};
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t r = 0; r < 64; ++r) {
    seen.insert(root.replica_seed(0, r));
  }
  EXPECT_EQ(seen.size(), 64u);
}

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  constexpr std::size_t kCount = 257;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  // The calling thread participates in parallel_for, so even a 1-worker
  // pool (the 1-core container case) makes progress.
  ThreadPool pool{1};
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A pool task may itself fan out (a replica body with its own
  // parallel_for); the help-while-waiting loop must keep this live on
  // any pool size.
  ThreadPool pool{2};
  std::atomic<int> inner{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 16);
}

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(ThreadPool::resolve_jobs(3), 3u);
  EXPECT_EQ(ThreadPool::resolve_jobs(1), 1u);
  EXPECT_GE(ThreadPool::resolve_jobs(0), 1u);
  EXPECT_GE(ThreadPool::resolve_jobs(-5), 1u);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.size(), 1u);
}

// --- Engine determinism ------------------------------------------------------

ReplicaPlan tiny_plan(std::size_t s) {
  p2p::ProtocolConfig cfg;
  cfg.num_peers = 30;
  cfg.lambda = 10.0;
  cfg.mu = 5.0;
  cfg.gamma = 1.0;
  cfg.segment_size = s;
  cfg.buffer_cap = 60;
  cfg.num_servers = 2;
  cfg.set_normalized_capacity(3.0);
  cfg.fidelity = p2p::CollectionFidelity::kStateCounter;
  ReplicaPlan plan;
  plan.config = cfg;
  plan.warm = 2.0;
  plan.measure = 4.0;
  plan.replicas = 4;
  return plan;
}

/// Two simulation cells, s = 1 and s = 4, each on its own seed key.
std::vector<Cell> tiny_grid() {
  return {simulation_cell(tiny_plan(1), 0), simulation_cell(tiny_plan(4), 1)};
}

std::string table_bytes(const std::vector<MetricTable>& tables) {
  std::string bytes;
  for (const auto& t : tables) {
    bytes += aggregate_json(t);
    bytes += '\n';
  }
  return bytes;
}

std::string sweep_bytes(std::size_t jobs) {
  ThreadPool pool{jobs};
  return table_bytes(run_cells(SeedSequence{2026}, tiny_grid(), pool));
}

TEST(EngineDeterminism, AggregateBytesIdenticalAcrossJobCounts) {
  // The acceptance criterion of the replica engine: --jobs must never
  // influence results. Compare full serialized aggregates byte for byte.
  const std::string j1 = sweep_bytes(1);
  const std::string j2 = sweep_bytes(2);
  const std::string j8 = sweep_bytes(8);
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(j1, j2);
  EXPECT_EQ(j1, j8);
}

TEST(EngineDeterminism, RepeatedRunsAreIdentical) {
  EXPECT_EQ(sweep_bytes(2), sweep_bytes(2));
}

TEST(EngineDeterminism, DistinctRootSeedsChangeResults) {
  ThreadPool pool{2};
  const auto a = run_cells(SeedSequence{1}, tiny_grid(), pool);
  const auto b = run_cells(SeedSequence{2}, tiny_grid(), pool);
  EXPECT_NE(a[0].to_json(), b[0].to_json());
}

TEST(EngineDeterminism, ReplicasAreDistinctTrajectories) {
  // If replicas shared a stream, they would replay one trajectory. Each
  // replica records its pull count in its own slot; the counts differ.
  const ReplicaPlan plan = tiny_plan(1);
  std::vector<std::uint64_t> pulls(plan.replicas);
  const Cell cell{[&](std::uint64_t seed, std::size_t r) {
                    const CollectionReport report =
                        run_one_replica(plan, seed, r);
                    pulls[r] = report.server_pulls;
                    return report_sample(report);
                  },
                  plan.replicas, 0};
  ThreadPool pool{2};
  (void)run_cells(SeedSequence{2026}, {cell}, pool);
  const std::unordered_set<std::uint64_t> distinct(pulls.begin(), pulls.end());
  EXPECT_GT(distinct.size(), 1u)
      << "all replicas produced identical pull counts — shared stream?";
}

/// The live-protocol body the bench tables run: a loopback cluster to
/// completion, reporting named outcomes. Both arms share seed key 0, so
/// replica r of either arm runs on the same seed.
std::vector<Cell> cluster_arms() {
  std::vector<Cell> cells;
  for (const auto policy : {proto::PullPolicyKind::kUniform,
                            proto::PullPolicyKind::kDeficitWeighted}) {
    const ReplicaBody body = [policy](std::uint64_t seed, std::size_t) {
      node::ClusterConfig cfg;
      cfg.num_peers = 6;
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
      cfg.pull_policy = policy;
      cfg.seed = seed;
      cfg.net.seed = seed;
      node::LoopbackCluster cluster{cfg};
      const bool complete = cluster.run_to_completion(300.0);
      return Sample{
          {"complete", complete ? 1.0 : 0.0},
          {"pulls_sent", static_cast<double>(cluster.pulls_sent())},
          {"collection_time", cluster.now()},
          {"segments_decoded",
           static_cast<double>(cluster.segments_decoded())},
      };
    };
    cells.push_back({body, 3, 0});
  }
  return cells;
}

TEST(EngineDeterminism, ClusterBodyBytesIdenticalAcrossJobCounts) {
  const auto bytes = [](std::size_t jobs) {
    ThreadPool pool{jobs};
    return table_bytes(run_cells(SeedSequence{7}, cluster_arms(), pool));
  };
  const std::string j1 = bytes(1);
  EXPECT_NE(j1.find("\"complete\":{\"mean\":1,"), std::string::npos) << j1;
  EXPECT_EQ(j1, bytes(2));
  EXPECT_EQ(j1, bytes(8));
}

}  // namespace
}  // namespace icollect::runner
