/// Facade tests: CollectionSystem configuration, reports, record
/// recovery, and ODE parameter mapping.

#include <gtest/gtest.h>

#include <set>

#include "core/collection_system.h"

namespace icollect {
namespace {

p2p::ProtocolConfig demo_config() {
  p2p::ProtocolConfig cfg;
  cfg.num_peers = 50;
  cfg.lambda = 8.0;
  cfg.segment_size = 4;
  cfg.mu = 6.0;
  cfg.gamma = 1.0;
  cfg.buffer_cap = 60;
  cfg.num_servers = 2;
  cfg.set_normalized_capacity(6.0);
  cfg.payload_bytes = 64;
  cfg.seed = 5;
  return cfg;
}

TEST(CollectionSystem, ReportFieldsAreCoherent) {
  CollectionSystem sys{demo_config()};
  sys.warm_up(5.0);
  sys.run(15.0);
  const CollectionReport r = sys.report();
  EXPECT_NEAR(r.measured_time, 15.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.normalized_capacity, 6.0);
  EXPECT_GT(r.segments_injected, 0u);
  EXPECT_GT(r.segments_decoded, 0u);
  EXPECT_GE(r.throughput, 0.0);
  EXPECT_LE(r.normalized_throughput, 1.0);
  EXPECT_LE(r.normalized_goodput, r.normalized_throughput + 0.05);
  EXPECT_GT(r.mean_blocks_per_peer, 0.0);
  // Theorem 1's bound is asymptotic; allow finite-N sampling slack.
  EXPECT_LT(r.storage_overhead, r.overhead_bound * 1.10);
  EXPECT_EQ(r.payload_crc_failures, 0u);
  EXPECT_GE(r.redundancy_fraction(), 0.0);
  EXPECT_LE(r.redundancy_fraction(), 1.0);
  EXPECT_EQ(r.capacity_bound, std::min(6.0 / 8.0, 1.0));
}

TEST(CollectionSystem, RecoveredRecordsAreValid) {
  CollectionSystem sys{demo_config()};
  sys.use_vital_statistics_payloads();
  sys.run(15.0);
  const auto records = sys.recovered_records();
  ASSERT_GT(records.size(), 0u);
  std::set<std::uint32_t> reporters;
  for (const auto& rec : records) {
    reporters.insert(rec.peer);
    EXPECT_GE(rec.timestamp, 0.0);
    EXPECT_LE(rec.timestamp, 15.0);
    EXPECT_GE(rec.playback_continuity, 0.0F);
    EXPECT_LE(rec.playback_continuity, 1.0F);
  }
  EXPECT_GT(reporters.size(), 5u);  // many distinct peers were collected
  EXPECT_EQ(sys.report().payload_crc_failures, 0u);
}

TEST(CollectionSystem, RecoveredRecordsAreInOriginSeqOrder) {
  // The registry iterates by (origin, seq), so the record sequence is a
  // function of the seed alone: two same-seed runs agree element for
  // element, grouped by reporting peer and in time order within one.
  const auto run = [] {
    CollectionSystem sys{demo_config()};
    sys.use_vital_statistics_payloads();
    sys.run(15.0);
    return sys.recovered_records();
  };
  const auto first = run();
  const auto second = run();
  ASSERT_GT(first.size(), 0u);
  EXPECT_EQ(first, second);
  for (std::size_t i = 1; i < first.size(); ++i) {
    const auto& a = first[i - 1];
    const auto& b = first[i];
    ASSERT_LE(a.peer, b.peer) << "record " << i;
    if (a.peer == b.peer) {
      ASSERT_LE(a.timestamp, b.timestamp) << "record " << i;
    }
  }
}

TEST(CollectionSystem, RecordsRequirePayloadBytes) {
  auto cfg = demo_config();
  cfg.payload_bytes = 0;
  CollectionSystem sys{cfg};
  EXPECT_THROW(sys.use_vital_statistics_payloads(), std::invalid_argument);
}

TEST(CollectionSystem, RecordsRequireRoomForOneRecord) {
  auto cfg = demo_config();
  cfg.segment_size = 1;
  cfg.payload_bytes = 16;  // 16 bytes < 4 + 48
  CollectionSystem sys{cfg};
  EXPECT_THROW(sys.use_vital_statistics_payloads(), std::invalid_argument);
}

TEST(CollectionSystem, WithoutRecordsRecoveredIsEmpty) {
  CollectionSystem sys{demo_config()};
  sys.run(5.0);
  EXPECT_TRUE(sys.recovered_records().empty());
}

TEST(CollectionSystem, StopInjectionFreezesInjection) {
  CollectionSystem sys{demo_config()};
  sys.run(5.0);
  sys.stop_injection();
  const auto injected = sys.report().segments_injected;
  sys.run(5.0);
  EXPECT_EQ(sys.report().segments_injected, injected);
}

TEST(CollectionSystem, OdeParamsMapping) {
  const auto cfg = demo_config();
  const ode::OdeParams p = CollectionSystem::ode_params(cfg);
  EXPECT_DOUBLE_EQ(p.lambda, cfg.lambda);
  EXPECT_DOUBLE_EQ(p.mu, cfg.mu);
  EXPECT_DOUBLE_EQ(p.gamma, cfg.gamma);
  EXPECT_DOUBLE_EQ(p.c, cfg.normalized_capacity());
  EXPECT_EQ(p.s, cfg.segment_size);
  EXPECT_EQ(p.B, cfg.buffer_cap);
}

TEST(CollectionSystem, AnalyzeProducesConvergedSolution) {
  const auto sol = CollectionSystem::analyze(demo_config());
  EXPECT_TRUE(sol.convergence.converged);
  EXPECT_GT(sol.rho(), 0.0);
  EXPECT_GT(sol.normalized_throughput(), 0.0);
}

TEST(CollectionSystem, InvalidConfigThrowsAtConstruction) {
  auto cfg = demo_config();
  cfg.num_peers = 1;
  EXPECT_THROW((CollectionSystem{cfg}), std::invalid_argument);
}

TEST(CollectionSystem, NegativeDurationViolatesContract) {
  CollectionSystem sys{demo_config()};
  EXPECT_THROW(sys.run(-1.0), ContractViolation);
  EXPECT_THROW(sys.warm_up(-1.0), ContractViolation);
}

}  // namespace
}  // namespace icollect
