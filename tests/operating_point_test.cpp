/// The shared model rules (proto/operating_point.h), pinned once for
/// both drivers: every inconsistent operating point must throw
/// std::invalid_argument from the simulator (p2p::Network) and from the
/// live loopback cluster — and the cluster must reject it before it
/// builds a single node. The per-node rules hold for one live node's
/// NodeConfig as well.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "node/cluster.h"
#include "node/node_config.h"
#include "obs/metrics_registry.h"
#include "p2p/config.h"
#include "p2p/network.h"
#include "proto/operating_point.h"

namespace icollect {
namespace {

using proto::CorruptionStrategy;
using proto::NodeParams;
using proto::OperatingPoint;

/// A small, valid point both drivers accept.
OperatingPoint valid_point() {
  OperatingPoint p;
  p.num_peers = 8;
  p.num_servers = 2;
  p.segment_size = 4;
  p.buffer_cap = 16;
  p.payload_bytes = 16;
  p.lambda = 4.0;
  p.mu = 4.0;
  p.gamma = 1.0;
  p.server_rate = 8.0;
  p.seed = 5;
  return p;
}

struct BadPoint {
  const char* what;
  void (*edit)(OperatingPoint&);
  bool per_node;  ///< a NodeParams rule, so NodeConfig rejects it too
};

constexpr BadPoint kBadPoints[] = {
    {"s = 0", [](OperatingPoint& p) { p.segment_size = 0; }, true},
    {"B < s", [](OperatingPoint& p) { p.buffer_cap = p.segment_size - 1; },
     true},
    {"gamma = 0", [](OperatingPoint& p) { p.gamma = 0.0; }, true},
    {"gamma < 0", [](OperatingPoint& p) { p.gamma = -1.0; }, true},
    {"lambda < 0", [](OperatingPoint& p) { p.lambda = -1.0; }, true},
    {"mu < 0", [](OperatingPoint& p) { p.mu = -1.0; }, true},
    {"c_s < 0", [](OperatingPoint& p) { p.server_rate = -1.0; }, true},
    {"N < 2", [](OperatingPoint& p) { p.num_peers = 1; }, false},
    {"N_s = 0", [](OperatingPoint& p) { p.num_servers = 0; }, false},
    {"dishonest fraction > 1",
     [](OperatingPoint& p) { p.adversary.dishonest_fraction = 1.5; }, false},
    {"dishonest fraction < 0",
     [](OperatingPoint& p) { p.adversary.dishonest_fraction = -0.1; },
     false},
    {"checks without payload",
     [](OperatingPoint& p) {
       p.adversary.integrity_checks = 2;
       p.payload_bytes = 0;
     },
     false},
    {"random-payload corruption without payload",
     [](OperatingPoint& p) {
       p.adversary.dishonest_fraction = 0.25;
       p.adversary.strategy = CorruptionStrategy::kRandomPayload;
       p.payload_bytes = 0;
     },
     false},
};

p2p::ProtocolConfig sim_config(const OperatingPoint& point) {
  p2p::ProtocolConfig cfg;
  static_cast<OperatingPoint&>(cfg) = point;
  return cfg;
}

node::ClusterConfig cluster_config(const OperatingPoint& point) {
  node::ClusterConfig cfg;
  static_cast<OperatingPoint&>(cfg) = point;
  cfg.net.seed = point.seed;
  return cfg;
}

TEST(OperatingPoint, ValidPointRunsOnBothDrivers) {
  const OperatingPoint point = valid_point();
  EXPECT_NO_THROW(point.validate());
  EXPECT_NO_THROW(p2p::Network{sim_config(point)});
  EXPECT_NO_THROW(node::LoopbackCluster{cluster_config(point)});
}

TEST(OperatingPoint, BothDriversRejectEveryBadPoint) {
  for (const BadPoint& bad : kBadPoints) {
    SCOPED_TRACE(bad.what);
    OperatingPoint point = valid_point();
    bad.edit(point);
    EXPECT_THROW(point.validate(), std::invalid_argument);
    EXPECT_THROW(p2p::Network{sim_config(point)}, std::invalid_argument);

    const node::ClusterConfig cfg = cluster_config(point);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    // Nodes register their gauges as they are built: an empty registry
    // shows the cluster threw before building any.
    obs::MetricsRegistry metrics;
    EXPECT_THROW((node::LoopbackCluster{cfg, &metrics}),
                 std::invalid_argument);
    EXPECT_EQ(metrics.size(), 0U);
  }
}

TEST(OperatingPoint, OneLiveNodeKeepsThePerNodeRules) {
  for (const BadPoint& bad : kBadPoints) {
    if (!bad.per_node) continue;
    SCOPED_TRACE(bad.what);
    OperatingPoint point = valid_point();
    bad.edit(point);
    node::NodeConfig cfg;
    static_cast<NodeParams&>(cfg) = point;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  node::NodeConfig byzantine;
  byzantine.byzantine = true;
  byzantine.corruption = CorruptionStrategy::kRandomPayload;
  byzantine.payload_bytes = 0;
  EXPECT_THROW(byzantine.validate(), std::invalid_argument);
  byzantine.corruption = CorruptionStrategy::kReplay;
  EXPECT_NO_THROW(byzantine.validate());
}

TEST(OperatingPoint, UniformAllIsSimulatorOnly) {
  OperatingPoint point = valid_point();
  point.pull_policy = proto::PullPolicyKind::kUniformAll;
  EXPECT_NO_THROW(point.validate());
  EXPECT_NO_THROW(p2p::Network{sim_config(point)});
  obs::MetricsRegistry metrics;
  EXPECT_THROW((node::LoopbackCluster{cluster_config(point), &metrics}),
               std::invalid_argument);
  EXPECT_EQ(metrics.size(), 0U);
  node::NodeConfig server;
  server.pull_policy = proto::PullPolicyKind::kUniformAll;
  EXPECT_THROW(server.validate(), std::invalid_argument);
}

TEST(OperatingPoint, ClusterRejectsSegmentsWiderThanTheWireField) {
  OperatingPoint point = valid_point();
  point.segment_size = 0x10000;
  point.buffer_cap = point.segment_size;
  EXPECT_NO_THROW(point.validate());
  obs::MetricsRegistry metrics;
  EXPECT_THROW((node::LoopbackCluster{cluster_config(point), &metrics}),
               std::invalid_argument);
  EXPECT_EQ(metrics.size(), 0U);
}

TEST(OperatingPoint, DerivedConfigsKeepTheirOwnDefaults) {
  const p2p::ProtocolConfig sim;
  EXPECT_EQ(sim.num_peers, 200U);
  EXPECT_EQ(sim.segment_size, 10U);
  EXPECT_EQ(sim.buffer_cap, 120U);
  EXPECT_DOUBLE_EQ(sim.lambda, 20.0);
  EXPECT_DOUBLE_EQ(sim.server_rate, 100.0);

  const node::ClusterConfig cluster;
  EXPECT_EQ(cluster.num_peers, 16U);
  EXPECT_EQ(cluster.num_servers, 2U);
  EXPECT_EQ(cluster.segment_size, 4U);
  EXPECT_EQ(cluster.buffer_cap, 32U);
  EXPECT_DOUBLE_EQ(cluster.lambda, 8.0);
  EXPECT_DOUBLE_EQ(cluster.mu, 4.0);
  EXPECT_DOUBLE_EQ(cluster.server_rate, 16.0);

  const node::NodeConfig one;
  EXPECT_EQ(one.segment_size, 4U);
  EXPECT_EQ(one.buffer_cap, 32U);
  EXPECT_DOUBLE_EQ(one.lambda, 0.0);
  EXPECT_DOUBLE_EQ(one.mu, 0.0);
  EXPECT_DOUBLE_EQ(one.server_rate, 0.0);
  EXPECT_DOUBLE_EQ(one.gamma, 1.0);
}

}  // namespace
}  // namespace icollect
