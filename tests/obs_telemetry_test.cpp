/// \file obs_telemetry_test.cpp
/// Telemetry bundle integration: attach a full bundle to a
/// CollectionSystem run and check that every artifact is produced — the
/// snapshot cadence, config echo, summary, trace ring, and profiler.

#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/collection_system.h"
#include "core/config_args.h"
#include "core/report.h"
#include "p2p/network.h"
#include "p2p/network_telemetry.h"

namespace {

using icollect::CollectionSystem;
using icollect::obs::Telemetry;
using icollect::obs::TelemetryOptions;

icollect::p2p::ProtocolConfig small_config() {
  icollect::p2p::ProtocolConfig cfg;
  cfg.num_peers = 30;
  cfg.lambda = 6.0;
  cfg.segment_size = 3;
  cfg.mu = 8.0;
  cfg.gamma = 1.0;
  cfg.buffer_cap = 30;
  cfg.set_normalized_capacity(3.0);
  cfg.seed = 7;
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in{path};
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

TEST(Telemetry, FullBundleFromCollectionSystemRun) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "obs_bundle").string();
  std::filesystem::remove_all(dir);

  TelemetryOptions opts;
  opts.metrics_dir = dir;
  opts.metrics_interval = 0.5;
  opts.trace_path = dir + "/trace.jsonl";
  opts.trace_filter = "pull,decode";
  opts.profile = true;
  Telemetry telemetry{opts};

  CollectionSystem system{small_config()};
  system.attach_telemetry(telemetry);
  system.warm_up(2.0);
  system.run(6.0);
  telemetry.write_summary(to_json(system.report()));

  // Snapshot cadence: 8 time units at 0.5 spacing → ≥ 10 rows for sure.
  EXPECT_GE(telemetry.snapshotter().samples(), 10U);
  EXPECT_EQ(count_lines(dir + "/snapshots.jsonl"),
            telemetry.snapshotter().samples());
  // CSV adds a header row over the same data.
  EXPECT_EQ(count_lines(dir + "/snapshots.csv"),
            telemetry.snapshotter().samples() + 1);

  // Config echo carries the seed (reproducibility) and peer count.
  const std::string config = read_file(dir + "/config.json");
  EXPECT_NE(config.find("\"seed\":7"), std::string::npos) << config;
  EXPECT_NE(config.find("\"peers\":30"), std::string::npos) << config;

  // Snapshot rows expose the registered engine gauges.
  std::ifstream snaps{dir + "/snapshots.jsonl"};
  std::string first_row;
  ASSERT_TRUE(std::getline(snaps, first_row));
  EXPECT_NE(first_row.find("\"t\":"), std::string::npos);
  EXPECT_NE(first_row.find("\"net.segments_injected\":"), std::string::npos);
  EXPECT_NE(first_row.find("\"net.throughput\":"), std::string::npos);

  // Summary carries the report.
  const std::string summary = read_file(dir + "/summary.json");
  EXPECT_NE(summary.find("\"normalized_throughput\":"), std::string::npos);

  // Trace: the filter admits only pull/decode events.
  using icollect::proto::TraceEventKind;
  EXPECT_GT(telemetry.trace().accepted(), 0U);
  EXPECT_GT(telemetry.trace().filtered_out(), 0U);
  EXPECT_EQ(telemetry.trace().count(TraceEventKind::kGossipSent), 0U);
  EXPECT_GT(telemetry.trace().count(TraceEventKind::kServerPull), 0U);
  EXPECT_GT(count_lines(dir + "/trace.jsonl"), 0U);

  // Profiler saw the dispatch loop.
  ASSERT_NE(telemetry.profiler(), nullptr);
  const std::string profile = read_file(dir + "/profile.json");
  EXPECT_NE(profile.find("\"net.gossip\""), std::string::npos) << profile;
  bool saw_events = false;
  for (const auto* t : telemetry.profiler()->timers()) {
    if (t->stat().count > 0) saw_events = true;
  }
  EXPECT_TRUE(saw_events);

  std::filesystem::remove_all(dir);
}

TEST(Telemetry, SamplingInactiveWithoutDirOrProgress) {
  TelemetryOptions opts;
  opts.profile = true;
  Telemetry telemetry{opts};
  EXPECT_TRUE(opts.any_enabled());
  EXPECT_FALSE(telemetry.snapshots_enabled());
  EXPECT_FALSE(telemetry.sampling_active());
  EXPECT_NE(telemetry.profiler(), nullptr);
}

TEST(Telemetry, FilePrefixSharesBundleDirectory) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "obs_prefix").string();
  std::filesystem::remove_all(dir);
  TelemetryOptions opts;
  opts.metrics_dir = dir;
  opts.file_prefix = "direct_";
  Telemetry telemetry{opts};
  telemetry.registry().counter("x");
  telemetry.snapshotter().start(0.0);
  telemetry.snapshotter().sample(1.0);
  telemetry.write_summary("{}");
  EXPECT_TRUE(std::filesystem::exists(dir + "/direct_snapshots.jsonl"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/direct_summary.json"));
  std::filesystem::remove_all(dir);
}

TEST(Telemetry, DirectCollectorMetricsRegister) {
  // The direct baseline is a Network, so it registers through the same
  // bridge as the indirect scheme.
  auto net = icollect::p2p::Network::direct_baseline(small_config());
  icollect::obs::MetricsRegistry reg;
  icollect::p2p::register_network_metrics(reg, net);
  net.run_until(3.0);
  ASSERT_TRUE(reg.contains("net.blocks_injected"));
  EXPECT_GT(reg.find_gauge("net.blocks_injected")->value(), 0.0);
}

TEST(Telemetry, NetworkStateSizeGauges) {
  icollect::p2p::ProtocolConfig cfg = small_config();
  cfg.payload_bytes = 16;
  cfg.adversary.integrity_checks = 2;
  icollect::p2p::Network net{cfg};
  icollect::obs::MetricsRegistry reg;
  icollect::p2p::register_network_metrics(reg, net);
  net.run_until(6.0);
  // A missing gauge reads -1, which no size or count can equal.
  const auto gauge = [&reg](const char* name) {
    return reg.contains(name) ? reg.find_gauge(name)->value() : -1.0;
  };
  const double registry = gauge("net.registry_segments");
  const double resolved = gauge("net.segments_resolved");
  const double tags = gauge("net.integrity_tags");
  EXPECT_EQ(registry, static_cast<double>(net.segment_registry().size()));
  EXPECT_EQ(resolved, static_cast<double>(net.metrics().segments_resolved));
  EXPECT_EQ(tags, static_cast<double>(net.integrity()->segments()));
  EXPECT_GT(resolved, 0.0);
  // With no adversary every unresolved segment keeps its tags and every
  // resolved one has dropped them.
  EXPECT_EQ(tags, registry - resolved);

  // No authority, no tags.
  icollect::p2p::Network plain{small_config()};
  icollect::obs::MetricsRegistry plain_reg;
  icollect::p2p::register_network_metrics(plain_reg, plain);
  plain.run_until(1.0);
  ASSERT_TRUE(plain_reg.contains("net.integrity_tags"));
  EXPECT_EQ(plain_reg.find_gauge("net.integrity_tags")->value(), 0.0);
}

}  // namespace
