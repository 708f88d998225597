#pragma once

/// \file collection_system.h
/// The library's front door: configure and run an indirect statistics
/// collection session (the paper's system), optionally with real
/// vital-statistics payloads, and obtain a CollectionReport.
///
/// Typical use (see examples/quickstart.cpp):
///
///   p2p::ProtocolConfig cfg;
///   cfg.num_peers = 200; cfg.lambda = 20; cfg.mu = 10; cfg.gamma = 1;
///   cfg.segment_size = 20;
///   cfg.set_normalized_capacity(5.0);
///   CollectionSystem system{cfg};
///   system.use_vital_statistics_payloads();
///   system.warm_up(10.0);
///   system.run(30.0);
///   CollectionReport r = system.report();
///
/// The companion analytical model (Sec. 3's ODEs) is available through
/// `analyze()`, which maps the same configuration onto ode::OdeParams.

#include <memory>
#include <vector>

#include "core/report.h"
#include "obs/telemetry.h"
#include "ode/indirect_ode.h"
#include "p2p/config.h"
#include "p2p/network.h"
#include "sim/random.h"
#include "workload/generators.h"
#include "workload/record_store.h"
#include "workload/stats_record.h"
#include "workload/streaming_session.h"

namespace icollect {

class CollectionSystem {
 public:
  explicit CollectionSystem(p2p::ProtocolConfig cfg);

  /// The same front door around the Fig. 1(a) direct baseline
  /// (p2p::Network::direct_baseline): telemetry, runs and the report
  /// all use the baseline's effective configuration (s = 1, μ = 0).
  [[nodiscard]] static CollectionSystem direct_baseline(
      p2p::ProtocolConfig cfg);

  CollectionSystem(const CollectionSystem&) = delete;
  CollectionSystem& operator=(const CollectionSystem&) = delete;

  /// Generate real vital-statistics records as segment payloads (the
  /// per-peer measurement models of workload/generators.h). Requires
  /// payload_bytes > 0 and a segment large enough for at least one
  /// record; throws std::invalid_argument otherwise. Call before any
  /// run/warm_up.
  void use_vital_statistics_payloads();

  /// Like use_vital_statistics_payloads(), but the records are *measured
  /// from an actual P2P streaming session* (workload::StreamingSession)
  /// pre-run for `horizon` time with per-peer samples every `interval`:
  /// segment payloads then carry the session's real dynamics. The
  /// session's peer count must equal the protocol's. Same payload
  /// requirements as above; call before any run/warm_up.
  void use_streaming_session_payloads(workload::StreamingConfig session_cfg,
                                      double horizon, double interval);

  /// Attach a telemetry bundle to this run: registers pull gauges for
  /// every engine metric, installs the trace ring as the network's trace
  /// sink, attaches the profiler (when enabled), writes config.json, and
  /// makes run()/warm_up() chunk virtual time on the snapshot cadence so
  /// the Snapshotter samples on schedule. The Telemetry object must
  /// outlive this system; call before any run/warm_up, at most once.
  void attach_telemetry(obs::Telemetry& telemetry);

  /// Run the warm-up transient, then reset the measurement window.
  void warm_up(double duration);

  /// Advance the session by `duration` time units.
  void run(double duration);

  /// End the reporting streams (Theorem 4 regime): injection stops,
  /// buffered data keeps draining to the servers.
  void stop_injection();

  /// Snapshot of all metrics over the current measurement window.
  [[nodiscard]] CollectionReport report() const;

  /// Every vital-statistics record recovered by the servers so far
  /// (decoded, CRC-verified, unpacked). Only meaningful with
  /// use_vital_statistics_payloads().
  [[nodiscard]] std::vector<workload::StatsRecord> recovered_records() const;

  /// The recovered records loaded into an analyst-side RecordStore
  /// (per-peer time-ordered histories, health aggregation, postmortem
  /// queries).
  [[nodiscard]] workload::RecordStore recovered_record_store() const;

  /// Direct access to the underlying engine for advanced inspection.
  [[nodiscard]] p2p::Network& network() noexcept { return *net_; }
  [[nodiscard]] const p2p::Network& network() const noexcept { return *net_; }

  /// Map a protocol configuration onto the fluid model's parameters.
  [[nodiscard]] static ode::OdeParams ode_params(
      const p2p::ProtocolConfig& cfg);

  /// Solve the Sec. 3 ODEs for this configuration (static network
  /// assumptions: churn and sparse topologies are simulation-only).
  [[nodiscard]] static ode::OdeSolution analyze(
      const p2p::ProtocolConfig& cfg);

 private:
  explicit CollectionSystem(std::unique_ptr<p2p::Network> net);

  /// Advance to absolute time `end`, pausing at every snapshot due-time
  /// when telemetry with an active sampling cadence is attached.
  void run_with_telemetry(double end);

  p2p::ProtocolConfig cfg_;
  std::unique_ptr<p2p::Network> net_;
  obs::Telemetry* telemetry_ = nullptr;
  // Vital-statistics payload machinery (active after
  // use_vital_statistics_payloads()).
  bool records_enabled_ = false;
  sim::Rng record_rng_;
  std::vector<workload::MeasurementModel> models_;  // one per peer slot
  std::unique_ptr<workload::SessionRecordFeed> session_feed_;
};

}  // namespace icollect
