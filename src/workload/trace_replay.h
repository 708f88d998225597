#pragma once

/// \file trace_replay.h
/// Trace-driven hostile-workload generation (scenario pack).
///
/// TraceReplayProfile shapes the per-peer injection rate λ(t) after the
/// eDonkey measurement study the churn model already borrows from:
/// a diurnal sinusoid (day/night load swing) multiplied by flash-crowd
/// burst windows (Sec. 1's surge motivation) on top of a base rate.
/// Paired with log-normal session lengths (p2p::LifetimeDistribution::
/// kLogNormal — minute-scale mortality with a day-scale persistent
/// tail), the three knobs reproduce the study's qualitative shape
/// without shipping the raw trace.
///
/// ScenarioSpec is the shared `--scenario` vocabulary of icollect_sim
/// and icollect_cluster: one spec string — `class:key=value,...` with
/// classes byzantine | faults | trace — configures the same hostile
/// scenario in both harnesses, so every scenario class runs (and is
/// CTest-pinned) against the idealized engine and the live runtime
/// alike. Parsing is strict: unknown classes or keys throw rather than
/// silently running a different experiment than the one named.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "proto/operating_point.h"
#include "workload/generators.h"

namespace icollect::workload {

/// A multiplicative load surge on [start, end).
struct BurstWindow {
  double start = 0.0;
  double end = 0.0;
  double multiplier = 1.0;
};

/// λ(t) = base · (1 + a·sin(2πt/period)) · Π over active bursts.
class TraceReplayProfile final : public ArrivalProfile {
 public:
  /// `amplitude` in [0, 1); `period` > 0; burst windows may overlap
  /// (multipliers compound, as overlapping real-world events would).
  TraceReplayProfile(double base, double amplitude, double period,
                     std::vector<BurstWindow> bursts);

  [[nodiscard]] double rate(double t) const override;
  [[nodiscard]] double max_rate() const override { return max_rate_; }

 private:
  double base_;
  double amplitude_;
  double period_;
  std::vector<BurstWindow> bursts_;
  double max_rate_;
};

/// One hostile scenario, parsed from `class:key=value,...`.
struct ScenarioSpec {
  enum class Kind : std::uint8_t {
    kByzantine,  ///< dishonest peers + integrity verification
    kFaults,     ///< partitions / one-way links / slow readers
    kTrace,      ///< trace-shaped load + heavy-tailed churn
  };

  Kind kind = Kind::kByzantine;

  // --- byzantine: fraction=, strategy=, checks= ---------------------------
  proto::AdversaryConfig adversary{
      0.25, proto::CorruptionStrategy::kRandomPayload, 2};

  // --- faults: fraction=, at=, heal=, drain= ------------------------------
  /// Fraction of peers isolated during the partition window.
  double partition_fraction = 0.25;
  double partition_at = 4.0;
  double heal_at = 8.0;
  /// When > 0, the first peer becomes a slow reader absorbing this many
  /// bytes/sec (cluster only; the simulator has no byte streams).
  double drain_bytes_per_sec = 0.0;

  // --- trace: amplitude=, period=, burst=, burst-at=, burst-len=,
  //            sigma=, lifetime= -----------------------------------------
  double diurnal_amplitude = 0.6;
  double diurnal_period = 40.0;
  double burst_multiplier = 4.0;
  double burst_at = 10.0;
  double burst_len = 5.0;
  /// Log-normal session-length spread (σ of the underlying normal).
  double lognormal_sigma = 1.5;
  /// Mean session length; 0 leaves churn off (simulator only — the
  /// loopback cluster has no churn engine).
  double mean_lifetime = 0.0;

  /// Parse "byzantine:fraction=0.25,strategy=replay,checks=2" and the
  /// like. Throws std::invalid_argument on unknown class, unknown key,
  /// malformed number, or out-of-range value.
  [[nodiscard]] static ScenarioSpec parse(std::string_view text);

  [[nodiscard]] const char* kind_name() const noexcept;

  /// The byzantine class's config rule, shared by both drivers: arm
  /// `point`'s adversary and, since pollution needs bytes to pollute,
  /// give a coefficients-only point a 32-byte payload.
  void apply_byzantine(proto::OperatingPoint& point) const;

  /// One-line JSON of the effective parameters (only the active class's
  /// keys), for the tools' machine-readable scenario summaries.
  [[nodiscard]] std::string to_json() const;

  /// For kTrace: the arrival profile shaped by this spec around the
  /// operating point's base block rate λ.
  [[nodiscard]] std::unique_ptr<ArrivalProfile> make_arrival_profile(
      double base_lambda) const;
};

/// The peers a faults scenario isolates, in both drivers: the first
/// ⌊num_peers·fraction⌋ slots.
[[nodiscard]] inline std::size_t isolated_peer_count(std::size_t num_peers,
                                                     double fraction) noexcept {
  return static_cast<std::size_t>(static_cast<double>(num_peers) * fraction);
}

}  // namespace icollect::workload
