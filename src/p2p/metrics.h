#pragma once

/// \file metrics.h
/// Measurement plane of the simulator: counters and time-weighted
/// signals matching the quantities of Theorems 1–4, with a warm-up
/// window reset so steady-state estimates exclude the transient.

#include <cstdint>

#include "stats/summary.h"
#include "stats/time_series.h"

namespace icollect::p2p {

/// Recovery accounting for the data of peers that have departed — the
/// paper's motivating loss case ("statistics from departed peers may be
/// the most useful to diagnose system outages"). Network reports it for
/// the indirect scheme and the direct baseline alike; it counts admitted
/// blocks only, so a report refused at a full buffer is an overflow loss
/// (injection_blocked) and never enters this ledger.
struct DepartedDataStats {
  std::uint64_t departed_origins = 0;
  std::uint64_t blocks_generated = 0;  ///< produced by now-departed peers
  std::uint64_t blocks_delivered = 0;  ///< of those, obtained by servers
  [[nodiscard]] double recovery_fraction() const noexcept {
    return blocks_generated > 0 ? static_cast<double>(blocks_delivered) /
                                      static_cast<double>(blocks_generated)
                                : 0.0;
  }
};

struct NetworkMetrics {
  // --- lifetime counters (never reset) -----------------------------------
  std::uint64_t segments_injected = 0;
  std::uint64_t blocks_injected = 0;
  std::uint64_t gossip_sent = 0;          ///< blocks actually transferred
  std::uint64_t gossip_no_target = 0;     ///< no eligible neighbor
  std::uint64_t gossip_idle = 0;          ///< sender buffer was empty
  std::uint64_t gossip_lost_in_transit = 0;  ///< failure injection drops
  std::uint64_t injection_blocked = 0;    ///< buffer lacked room for s blocks
  std::uint64_t ttl_expirations = 0;
  std::uint64_t server_pull_attempts = 0; ///< includes all-empty no-ops
  std::uint64_t server_empty_probes = 0;  ///< blind pulls that hit empty peers
  std::uint64_t peers_departed = 0;
  std::uint64_t blocks_lost_to_churn = 0;
  std::uint64_t blocks_dropped_on_ack = 0; ///< decoded, ACKed, dropped
  std::uint64_t segments_lost = 0;        ///< vanished undecoded (degree→0)
  std::uint64_t segments_resolved = 0;    ///< see SegmentInfo::resolved
  std::uint64_t payload_crc_failures = 0; ///< end-to-end integrity errors

  // --- adversarial / fault-injection counters (scenario pack) -------------
  std::uint64_t blocks_corrupted = 0;     ///< byzantine egress corruptions
  std::uint64_t blocks_quarantined = 0;   ///< gossip rejected by integrity
  std::uint64_t polluted_pulls = 0;       ///< pulled blocks rejected by integrity
  std::uint64_t gossip_blocked_isolated = 0;  ///< sender partitioned away
  std::uint64_t pulls_blocked_isolated = 0;   ///< pulled peer partitioned away

  // --- windowed counters (reset at end of warm-up) ------------------------
  stats::RateEstimator decoded_original_blocks; ///< throughput numerator
  stats::RateEstimator injected_blocks_window;
  stats::RateEstimator server_pulls_window;
  stats::RateEstimator innovative_pulls_window;

  // --- time-weighted signals ----------------------------------------------
  stats::TimeWeighted total_blocks;  ///< network-wide block count = N·e(t)
  stats::TimeWeighted empty_peers;   ///< peers with empty buffers = N·z_0(t)
  stats::TimeWeighted full_peers;    ///< peers at the buffer cap = N·z_B(t)

  // --- delay samples --------------------------------------------------------
  stats::Summary segment_delay; ///< decode time − injection time
  stats::Summary block_delay;   ///< segment delay / s (paper's Fig. 5 metric)

  /// Discard the warm-up transient: restart all windowed estimators and
  /// time-weighted windows at `now`, and clear delay samples.
  void reset_measurement_window(double now) {
    decoded_original_blocks.reset_window(now);
    injected_blocks_window.reset_window(now);
    server_pulls_window.reset_window(now);
    innovative_pulls_window.reset_window(now);
    total_blocks.reset_window(now);
    empty_peers.reset_window(now);
    full_peers.reset_window(now);
    segment_delay.reset();
    block_delay.reset();
  }
};

}  // namespace icollect::p2p
