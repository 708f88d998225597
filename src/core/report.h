#pragma once

/// \file report.h
/// The aggregate outcome of a collection run, covering the four
/// evaluation axes of Sec. 4: storage overhead, session throughput,
/// delivery delay, and loss resilience.

#include <cstdint>
#include <string>

#include "obs/json.h"
#include "p2p/network.h"

namespace icollect {

struct CollectionReport {
  // --- run shape ------------------------------------------------------------
  double measured_time = 0.0;  ///< length of the measurement window
  double normalized_capacity = 0.0;  ///< c = c_s·N_s/N

  // --- throughput (Theorem 2) ----------------------------------------------
  double throughput = 0.0;             ///< useful (innovative) pulls / time
  double normalized_throughput = 0.0;  ///< throughput / (N·λ)
  double capacity_bound = 0.0;  ///< min(c, λ)/λ, the dashed line of Fig. 3
  double goodput = 0.0;         ///< blocks of fully decoded segments / time
  double normalized_goodput = 0.0;

  // --- delay (Theorem 3) -----------------------------------------------------
  double mean_block_delay = 0.0;    ///< segment delay / s
  double mean_segment_delay = 0.0;
  double max_segment_delay = 0.0;

  // --- storage (Theorem 1) ---------------------------------------------------
  double mean_blocks_per_peer = 0.0;  ///< empirical ρ
  double storage_overhead = 0.0;      ///< ρ − λ/γ (gossip-held share)
  double empty_peer_fraction = 0.0;   ///< empirical z̃_0
  double overhead_bound = 0.0;        ///< μ/γ, Theorem 1's upper bound

  // --- accounting -------------------------------------------------------------
  std::uint64_t segments_injected = 0;
  std::uint64_t segments_decoded = 0;
  std::uint64_t segments_lost = 0;  ///< vanished from network undecoded
  std::uint64_t blocks_injected = 0;
  std::uint64_t original_blocks_recovered = 0;
  std::uint64_t server_pulls = 0;
  std::uint64_t redundant_pulls = 0;
  std::uint64_t payload_crc_failures = 0;

  // --- churn -------------------------------------------------------------------
  std::uint64_t peers_departed = 0;
  std::uint64_t blocks_lost_to_churn = 0;

  // --- buffered data (Theorem 4) -----------------------------------------------
  p2p::SavedDataCensus saved;

  /// Fraction of pulls that were redundant: 1 − η, the coupon-collector
  /// waste the coding is meant to reduce.
  [[nodiscard]] double redundancy_fraction() const noexcept {
    return server_pulls > 0 ? static_cast<double>(redundant_pulls) /
                                  static_cast<double>(server_pulls)
                            : 0.0;
  }
};

namespace detail {
inline std::string report_json(const CollectionReport& r,
                               bool storage_terms) {
  obs::JsonObject saved;
  saved.field("live_segments", r.saved.live_segments)
      .field("undecoded_live_segments", r.saved.undecoded_live_segments)
      .field("decodable_by_degree", r.saved.decodable_by_degree)
      .field("decodable_by_rank", r.saved.decodable_by_rank)
      .field("saved_original_blocks_degree",
             r.saved.saved_original_blocks_degree)
      .field("saved_original_blocks_rank", r.saved.saved_original_blocks_rank)
      .field("pending_innovative_blocks", r.saved.pending_innovative_blocks);
  obs::JsonObject o;
  o.field("measured_time", r.measured_time)
      .field("normalized_capacity", r.normalized_capacity)
      .field("throughput", r.throughput)
      .field("normalized_throughput", r.normalized_throughput)
      .field("capacity_bound", r.capacity_bound)
      .field("goodput", r.goodput)
      .field("normalized_goodput", r.normalized_goodput)
      .field("mean_block_delay", r.mean_block_delay)
      .field("mean_segment_delay", r.mean_segment_delay)
      .field("max_segment_delay", r.max_segment_delay)
      .field("mean_blocks_per_peer", r.mean_blocks_per_peer);
  if (storage_terms) o.field("storage_overhead", r.storage_overhead);
  o.field("empty_peer_fraction", r.empty_peer_fraction);
  if (storage_terms) o.field("overhead_bound", r.overhead_bound);
  o.field("segments_injected", r.segments_injected)
      .field("segments_decoded", r.segments_decoded)
      .field("segments_lost", r.segments_lost)
      .field("blocks_injected", r.blocks_injected)
      .field("original_blocks_recovered", r.original_blocks_recovered)
      .field("server_pulls", r.server_pulls)
      .field("redundant_pulls", r.redundant_pulls)
      .field("redundancy_fraction", r.redundancy_fraction())
      .field("payload_crc_failures", r.payload_crc_failures)
      .field("peers_departed", r.peers_departed)
      .field("blocks_lost_to_churn", r.blocks_lost_to_churn)
      .field_raw("saved", saved.str());
  return o.str();
}
}  // namespace detail

/// The report as one flat-ish JSON object (saved-data census nested) —
/// the summary.json of a telemetry bundle.
[[nodiscard]] inline std::string to_json(const CollectionReport& r) {
  return detail::report_json(r, /*storage_terms=*/true);
}

/// The direct baseline's summary (direct_summary.json): to_json()
/// without storage_overhead and overhead_bound. Theorem 1's gossip-held
/// share ρ − λ/γ and its μ/γ bound describe TTL-aged gossip storage;
/// the baseline's pinned report queues have neither.
[[nodiscard]] inline std::string to_direct_json(const CollectionReport& r) {
  return detail::report_json(r, /*storage_terms=*/false);
}

}  // namespace icollect
