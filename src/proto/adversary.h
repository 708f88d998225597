#pragma once

/// \file adversary.h
/// The byzantine-peer adversary vocabulary shared by every driver.
///
/// A dishonest peer runs the Sec. 2 protocol faithfully except on the
/// egress path: blocks it gossips (and blocks it serves to pulling
/// servers) are corrupted according to one of the strategies below. The
/// strategies are chosen to span the detection spectrum of the
/// homomorphic integrity check (proto/integrity.h):
///
///  - kRandomPayload keeps the coding vector honest and scrambles the
///    payload — the classic pollution attack; caught by any payload
///    check.
///  - kGarbageCoefficients keeps the payload honest and scrambles the
///    coding vector — the frame looks perfectly well-formed and a
///    transport CRC is satisfied, but the (coefficients, payload)
///    relation is broken; only a coefficient-aware check catches it.
///  - kReplay resends a previously sent, perfectly valid block —
///    undetectable by any per-block integrity check by construction;
///    its damage (buffer occupancy, redundant pulls) is measured, not
///    filtered.
///
/// Lives in proto/ (pure layer) so the simulator config, the live
/// NodeConfig and the scenario parser all name the same enum. The
/// egress rule itself is proto::PeerCore::corrupt_egress, the run's tag
/// oracle comes from proto::make_run_authority (proto/integrity.h), and
/// the decode-time CRC check is ServerBank::DecodeEvent::crc_mismatches:
/// the simulator and the live runtime call the same code for each.

#include <cstddef>
#include <cstdint>

namespace icollect::proto {

enum class CorruptionStrategy : std::uint8_t {
  kRandomPayload,        ///< honest coefficients, scrambled payload
  kGarbageCoefficients,  ///< honest payload, scrambled coefficients
  kReplay,               ///< resend a previously sent valid block
};

[[nodiscard]] constexpr const char* to_string(CorruptionStrategy s) noexcept {
  switch (s) {
    case CorruptionStrategy::kRandomPayload: return "random-payload";
    case CorruptionStrategy::kGarbageCoefficients:
      return "garbage-coefficients";
    case CorruptionStrategy::kReplay: return "replay";
  }
  return "?";
}

/// A byzantine population: a fixed fraction of the peers corrupts every
/// block it emits, gossip and pull replies alike, per `strategy`, and
/// per-block integrity verification quarantines what it can
/// (proto/integrity.h). Part of proto::OperatingPoint, which validates
/// it, and of the `--scenario byzantine:` spec.
struct AdversaryConfig {
  /// Fraction of peers that are dishonest, in [0, 1]. The first
  /// ⌊N·fraction⌋ slots are chosen — deterministic under a fixed seed,
  /// and unbiased under the complete topology where slots are
  /// exchangeable.
  double dishonest_fraction = 0.0;
  CorruptionStrategy strategy = CorruptionStrategy::kRandomPayload;
  /// Homomorphic integrity checks per block (0 = verification off).
  /// Escape probability for a forged block is 256^-checks.
  std::size_t integrity_checks = 0;

  /// ⌊N·dishonest_fraction⌋: how many of `num_peers` slots, counted
  /// from slot 0, run a byzantine proto::PeerCore. Both drivers size
  /// their dishonest population here.
  [[nodiscard]] std::size_t dishonest_count(
      std::size_t num_peers) const noexcept {
    return static_cast<std::size_t>(static_cast<double>(num_peers) *
                                    dishonest_fraction);
  }
};

}  // namespace icollect::proto
