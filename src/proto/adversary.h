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
/// NodeConfig and the scenario parser all name the same enum.

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

}  // namespace icollect::proto
