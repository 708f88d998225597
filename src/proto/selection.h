#pragma once

/// \file selection.h
/// Uniform selection over an eligibility-filtered candidate set — the
/// one sampling idiom both drivers share for "pick a random X that can
/// still take this block".
///
/// Rejection sampling first: probe uniform indices and reject ineligible
/// ones. Conditioning a uniform draw on eligibility IS the uniform
/// distribution over eligible candidates, so the statistics are
/// identical to building the candidate list up front — at O(1) expected
/// cost when most candidates are eligible. Only when every probe rejects
/// (mostly-ineligible population) do we pay for one exhaustive scan,
/// which also guarantees an eligible candidate is found whenever one
/// exists.
///
/// The simulator's gossip-target choice (12 probes over neighbors) and
/// the live server's pull-target choice (16 probes over the roster) are
/// both instances; keeping the algorithm here keeps their RNG draw
/// sequences — and therefore every seeded golden output — defined in
/// exactly one place.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"

namespace icollect::proto {

/// Returned when no candidate is eligible.
inline constexpr std::size_t kNoSelection = static_cast<std::size_t>(-1);

/// Non-owning reference to an eligibility predicate over candidate
/// indices. Avoids the per-call allocation a std::function could incur
/// on the pull hot path; the callee must not outlive the callable.
class EligibleRef {
 public:
  template <typename F>
  EligibleRef(const F& fn)  // NOLINT(google-explicit-constructor)
      : obj_{&fn}, call_{[](const void* o, std::size_t i) {
          return (*static_cast<const F*>(o))(i);
        }} {}

  [[nodiscard]] bool operator()(std::size_t i) const {
    return call_(obj_, i);
  }

 private:
  const void* obj_;
  bool (*call_)(const void*, std::size_t);
};

/// Pick uniformly at random among the eligible members of [0, n), using
/// `probes` rejection samples before the exhaustive-scan fallback.
/// `index(i)` maps a sampled position to the candidate handed to
/// `eligible` and returned (identity for flat arrays; a neighbor lookup
/// for adjacency lists). Returns kNoSelection when no candidate is
/// eligible. Draw sequence: one uniform_index(n) per probe, then — only
/// on fallback with a non-empty eligible set — one uniform_index over
/// that set.
template <typename IndexFn>
[[nodiscard]] std::size_t uniform_over_eligible(common::Rng& rng,
                                                std::size_t n, int probes,
                                                IndexFn&& index,
                                                EligibleRef eligible) {
  if (n == 0) return kNoSelection;
  for (int attempt = 0; attempt < probes; ++attempt) {
    const std::size_t cand = index(rng.uniform_index(n));
    if (eligible(cand)) return cand;
  }
  std::vector<std::size_t> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cand = index(i);
    if (eligible(cand)) pool.push_back(cand);
  }
  if (pool.empty()) return kNoSelection;
  return pool[rng.uniform_index(pool.size())];
}

/// Flat-array overload: candidates are the indices [0, n) themselves.
[[nodiscard]] inline std::size_t uniform_over_eligible(common::Rng& rng,
                                                       std::size_t n,
                                                       int probes,
                                                       EligibleRef eligible) {
  return uniform_over_eligible(
      rng, n, probes, [](std::size_t i) { return i; }, eligible);
}

/// The same choice when the eligible set is already known: `candidates`
/// lists, in ascending order, exactly the indices of [0, n) a predicate
/// accepts. Draw for draw identical to uniform_over_eligible(rng, n,
/// probes, predicate): `probes` uniform_index(n) draws — made even when
/// `candidates` is empty — returning the first that hits a candidate,
/// then one uniform_index(candidates.size()) when every probe missed
/// and a candidate exists. A caller that can enumerate its few
/// candidates directly pays O(probes · log k) instead of one predicate
/// call per probe plus an O(n) scan.
[[nodiscard]] inline std::size_t uniform_over_candidates(
    common::Rng& rng, std::size_t n, int probes,
    std::span<const std::size_t> candidates) {
  if (n == 0) return kNoSelection;
  for (int attempt = 0; attempt < probes; ++attempt) {
    const std::size_t cand = rng.uniform_index(n);
    if (std::binary_search(candidates.begin(), candidates.end(), cand)) {
      return cand;
    }
  }
  if (candidates.empty()) return kNoSelection;
  return candidates[rng.uniform_index(candidates.size())];
}

}  // namespace icollect::proto
