#pragma once

/// \file network.h
/// The indirect-collection simulation driver: an event-driven
/// realization of every process in Sec. 2 of the paper, built around the
/// transport-agnostic protocol cores in src/proto/.
///
///  - Segment injection: each peer injects a fresh segment of s blocks
///    at rate λ/s, provided its buffer has room for s blocks ("degree no
///    more than B − s").
///  - Gossip: at rate μ each peer with a non-empty buffer picks a
///    buffered segment u.a.r., re-codes one block and ships it to a
///    uniformly random neighbor that still needs blocks of that segment
///    and is not at its buffer cap.
///  - TTL: every block is deleted after an Exp(γ) lifetime.
///  - Server collection: at rate c_s each server asks a uniformly random
///    non-empty peer for a re-coded block of a uniformly random segment
///    in that peer's buffer (coupon-collector pull). Under a feedback
///    pull policy the server first asks the want rule of
///    sched/pull_policies.h for a segment and targets a peer holding
///    it; every bank outcome goes back through the same file's feed.
///  - Churn (optional): exponential peer lifetimes with replacement.
///
/// direct_baseline() configures the same engine as the traditional
/// Fig. 1(a) scheme the paper argues against, so both are measured by
/// one set of processes, metrics and oracles.
///
/// Every Sec. 2 *decision* (what to inject, which segment to gossip or
/// serve, whether a receiver may store, when a block expires) lives in
/// proto::PeerCore / proto::ServerCore; this driver owns what only a
/// global simulation can know — the event queue, the topology, churn,
/// the segment registry and the measurement plane. All transfers carry
/// real GF(2^8) coefficient vectors; innovation, decodability and
/// redundancy are computed, never assumed.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "coding/coded_block.h"
#include "coding/segment_id.h"
#include "obs/clock.h"
#include "obs/profiler.h"
#include "p2p/config.h"
#include "p2p/metrics.h"
#include "p2p/segment_registry.h"
#include "p2p/topology.h"
#include "proto/integrity.h"
#include "proto/peer_core.h"
#include "proto/server_core.h"
#include "proto/trace.h"
#include "sched/rank_tracker.h"
#include "sim/poisson_process.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "workload/generators.h"

namespace icollect::p2p {

// The trace vocabulary is shared protocol surface (proto/trace.h); the
// re-exports keep the simulator driver's API self-contained.
using proto::TraceEvent;
using proto::TraceEventKind;
using proto::TraceSink;

/// One slot's pending TTL expiries. Every armed block has an entry
/// (expiry time, handle), kept sorted by descending time so the soonest
/// is at back(); the event queue holds one wakeup per slot, due at that
/// soonest time. A departure clears the calendar and cancels the wakeup,
/// so no expiry armed by one occupant can reach the next.
struct TtlCalendar {
  struct Entry {
    sim::Time at;
    coding::BlockHandle handle;
  };
  std::vector<Entry> entries;
  sim::EventId wakeup = sim::kInvalidEventId;  ///< pending iff non-empty
};

/// A peer slot in the network: the protocol core plus the slot identity
/// that survives churn replacements. Under the replacement churn model
/// the slot persists while its occupant changes.
struct Peer {
  std::size_t slot = 0;   ///< index in the topology
  proto::PeerCore core;   ///< the Sec. 2 peer state machine
  TtlCalendar ttl;        ///< the occupant's armed block expiries

  Peer(std::size_t slot_idx, const proto::PeerCore::Params& params,
       coding::OriginId origin_id, common::Rng& rng)
      : slot{slot_idx}, core{params, origin_id, rng} {}

  [[nodiscard]] coding::OriginId origin() const noexcept {
    return core.origin();
  }
  [[nodiscard]] const proto::PeerBuffer& buffer() const noexcept {
    return core.buffer();
  }
};

/// Snapshot of the data "saved up in the network for future delivery"
/// (Theorem 4). `degree`-based counts follow the paper's approximation
/// (segment decodable iff it has >= s block copies); `rank`-based counts
/// are exact (union rank of all coefficient vectors in the network).
struct SavedDataCensus {
  std::size_t live_segments = 0;
  std::size_t undecoded_live_segments = 0;
  std::size_t decodable_by_degree = 0;
  std::size_t decodable_by_rank = 0;
  double saved_original_blocks_degree = 0.0;  ///< s * decodable_by_degree
  double saved_original_blocks_rank = 0.0;    ///< s * decodable_by_rank
  /// Partial credit: Σ max(0, network_rank − server_state) over undecoded
  /// live segments — blocks the servers could still usefully pull.
  double pending_innovative_blocks = 0.0;
};

class Network {
 public:
  /// Supplies the s original payload blocks of a new segment. Default
  /// (when unset and payload_bytes > 0): deterministic pseudo-random
  /// bytes from the simulation RNG.
  using PayloadSource = std::function<std::vector<std::vector<std::uint8_t>>(
      const Peer& origin, coding::SegmentId id, std::size_t segment_size,
      std::size_t payload_bytes)>;

  explicit Network(ProtocolConfig cfg);

  /// The traditional Fig. 1(a) scheme: servers pull reports directly
  /// from the peers that generated them. s = 1 and μ = 0, so each
  /// report is its own segment and nothing is gossiped; pulls are
  /// uniform over non-empty peers and each peer serves its oldest report
  /// first. A peer pins its reports (no TTL) until the server's decode
  /// ACK drops them, so B is its report-queue cap and a report arriving
  /// at a full queue is refused (counted in injection_blocked). The rest
  /// of `cfg` (N, λ, B, N_s, c_s, churn, fidelity, seed) applies as is.
  [[nodiscard]] static Network direct_baseline(ProtocolConfig cfg);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Replace the payload source (call before running).
  void set_payload_source(PayloadSource source);

  /// The scheduling state behind rarest/deficit pulls; nullptr under
  /// the uniform policies (ProtocolConfig::pull_policy).
  [[nodiscard]] const sched::RankTracker* pull_tracker() const noexcept {
    return tracker_.get();
  }

  /// Install (or clear, with nullptr) a protocol event trace sink. All
  /// events are delivered in virtual-time order. No cost when unset.
  /// The standard sink is an obs::TraceBuffer (ring + filtered JSONL);
  /// any callable still works.
  void set_trace_sink(TraceSink sink) { trace_ = std::move(sink); }

  /// Attach (or detach, with nullptr) a wall-clock profiler to the
  /// dispatch loop: every protocol event handler plus the GF(2^8) decode
  /// path runs under a named scope ("net.inject", "net.gossip",
  /// "net.server_pull", "net.decode", "net.ttl_expire", "net.depart").
  /// Timer cells are resolved here, once — with no profiler attached the
  /// per-event cost is a single null check.
  void set_profiler(obs::Profiler* profiler);

  /// Drive segment injection from a time-varying per-peer block rate
  /// λ(t) instead of the constant `config().lambda` (flash crowds,
  /// diurnal load). Segments then arrive per peer at rate λ(t)/s.
  /// The profile must outlive the network; pass nullptr to return to the
  /// constant-rate process.
  void set_arrival_profile(const workload::ArrivalProfile* profile);

  /// Fault injection: partition the first ⌊N·fraction⌋ peer slots away
  /// from the rest of the network on [at, heal_at). An isolated peer's
  /// gossip firings are blocked (μ spent, nothing arrives), it is never
  /// chosen as a gossip target, and server pulls that land on it are
  /// wasted. The simulator analogue of LoopbackCluster's isolation
  /// window.
  void set_isolation_window(double fraction, double at, double heal_at);

  /// Advance virtual time to `t` (absolute).
  void run_until(sim::Time t);

  /// Convenience: run to `t`, then reset the measurement window so that
  /// subsequent steady-state estimates exclude the warm-up transient.
  void warm_up(sim::Time t);

  /// Stop all segment injection (end of the reporting streams) while
  /// gossip, TTL and server collection continue — the Theorem 4 regime.
  void stop_injection();

  // --- observers ----------------------------------------------------------
  [[nodiscard]] sim::Time now() const noexcept { return sim_.now(); }
  [[nodiscard]] const ProtocolConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const NetworkMetrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const proto::ServerBank& servers() const noexcept {
    return server_core_.bank();
  }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const Peer& peer(std::size_t slot) const {
    ICOLLECT_EXPECTS(slot < peers_.size());
    return peers_[slot];
  }
  /// Every registered segment; iterates in (origin, seq) order, so two
  /// runs of the same seed list the same entries in the same order.
  [[nodiscard]] const SegmentRegistry& segment_registry() const noexcept {
    return registry_;
  }
  /// Adversary wiring (configured via cfg.adversary): whether a slot is
  /// one of the dishonest ⌊N·fraction⌋, and the shared tag oracle
  /// (nullptr when integrity_checks == 0).
  [[nodiscard]] bool is_dishonest(std::size_t slot) const {
    return peer(slot).core.params().byzantine;
  }
  [[nodiscard]] std::size_t dishonest_count() const noexcept {
    return cfg_.adversary.dishonest_count(cfg_.num_peers);
  }
  [[nodiscard]] const proto::IntegrityAuthority* integrity() const noexcept {
    return integrity_.get();
  }
  [[nodiscard]] bool is_isolated(std::size_t slot) const {
    ICOLLECT_EXPECTS(slot < isolated_.size());
    return isolated_[slot] != 0;
  }

  // --- steady-state estimates over the current measurement window ---------
  /// Session throughput: the rate at which servers obtain useful (state-
  /// advancing / innovative) blocks — exactly the N·c·η of Theorem 2.
  [[nodiscard]] double throughput() const;
  /// Throughput normalized by the aggregate demand N·λ (Fig. 3/4 y-axis).
  [[nodiscard]] double normalized_throughput() const;
  /// Lifetime blocks the peers generated: those admitted
  /// (blocks_injected) plus those refused at a full buffer
  /// (injection_blocked · s).
  [[nodiscard]] std::uint64_t blocks_offered() const noexcept {
    return metrics_.blocks_injected +
           metrics_.injection_blocked * cfg_.segment_size;
  }
  /// Goodput: original blocks of *completed* segments per unit time (a
  /// stricter deliverable-data metric than the paper's throughput).
  [[nodiscard]] double goodput() const;
  [[nodiscard]] double normalized_goodput() const;
  /// Time-weighted mean blocks per peer: the empirical e(t) ≈ ρ.
  [[nodiscard]] double mean_blocks_per_peer() const;
  /// Time-weighted fraction of empty peers: the empirical z_0.
  [[nodiscard]] double empty_peer_fraction() const;
  /// Mean block delivery delay (segment delay / s; Fig. 5 metric).
  [[nodiscard]] double mean_block_delay() const;
  [[nodiscard]] double mean_segment_delay() const;
  /// Empirical storage overhead (1 − z̃_0)·μ/γ analogue: gossip-received
  /// blocks per peer = e − λ/γ; reported directly as e minus demand term.
  [[nodiscard]] double storage_overhead() const;

  /// Instantaneous peer-degree counts: index i = number of peers whose
  /// buffer holds exactly i blocks, for i in [0, max_degree].
  [[nodiscard]] std::vector<std::uint64_t> peer_degree_counts(
      std::size_t max_degree) const;

  /// Exact + degree-approximate census of data buffered for future
  /// delivery (Theorem 4 / Fig. 6).
  [[nodiscard]] SavedDataCensus saved_data_census() const;

  [[nodiscard]] std::size_t live_segment_count() const;

  /// How much of the data generated by already-departed peers the
  /// servers managed to obtain (before or after the departure — in the
  /// indirect scheme collection continues posthumously from the coded
  /// copies other peers hold).
  [[nodiscard]] DepartedDataStats departed_data_stats() const;

  /// Same accounting restricted to each departed peer's *last words*:
  /// blocks injected within `window` time units before its departure —
  /// the paper's motivating case ("peers tend to leave soon after the
  /// quality degrades, such statistics ... may be the most useful").
  /// Only segments still in the registry are counted (see
  /// compact_registry()).
  [[nodiscard]] DepartedDataStats last_words_stats(double window) const;

  /// Long-run memory control: drop registry entries for resolved
  /// segments (SegmentInfo::resolved). Their contribution to
  /// departed_data_stats() is folded into a running baseline first, so
  /// the aggregate recovery numbers survive; windowed last_words_stats()
  /// afterwards only reflects the uncompacted tail.
  /// Returns the number of entries removed.
  std::size_t compact_registry();

 private:
  /// Every constructor lands here; `rules` carries the PeerCore::Params
  /// that ProtocolConfig does not (ACK retention, drop-on-ACK,
  /// oldest-first pulls); its protocol fields are filled from `cfg`.
  Network(ProtocolConfig cfg, proto::PeerCore::Params rules);

  void do_inject(std::size_t slot);
  void schedule_profile_injection(std::size_t slot);
  void do_gossip(std::size_t slot);
  void do_server_pull();
  /// The slot's calendar wakeup: expire its soonest armed block and
  /// re-arm the wakeup at the next one.
  void do_ttl_expire(std::size_t slot);
  void do_depart(std::size_t slot);

  /// Wire one slot's core to the driver: the stored hook maintains the
  /// registry degree, occupancy lists and time-weighted metrics; arm_ttl
  /// files the core-drawn Exp(γ) expiry in the slot's TtlCalendar.
  void wire_core(std::size_t slot);
  /// File an expiry at absolute time `at` in the slot's calendar, moving
  /// the wakeup forward if this block is now the soonest.
  void arm_expiry(std::size_t slot, coding::BlockHandle handle, sim::Time at);
  void schedule_wakeup(std::size_t slot, sim::Time at);

  /// Pick an eligible gossip destination for (source, segment) or
  /// proto::kNoSelection if none exists (uniform over the eligible
  /// neighbors; see proto/selection.h).
  [[nodiscard]] std::size_t pick_gossip_target(std::size_t source,
                                               const coding::SegmentId& seg);

  /// Account one egress block after the sender core's corrupt_egress():
  /// count a corruption, and pin the segment of a block that just
  /// filled a replay cache (SegmentInfo::replay_pins).
  void count_egress(proto::PeerCore::EgressResult result,
                    const coding::CodedBlock& block);

  void on_segment_decoded(const proto::ServerBank::DecodeEvent& event);
  /// ACK a decoded segment to its origin, if that occupant is still
  /// alive, and account the blocks its core drops as do_ttl_expire does.
  void ack_origin(const coding::SegmentId& id, std::size_t origin_slot);
  void note_degree_drop(const coding::SegmentId& id, std::size_t count);
  /// Resolution: once a segment has no live copy and no replay pin, the
  /// simulator never sees a block of it again (it never re-seeds), so
  /// its server decoder and integrity tags are dead state and go.
  void resolve_if_dead(const coding::SegmentId& id, SegmentInfo& info);
  void update_occupancy(std::size_t slot, std::size_t before_size);
  void mark_non_empty(std::size_t slot);
  void mark_empty(std::size_t slot);

  ProtocolConfig cfg_;
  sim::Simulator sim_;
  sim::Rng rng_;
  Topology topology_;
  std::vector<Peer> peers_;
  /// The server half of the protocol, on the simulator's virtual clock.
  obs::CallbackClock sim_clock_;
  proto::ServerCore server_core_;
  /// Deficit state for feedback policies, fed straight from ServerBank
  /// outcomes (the simulator needs no BUFFER_SUMMARY — availability is
  /// the global view itself). nullptr under uniform policies.
  std::unique_ptr<sched::RankTracker> tracker_;
  NetworkMetrics metrics_;
  SegmentRegistry registry_;
  PayloadSource payload_source_;
  const workload::ArrivalProfile* arrival_profile_ = nullptr;
  TraceSink trace_;

  // Pre-resolved profiler cells (null = profiling off; see set_profiler).
  obs::Profiler::Timer* prof_inject_ = nullptr;
  obs::Profiler::Timer* prof_gossip_ = nullptr;
  obs::Profiler::Timer* prof_server_pull_ = nullptr;
  obs::Profiler::Timer* prof_decode_ = nullptr;
  obs::Profiler::Timer* prof_ttl_ = nullptr;
  obs::Profiler::Timer* prof_depart_ = nullptr;

  void emit(TraceEventKind kind, std::size_t slot,
            const coding::SegmentId& segment, std::uint64_t aux) {
    if (trace_) trace_(TraceEvent{kind, sim_.now(), slot, segment, aux});
  }

  // Per-peer recurring processes (stable addresses → unique_ptr).
  std::vector<std::unique_ptr<sim::PoissonProcess>> injectors_;
  std::vector<std::unique_ptr<sim::PoissonProcess>> gossipers_;
  std::vector<std::unique_ptr<sim::PoissonProcess>> server_pullers_;

  // O(1) uniform selection among peers with non-empty buffers.
  std::vector<std::size_t> non_empty_slots_;
  std::vector<std::size_t> non_empty_pos_;  // slot -> index+1 (0 = absent)

  // Reused by do_server_pull's recode so steady-state pulls are
  // allocation-free (buffers grow once, then stay).
  coding::CodedBlock pull_scratch_;

  // --- adversary / fault-injection state (all inert by default) -----------
  /// Shared tag oracle (cfg.adversary.integrity_checks > 0); peers
  /// register injected segments, delivery paths verify against it.
  std::unique_ptr<proto::IntegrityAuthority> integrity_;
  std::vector<std::uint8_t> isolated_;   ///< 1 = currently partitioned away

  std::unordered_map<coding::OriginId, sim::Time> departed_origins_;
  // Contribution of compacted registry entries to the departed totals.
  DepartedDataStats compacted_departed_;
  std::size_t empty_count_ = 0;
  std::size_t full_count_ = 0;
  coding::OriginId next_origin_ = 0;
  bool injection_stopped_ = false;
  /// The cores retain or drop on ACK, so decodes are ACKed to origins.
  bool acks_origins_ = false;
};

}  // namespace icollect::p2p
