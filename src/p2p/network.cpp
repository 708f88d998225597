#include "p2p/network.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "p2p/churn.h"
#include "proto/selection.h"
#include "sched/pull_policies.h"
#include "workload/trace_replay.h"

namespace icollect::p2p {

namespace {
/// Rejection-sampling attempts before falling back to a full scan when
/// selecting a gossip target u.a.r. among eligible neighbors.
constexpr int kTargetSampleTries = 12;

/// Same, for finding a holder of the wanted segment among non-empty
/// peers under a scheduling pull policy.
constexpr int kHolderSampleTries = 16;

/// The config, checked before any member (the topology first) uses it.
ProtocolConfig validated(ProtocolConfig cfg) {
  cfg.validate();
  return cfg;
}
}  // namespace

Network::Network(ProtocolConfig cfg)
    : Network{std::move(cfg), proto::PeerCore::Params{}} {}

Network Network::direct_baseline(ProtocolConfig cfg) {
  cfg.segment_size = 1;
  cfg.mu = 0.0;
  cfg.pull_policy = proto::PullPolicyKind::kUniform;
  proto::PeerCore::Params rules;
  rules.retain_own_until_acked = true;
  rules.drop_on_ack = true;
  rules.pull_oldest_first = true;
  return Network{std::move(cfg), rules};
}

Network::Network(ProtocolConfig cfg, proto::PeerCore::Params rules)
    : cfg_{validated(std::move(cfg))},
      rng_{cfg_.seed},
      topology_{Topology::build(cfg_, rng_)},
      sim_clock_{[this] { return sim_.now(); }},
      server_core_{/*keep_payloads=*/cfg_.payload_bytes > 0, sim_clock_} {
  if (proto::wants_feedback(cfg_.pull_policy)) {
    tracker_ = std::make_unique<sched::RankTracker>();
  }
  acks_origins_ = rules.retain_own_until_acked || rules.drop_on_ack;
  proto::PeerCore::Params core_params = rules;
  core_params.segment_size = cfg_.segment_size;
  core_params.buffer_cap = cfg_.buffer_cap;
  core_params.gamma = cfg_.gamma;
  core_params.payload_bytes = cfg_.payload_bytes;
  core_params.gossip_policy = cfg_.gossip_policy;
  core_params.corruption = cfg_.adversary.strategy;
  peers_.reserve(cfg_.num_peers);
  for (std::size_t slot = 0; slot < cfg_.num_peers; ++slot) {
    core_params.byzantine = slot < dishonest_count();
    peers_.emplace_back(slot, core_params, next_origin_++, rng_);
    wire_core(slot);
  }
  // Adversary wiring (inert at the defaults: no authority, no dishonest
  // slots, nobody isolated — and none of it draws from the RNG stream).
  isolated_.assign(cfg_.num_peers, 0);
  integrity_ = proto::make_run_authority(cfg_.seed,
                                         cfg_.adversary.integrity_checks);
  if (integrity_ != nullptr) {
    server_core_.set_integrity(integrity_.get());
    for (auto& p : peers_) p.core.set_integrity(integrity_.get());
  }

  non_empty_pos_.assign(cfg_.num_peers, 0);
  empty_count_ = cfg_.num_peers;
  metrics_.empty_peers.update(0.0, static_cast<double>(empty_count_));
  metrics_.full_peers.update(0.0, 0.0);
  metrics_.total_blocks.update(0.0, 0.0);

  server_core_.set_decode_callback(
      [this](const proto::ServerBank::DecodeEvent& ev) {
        on_segment_decoded(ev);
      });

  // Expected concurrent events: one injector + one gossiper timer per
  // peer, up to buffer_cap TTL timers per peer, one timer per server,
  // plus churn departure timers. Reserving up front keeps the hot loop
  // free of heap and slot-table regrowth.
  const std::size_t ttl_slack =
      cfg_.num_peers * std::min<std::size_t>(cfg_.buffer_cap, 2);
  sim_.reserve_events(cfg_.num_peers * (cfg_.churn.enabled ? 3 : 2) +
                      ttl_slack + cfg_.num_servers + 64);

  // Per-peer recurring processes. Rates are the paper's: injection λ/s,
  // gossip μ. Empty-buffer gossip firings are thinned inside do_gossip,
  // which leaves the conditional process exactly the one in the model.
  const double inject_rate =
      cfg_.lambda / static_cast<double>(cfg_.segment_size);
  for (std::size_t slot = 0; slot < cfg_.num_peers; ++slot) {
    injectors_.push_back(std::make_unique<sim::PoissonProcess>(
        sim_, rng_, inject_rate, [this, slot] { do_inject(slot); }));
    gossipers_.push_back(std::make_unique<sim::PoissonProcess>(
        sim_, rng_, cfg_.mu, [this, slot] { do_gossip(slot); }));
    injectors_.back()->start();
    gossipers_.back()->start();
  }
  for (std::size_t srv = 0; srv < cfg_.num_servers; ++srv) {
    server_pullers_.push_back(std::make_unique<sim::PoissonProcess>(
        sim_, rng_, cfg_.server_rate, [this] { do_server_pull(); }));
    server_pullers_.back()->start();
  }
  if (cfg_.churn.enabled) {
    for (std::size_t slot = 0; slot < cfg_.num_peers; ++slot) {
      sim_.schedule_after(sample_lifetime(cfg_.churn, rng_),
                          [this, slot] { do_depart(slot); });
    }
  }
}

void Network::wire_core(std::size_t slot) {
  proto::PeerCore& core = peers_[slot].core;
  // Every block landing in a peer buffer — injection or gossip —
  // funnels through this hook: the driver maintains what only the global
  // view knows (registry degree, occupancy lists, time-weighted totals).
  core.set_stored_hook(
      [this, slot](const coding::SegmentId& seg, std::size_t before) {
        SegmentInfo& info = registry_.at(seg);
        ICOLLECT_ENSURES(!info.resolved);
        ++info.degree;
        metrics_.total_blocks.add(sim_.now(), 1.0);
        update_occupancy(slot, before);
      });
  // The core draws the Exp(γ) lifetime; the driver owns the clock, so
  // expiry lands on the event queue stamped with the occupant's
  // incarnation (delayed expiries of a departed occupant are no-ops).
  core.set_arm_ttl([this, slot](coding::BlockHandle handle, double delay) {
    const std::uint64_t incarnation = peers_[slot].incarnation;
    sim_.schedule_after(delay, [this, slot, incarnation, handle] {
      do_ttl_expire(slot, incarnation, handle);
    });
  });
}

void Network::set_payload_source(PayloadSource source) {
  payload_source_ = std::move(source);
  for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
    if (payload_source_) {
      peers_[slot].core.set_payload_source(
          [this, slot](const coding::SegmentId& id, std::size_t s,
                       std::size_t payload_bytes) {
            return payload_source_(peers_[slot], id, s, payload_bytes);
          });
    } else {
      peers_[slot].core.set_payload_source(nullptr);
    }
  }
}

void Network::set_profiler(obs::Profiler* profiler) {
  auto cell = [profiler](const char* name) {
    return profiler != nullptr ? &profiler->timer(name) : nullptr;
  };
  prof_inject_ = cell("net.inject");
  prof_gossip_ = cell("net.gossip");
  prof_server_pull_ = cell("net.server_pull");
  prof_decode_ = cell("net.decode");
  prof_ttl_ = cell("net.ttl_expire");
  prof_depart_ = cell("net.depart");
}

void Network::set_arrival_profile(const workload::ArrivalProfile* profile) {
  arrival_profile_ = profile;
  if (profile != nullptr) {
    for (auto& inj : injectors_) inj->stop();
    if (!injection_stopped_) {
      for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
        schedule_profile_injection(slot);
      }
    }
  } else if (!injection_stopped_) {
    for (auto& inj : injectors_) inj->start();
  }
}

void Network::schedule_profile_injection(std::size_t slot) {
  // Per-peer segment arrivals at rate λ(t)/s: sample the next λ(t) event
  // by thinning, then accept it with probability 1/s — an exact thinning
  // of the block process down to the segment process.
  ICOLLECT_EXPECTS(arrival_profile_ != nullptr);
  const double at =
      workload::next_arrival(*arrival_profile_, sim_.now(), rng_);
  sim_.schedule_at(at, [this, slot] {
    if (injection_stopped_ || arrival_profile_ == nullptr) return;
    if (rng_.uniform() * static_cast<double>(cfg_.segment_size) < 1.0) {
      do_inject(slot);
    }
    schedule_profile_injection(slot);
  });
}

void Network::set_isolation_window(double fraction, double at,
                                   double heal_at) {
  ICOLLECT_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  ICOLLECT_EXPECTS(heal_at > at);
  const std::size_t count =
      workload::isolated_peer_count(cfg_.num_peers, fraction);
  sim_.schedule_at(at, [this, count] {
    for (std::size_t slot = 0; slot < count; ++slot) isolated_[slot] = 1;
  });
  sim_.schedule_at(heal_at, [this, count] {
    for (std::size_t slot = 0; slot < count; ++slot) isolated_[slot] = 0;
  });
}

void Network::run_until(sim::Time t) { sim_.run_until(t); }

void Network::warm_up(sim::Time t) {
  run_until(t);
  metrics_.reset_measurement_window(sim_.now());
}

void Network::stop_injection() {
  injection_stopped_ = true;
  for (auto& p : injectors_) p->stop();
}

void Network::do_inject(std::size_t slot) {
  const obs::ProfScope prof{prof_inject_};
  Peer& p = peers_[slot];
  if (!p.core.can_inject()) {
    ++metrics_.injection_blocked;
    return;
  }
  // Register the segment before inject(): the per-block stored hooks
  // look it up as each systematic block lands.
  const coding::SegmentId id = p.core.next_segment_id();
  SegmentInfo info;
  info.injected_at = sim_.now();
  info.origin_slot = static_cast<std::uint32_t>(slot);
  info.segment_size = static_cast<std::uint32_t>(cfg_.segment_size);
  SegmentInfo& registered = registry_.emplace(id, std::move(info));
  proto::PeerCore::Injected injected = p.core.inject();
  ICOLLECT_ENSURES(injected.id == id);
  registered.original_crcs = std::move(injected.crcs);
  ++metrics_.segments_injected;
  metrics_.blocks_injected += cfg_.segment_size;
  metrics_.injected_blocks_window.record(cfg_.segment_size);
  emit(TraceEventKind::kSegmentInjected, slot, id, cfg_.segment_size);
}

std::size_t Network::pick_gossip_target(std::size_t source,
                                        const coding::SegmentId& seg) {
  // Sender-side filtering: the simulator's global view applies the
  // receiver's storage rule (proto::PeerCore::can_accept) before
  // sending, so every gossiped block lands.
  const auto eligible = [this, &seg](std::size_t cand) {
    return isolated_[cand] == 0 && peers_[cand].core.can_accept(seg);
  };
  return proto::uniform_over_eligible(
      rng_, topology_.degree(source), kTargetSampleTries,
      [this, source](std::size_t i) { return topology_.neighbor(source, i); },
      proto::EligibleRef{eligible});
}

void Network::do_gossip(std::size_t slot) {
  const obs::ProfScope prof{prof_gossip_};
  Peer& a = peers_[slot];
  if (isolated_[slot] != 0) {
    ++metrics_.gossip_blocked_isolated;  // μ spent, partitioned away
    return;
  }
  if (!a.core.has_blocks()) {
    ++metrics_.gossip_idle;
    return;
  }
  const coding::SegmentId seg = a.core.choose_gossip_segment();
  const std::size_t target = pick_gossip_target(slot, seg);
  if (target == proto::kNoSelection) {
    ++metrics_.gossip_no_target;
    return;
  }
  if (cfg_.gossip_loss > 0.0 && rng_.bernoulli(cfg_.gossip_loss)) {
    ++metrics_.gossip_lost_in_transit;  // μ spent, block never arrives
    emit(TraceEventKind::kGossipLost, slot, seg, target);
    return;
  }
  coding::CodedBlock block = a.core.recode(seg);
  count_egress(a.core.corrupt_egress(block), block);
  // The receiver's integrity check runs at delivery. The simulator's
  // sender-side can_accept filtering already guaranteed storage room;
  // this is the one acceptance rule a global view cannot pre-apply,
  // because it depends on the block's actual bytes.
  if (integrity_ != nullptr &&
      integrity_->verify(block) != proto::VerifyResult::kOk) {
    ++metrics_.blocks_quarantined;
    emit(TraceEventKind::kBlockQuarantined, target, block.segment, slot);
    return;
  }
  peers_[target].core.store(std::move(block));
  ++metrics_.gossip_sent;
  emit(TraceEventKind::kGossipSent, slot, seg, target);
}

void Network::do_server_pull() {
  const obs::ProfScope prof{prof_server_pull_};
  ++metrics_.server_pull_attempts;
  std::size_t slot = proto::kNoSelection;
  // Scheduling policies name the segment they want and bias peer
  // selection toward its holders — here with the simulator's exact
  // global view in place of the live BUFFER_SUMMARY estimates. A want
  // with no live holder is parked (suspend) and the pull falls back to
  // the paper's uniform rule, which doubles as discovery.
  std::optional<coding::SegmentId> want;
  if (tracker_ != nullptr) {
    want = sched::next_want(cfg_.pull_policy, rng_, *tracker_);
  }
  if (want) {
    if (!non_empty_slots_.empty()) {
      const auto by_slot = [&](std::size_t i) { return non_empty_slots_[i]; };
      const auto holds = [&](std::size_t s) {
        return peers_[s].core.buffer().find(*want) != nullptr &&
               !tracker_->is_exhausted(s, *want);
      };
      slot = proto::uniform_over_eligible(rng_, non_empty_slots_.size(),
                                          kHolderSampleTries, by_slot, holds);
    }
    if (slot == proto::kNoSelection) {
      tracker_->suspend(*want);
      want.reset();
    }
  }
  if (slot == proto::kNoSelection) {
    if (cfg_.pull_policy == proto::PullPolicyKind::kUniformAll) {
      // Blind probing: the pull is spent even if the probed peer has
      // nothing to offer.
      slot = rng_.uniform_index(peers_.size());
      if (!peers_[slot].core.has_blocks()) {
        ++metrics_.server_empty_probes;
        return;
      }
    } else {
      if (non_empty_slots_.empty()) return;
      slot = non_empty_slots_[rng_.uniform_index(non_empty_slots_.size())];
    }
  }
  Peer& d = peers_[slot];
  if (isolated_[slot] != 0) {
    // The pulled peer is unreachable: the pull is spent, nothing returns.
    ++metrics_.pulls_blocked_isolated;
    return;
  }
  const coding::SegmentId seg = want ? *want : d.core.choose_pull_segment();
  metrics_.server_pulls_window.record();
  const bool counted = cfg_.fidelity == CollectionFidelity::kStateCounter;
  // Attribute by the block actually offered: a replaying adversary may
  // answer the pull with a cached block of a *different* segment.
  const coding::SegmentId& offered = counted ? seg : pull_scratch_.segment;
  proto::ServerBank::PullResult result;
  SegmentInfo* info = nullptr;
  {
    // The GF(2^8) decode path: re-coding the pulled block and reducing
    // it through the server-side progressive decoder.
    const obs::ProfScope decode_prof{prof_decode_};
    if (!counted) {
      // Recode into a long-lived scratch block so the steady-state pull
      // path performs no heap allocation.
      d.core.recode_into(seg, pull_scratch_);
      count_egress(d.core.corrupt_egress(pull_scratch_), pull_scratch_);
    }
    // A resolved segment's decoder is gone; offering one of its blocks
    // would silently start a fresh one.
    info = &registry_.at(offered);
    ICOLLECT_ENSURES(!info->resolved);
    result = counted ? server_core_.on_pull_counted(seg, cfg_.segment_size)
                     : server_core_.on_pull_block(pull_scratch_);
  }
  if (result == proto::ServerBank::PullResult::kPolluted) {
    // Quarantined before Gaussian elimination; the pull is spent.
    ++metrics_.polluted_pulls;
    emit(TraceEventKind::kBlockQuarantined, slot, pull_scratch_.segment,
         slot);
    return;
  }
  if (result == proto::ServerBank::PullResult::kInnovative) {
    metrics_.innovative_pulls_window.record();
    ++info->collected;
  }
  if (tracker_ != nullptr) {
    sched::feed_outcome(*tracker_, server_core_.bank(), offered,
                        cfg_.segment_size, result, slot);
  }
  emit(TraceEventKind::kServerPull, slot, offered,
       result == proto::ServerBank::PullResult::kInnovative ? 1 : 0);
}

void Network::on_segment_decoded(const proto::ServerBank::DecodeEvent& event) {
  SegmentInfo& info = registry_.at(event.id);
  info.decoded = true;
  info.decoded_at = event.when;
  const auto s = static_cast<double>(info.segment_size);
  const double delay = event.when - info.injected_at;
  metrics_.segment_delay.add(delay);
  metrics_.block_delay.add(delay / s);
  metrics_.decoded_original_blocks.record(info.segment_size);
  emit(TraceEventKind::kSegmentDecoded, info.origin_slot, event.id,
       info.segment_size);
  metrics_.payload_crc_failures += event.crc_mismatches(info.original_crcs);
  if (acks_origins_) ack_origin(event.id, info.origin_slot);
}

void Network::ack_origin(const coding::SegmentId& id,
                         std::size_t origin_slot) {
  Peer& p = peers_[origin_slot];
  if (p.origin() != id.origin) return;  // departed; its blocks went then
  const std::size_t before = p.buffer().size();
  p.core.on_ack(id);
  const std::size_t dropped = before - p.buffer().size();
  if (dropped == 0) return;
  metrics_.total_blocks.add(sim_.now(), -static_cast<double>(dropped));
  note_degree_drop(id, dropped);
  update_occupancy(origin_slot, before);
}

void Network::do_ttl_expire(std::size_t slot, std::uint64_t incarnation,
                            coding::BlockHandle handle) {
  const obs::ProfScope prof{prof_ttl_};
  Peer& p = peers_[slot];
  if (p.incarnation != incarnation) return;  // occupant changed (churn)
  const std::size_t before = p.buffer().size();
  const auto seg = p.core.on_ttl_expired(handle);
  if (!seg) return;  // already removed
  ++metrics_.ttl_expirations;
  metrics_.total_blocks.add(sim_.now(), -1.0);
  emit(TraceEventKind::kTtlExpired, slot, *seg, 0);
  note_degree_drop(*seg, 1);
  update_occupancy(slot, before);
}

void Network::do_depart(std::size_t slot) {
  const obs::ProfScope prof{prof_depart_};
  Peer& p = peers_[slot];
  // Account every buffered block's disappearance in the registry.
  for (const auto& seg_id : p.buffer().segments()) {
    const coding::SegmentBuffer* sb = p.buffer().find(seg_id);
    note_degree_drop(seg_id, sb->block_count());
  }
  const std::size_t before = p.buffer().size();
  const std::size_t lost = p.core.clear_all();
  ++metrics_.peers_departed;
  metrics_.blocks_lost_to_churn += lost;
  metrics_.total_blocks.add(sim_.now(), -static_cast<double>(lost));
  emit(TraceEventKind::kPeerDeparted, slot, coding::SegmentId{}, lost);
  update_occupancy(slot, before);

  // Replacement model: a fresh peer joins the same slot immediately.
  // The fresh occupant has sent nothing yet, so rebirth() drops the
  // predecessor's replay block. That releases its pin, which may
  // resolve the segment.
  if (const coding::CodedBlock* replayed = p.core.replay_block()) {
    SegmentInfo& info = registry_.at(replayed->segment);
    ICOLLECT_ENSURES(info.replay_pins > 0);
    --info.replay_pins;
    resolve_if_dead(replayed->segment, info);
  }
  departed_origins_.emplace(p.origin(), sim_.now());
  ++p.incarnation;
  p.core.rebirth(next_origin_++);

  sim_.schedule_after(sample_lifetime(cfg_.churn, rng_),
                      [this, slot] { do_depart(slot); });
}

void Network::count_egress(proto::PeerCore::EgressResult result,
                           const coding::CodedBlock& block) {
  if (result == proto::PeerCore::EgressResult::kHonest) return;
  ++metrics_.blocks_corrupted;
  if (result == proto::PeerCore::EgressResult::kReplayCached) {
    ++registry_.at(block.segment).replay_pins;
  }
}

void Network::note_degree_drop(const coding::SegmentId& id,
                               std::size_t count) {
  SegmentInfo& info = registry_.at(id);
  ICOLLECT_ENSURES(info.degree >= count);
  info.degree -= count;
  if (info.degree == 0 && !info.decoded && !info.lost) {
    info.lost = true;
    ++metrics_.segments_lost;
    emit(TraceEventKind::kSegmentLost, info.origin_slot, id, info.collected);
  }
  resolve_if_dead(id, info);
}

void Network::resolve_if_dead(const coding::SegmentId& id,
                              SegmentInfo& info) {
  if (info.degree != 0 || info.replay_pins != 0) return;
  info.resolved = true;
  info.original_crcs = {};  // read only at decode, which cannot happen now
  ++metrics_.segments_resolved;
  server_core_.bank().forget(id);
  if (integrity_ != nullptr) integrity_->forget(id);
}

void Network::update_occupancy(std::size_t slot, std::size_t before_size) {
  const Peer& p = peers_[slot];
  const std::size_t after = p.buffer().size();
  if (before_size == after) return;
  const bool was_empty = before_size == 0;
  const bool is_empty = after == 0;
  const bool was_full = before_size >= cfg_.buffer_cap;
  const bool is_full = after >= cfg_.buffer_cap;
  if (was_empty && !is_empty) {
    --empty_count_;
    mark_non_empty(slot);
    metrics_.empty_peers.update(sim_.now(), static_cast<double>(empty_count_));
  } else if (!was_empty && is_empty) {
    ++empty_count_;
    mark_empty(slot);
    metrics_.empty_peers.update(sim_.now(), static_cast<double>(empty_count_));
  }
  if (was_full != is_full) {
    full_count_ += is_full ? 1 : -1;
    metrics_.full_peers.update(sim_.now(), static_cast<double>(full_count_));
  }
}

void Network::mark_non_empty(std::size_t slot) {
  if (non_empty_pos_[slot] != 0) return;
  non_empty_slots_.push_back(slot);
  non_empty_pos_[slot] = non_empty_slots_.size();  // index + 1
}

void Network::mark_empty(std::size_t slot) {
  const std::size_t pos1 = non_empty_pos_[slot];
  if (pos1 == 0) return;
  const std::size_t pos = pos1 - 1;
  const std::size_t last = non_empty_slots_.size() - 1;
  if (pos != last) {
    non_empty_slots_[pos] = non_empty_slots_[last];
    non_empty_pos_[non_empty_slots_[pos]] = pos + 1;
  }
  non_empty_slots_.pop_back();
  non_empty_pos_[slot] = 0;
}

double Network::throughput() const {
  return metrics_.innovative_pulls_window.rate(sim_.now());
}

double Network::normalized_throughput() const {
  const double demand =
      static_cast<double>(cfg_.num_peers) * cfg_.lambda;
  return demand > 0.0 ? throughput() / demand : 0.0;
}

double Network::goodput() const {
  return metrics_.decoded_original_blocks.rate(sim_.now());
}

double Network::normalized_goodput() const {
  const double demand =
      static_cast<double>(cfg_.num_peers) * cfg_.lambda;
  return demand > 0.0 ? goodput() / demand : 0.0;
}

double Network::mean_blocks_per_peer() const {
  return metrics_.total_blocks.mean(sim_.now()) /
         static_cast<double>(cfg_.num_peers);
}

double Network::empty_peer_fraction() const {
  return metrics_.empty_peers.mean(sim_.now()) /
         static_cast<double>(cfg_.num_peers);
}

double Network::mean_block_delay() const {
  return metrics_.block_delay.mean();
}

double Network::mean_segment_delay() const {
  return metrics_.segment_delay.mean();
}

double Network::storage_overhead() const {
  // Theorem 1 decomposes ρ = overhead + λ/γ; the measured analogue is the
  // mean buffered blocks per peer minus the peer's own injected share.
  return mean_blocks_per_peer() - cfg_.lambda / cfg_.gamma;
}

std::vector<std::uint64_t> Network::peer_degree_counts(
    std::size_t max_degree) const {
  std::vector<std::uint64_t> counts(max_degree + 1, 0);
  for (const auto& p : peers_) {
    const std::size_t d = std::min(p.buffer().size(), max_degree);
    ++counts[d];
  }
  return counts;
}

SavedDataCensus Network::saved_data_census() const {
  SavedDataCensus out;
  // Exact union-rank per live segment: merge the coefficient rows held by
  // every peer into one probe decoder per segment. Cost is O(total
  // blocks) gathering plus small eliminations — fine at census frequency.
  std::unordered_map<coding::SegmentId, coding::Decoder> rank_probe;
  for (const auto& p : peers_) {
    for (const auto& seg_id : p.buffer().segments()) {
      const coding::SegmentBuffer* sb = p.buffer().find(seg_id);
      auto it = rank_probe.find(seg_id);
      if (it == rank_probe.end()) {
        it = rank_probe
                 .emplace(seg_id, coding::Decoder{seg_id,
                                                  sb->segment_size(), 0})
                 .first;
      }
      coding::Decoder& dec = it->second;
      sb->for_each_block([&dec, &seg_id](
                             std::span<const gf::Element> coefficients,
                             std::span<const std::uint8_t> /*payload*/) {
        if (!dec.complete()) {
          coding::CodedBlock coeff_only;
          coeff_only.segment = seg_id;
          coeff_only.coefficients.assign(coefficients.begin(),
                                         coefficients.end());
          dec.add(coeff_only);
        }
      });
    }
  }
  for (const auto& [id, info] : registry_) {
    if (info.degree == 0) continue;
    ++out.live_segments;
    if (info.decoded) continue;
    ++out.undecoded_live_segments;
    const auto s = static_cast<double>(info.segment_size);
    if (info.degree >= info.segment_size) {
      ++out.decodable_by_degree;
      out.saved_original_blocks_degree += s;
    }
    const auto pit = rank_probe.find(id);
    const std::size_t net_rank =
        pit == rank_probe.end() ? 0 : pit->second.rank();
    if (net_rank == info.segment_size) {
      ++out.decodable_by_rank;
      out.saved_original_blocks_rank += s;
    }
    const std::size_t server_state = server_core_.bank().state(id);
    if (net_rank > server_state) {
      out.pending_innovative_blocks +=
          static_cast<double>(net_rank - server_state);
    }
  }
  return out;
}

DepartedDataStats Network::departed_data_stats() const {
  DepartedDataStats out =
      last_words_stats(std::numeric_limits<double>::infinity());
  out.blocks_generated += compacted_departed_.blocks_generated;
  out.blocks_delivered += compacted_departed_.blocks_delivered;
  return out;
}

std::size_t Network::compact_registry() {
  return registry_.erase_if(
      [this](const coding::SegmentId& id, const SegmentInfo& info) {
        if (!info.resolved) return false;
        if (departed_origins_.contains(id.origin)) {
          compacted_departed_.blocks_generated += info.segment_size;
          compacted_departed_.blocks_delivered +=
              std::min(info.collected, info.segment_size);
        }
        return true;
      });
}

DepartedDataStats Network::last_words_stats(double window) const {
  ICOLLECT_EXPECTS(window > 0.0);
  DepartedDataStats out;
  out.departed_origins = departed_origins_.size();
  for (const auto& [id, info] : registry_) {
    const auto dit = departed_origins_.find(id.origin);
    if (dit == departed_origins_.end()) continue;
    if (info.injected_at < dit->second - window) continue;
    out.blocks_generated += info.segment_size;
    out.blocks_delivered += std::min(info.collected, info.segment_size);
  }
  return out;
}

std::size_t Network::live_segment_count() const {
  std::size_t n = 0;
  for (const auto& [id, info] : registry_) {
    if (info.degree > 0) ++n;
  }
  return n;
}

}  // namespace icollect::p2p
