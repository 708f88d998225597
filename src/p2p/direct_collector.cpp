#include "p2p/direct_collector.h"

#include <utility>

#include "p2p/churn.h"

namespace icollect::p2p {

DirectCollector::DirectCollector(ProtocolConfig cfg)
    : cfg_{std::move(cfg)}, rng_{cfg_.seed ^ 0xD19EC7C0ULL} {
  cfg_.validate();
  queues_.resize(cfg_.num_peers);
  non_empty_pos_.assign(cfg_.num_peers, 0);
  metrics_.backlog.update(0.0, 0.0);

  // Per-peer generation: one-shot rescheduling so a time-varying profile
  // (flash crowd) can modulate the rate; constant λ is the default.
  for (std::size_t slot = 0; slot < cfg_.num_peers; ++slot) {
    schedule_next_generation(slot);
  }
  for (std::size_t srv = 0; srv < cfg_.num_servers; ++srv) {
    server_pullers_.push_back(std::make_unique<sim::PoissonProcess>(
        sim_, rng_, cfg_.server_rate, [this] { do_pull(); }));
    server_pullers_.back()->start();
  }
  if (cfg_.churn.enabled) {
    for (std::size_t slot = 0; slot < cfg_.num_peers; ++slot) {
      sim_.schedule_after(sample_lifetime(cfg_.churn, rng_),
                          [this, slot] { do_depart(slot); });
    }
  }
}

void DirectCollector::set_arrival_profile(
    const workload::ArrivalProfile* profile) {
  profile_ = profile;
}

void DirectCollector::set_profiler(obs::Profiler* profiler) {
  auto cell = [profiler](const char* name) {
    return profiler != nullptr ? &profiler->timer(name) : nullptr;
  };
  prof_generate_ = cell("direct.generate");
  prof_pull_ = cell("direct.pull");
  prof_depart_ = cell("direct.depart");
}

void DirectCollector::set_last_words_window(double window) {
  ICOLLECT_EXPECTS(window > 0.0);
  last_words_window_ = window;
}

void DirectCollector::run_until(sim::Time t) { sim_.run_until(t); }

void DirectCollector::warm_up(sim::Time t) {
  run_until(t);
  metrics_.reset_measurement_window(sim_.now());
}

void DirectCollector::schedule_next_generation(std::size_t slot) {
  double at;
  if (profile_ != nullptr) {
    at = workload::next_arrival(*profile_, sim_.now(), rng_);
  } else if (cfg_.lambda > 0.0) {
    at = sim_.now() + rng_.exponential(cfg_.lambda);
  } else {
    return;  // no generation at all
  }
  sim_.schedule_at(at, [this, slot] { do_generate(slot); });
}

void DirectCollector::do_generate(std::size_t slot) {
  const obs::ProfScope prof{prof_generate_};
  schedule_next_generation(slot);
  ++metrics_.blocks_generated;
  metrics_.generated_window.record();
  PeerQueue& q = queues_[slot];
  ++q.generated_this_incarnation;
  const bool dropped = q.pending.size() >= cfg_.buffer_cap;
  if (last_words_window_ > 0.0) {
    q.recent_generations.emplace_back(sim_.now(), dropped);
    while (!q.recent_generations.empty() &&
           q.recent_generations.front().first <
               sim_.now() - last_words_window_) {
      q.recent_generations.pop_front();
    }
  }
  if (dropped) {
    // A full queue refuses the fresh measurement and keeps the oldest.
    ++metrics_.blocks_dropped_overflow;
    return;
  }
  const std::size_t before = q.pending.size();
  q.pending.push_back(sim_.now());
  ++total_backlog_;
  metrics_.backlog.update(sim_.now(), static_cast<double>(total_backlog_));
  backlog_changed(slot, before);
}

void DirectCollector::do_pull() {
  const obs::ProfScope prof{prof_pull_};
  ++metrics_.pull_attempts;
  if (non_empty_slots_.empty()) {
    ++metrics_.idle_pulls;
    return;
  }
  const std::size_t slot =
      non_empty_slots_[rng_.uniform_index(non_empty_slots_.size())];
  PeerQueue& q = queues_[slot];
  ICOLLECT_ENSURES(!q.pending.empty());
  const std::size_t before = q.pending.size();
  const sim::Time generated_at = q.pending.front();
  q.pending.pop_front();
  --total_backlog_;
  ++q.collected_this_incarnation;
  ++metrics_.blocks_collected;
  metrics_.collected_window.record();
  metrics_.delay.add(sim_.now() - generated_at);
  metrics_.backlog.update(sim_.now(), static_cast<double>(total_backlog_));
  backlog_changed(slot, before);
}

void DirectCollector::do_depart(std::size_t slot) {
  const obs::ProfScope prof{prof_depart_};
  PeerQueue& q = queues_[slot];
  const std::size_t before = q.pending.size();
  if (last_words_window_ > 0.0) {
    // "Last words": of the blocks generated within the window before
    // death, those still pending die with the peer; the rest had already
    // been pulled. (Overflow-dropped blocks count as generated + lost:
    // they are in recent_generations but never in pending — correct,
    // they were never delivered.)
    const sim::Time cutoff = sim_.now() - last_words_window_;
    std::uint64_t recent = 0;
    std::uint64_t recent_dropped = 0;
    for (const auto& [g, was_dropped] : q.recent_generations) {
      if (g < cutoff) continue;
      ++recent;
      if (was_dropped) ++recent_dropped;
    }
    std::uint64_t recent_pending = 0;
    for (const sim::Time g : q.pending) {
      if (g >= cutoff) ++recent_pending;
    }
    // A recent block was delivered iff it entered the queue (not
    // dropped) and is no longer pending.
    const std::uint64_t undelivered =
        std::min(recent, recent_dropped + recent_pending);
    ++last_words_.departed_origins;
    last_words_.blocks_generated += recent;
    last_words_.blocks_delivered += recent - undelivered;
    q.recent_generations.clear();
  }
  metrics_.blocks_lost_to_churn += q.pending.size();
  total_backlog_ -= q.pending.size();
  q.pending.clear();
  ++metrics_.peers_departed;
  // The departed occupant's ledger: whatever was not collected by now is
  // permanently lost (including what overflowed earlier).
  ++departed_.departed_origins;
  departed_.blocks_generated += q.generated_this_incarnation;
  departed_.blocks_delivered += q.collected_this_incarnation;
  q.generated_this_incarnation = 0;
  q.collected_this_incarnation = 0;
  metrics_.backlog.update(sim_.now(), static_cast<double>(total_backlog_));
  backlog_changed(slot, before);
  sim_.schedule_after(sample_lifetime(cfg_.churn, rng_),
                      [this, slot] { do_depart(slot); });
}

void DirectCollector::backlog_changed(std::size_t slot, std::size_t before) {
  const std::size_t after = queues_[slot].pending.size();
  if (before == 0 && after > 0) mark_non_empty(slot);
  if (before > 0 && after == 0) mark_empty(slot);
}

void DirectCollector::mark_non_empty(std::size_t slot) {
  if (non_empty_pos_[slot] != 0) return;
  non_empty_slots_.push_back(slot);
  non_empty_pos_[slot] = non_empty_slots_.size();
}

void DirectCollector::mark_empty(std::size_t slot) {
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

double DirectCollector::normalized_throughput() const {
  const double demand = static_cast<double>(cfg_.num_peers) * cfg_.lambda;
  return demand > 0.0 ? throughput() / demand : 0.0;
}

double DirectCollector::loss_fraction() const {
  if (metrics_.blocks_generated == 0) return 0.0;
  const auto lost =
      metrics_.blocks_dropped_overflow + metrics_.blocks_lost_to_churn;
  return static_cast<double>(lost) /
         static_cast<double>(metrics_.blocks_generated);
}

}  // namespace icollect::p2p
