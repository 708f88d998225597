#pragma once

/// \file timer_wheel.h
/// Hashed timer wheel driving every time-based behavior of the live
/// nodes (gossip firing, per-block TTL expiry, pull cadence, retries).
///
/// Time is discrete: the wheel advances in fixed ticks of
/// `tick_seconds`, and a timer due on a tick runs when that tick is
/// advanced over. Who advances the wheel defines the clock —
/// LoopbackNet advances it on *virtual* time (making whole multi-node
/// clusters deterministic and instantaneous), StreamTransport advances it
/// off the wall clock. Within one tick, callbacks run in scheduling
/// order, so a fixed seed reproduces an identical execution.
///
/// Scheduling and cancellation are O(1); a tick costs O(entries hashed
/// to its slot). Callbacks may freely schedule and cancel timers.

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/assert.h"

namespace icollect::net {

class TimerWheel {
 public:
  using Callback = std::function<void()>;
  using TimerId = std::uint64_t;
  static constexpr TimerId kInvalidTimer = 0;

  explicit TimerWheel(double tick_seconds, std::size_t slot_count = 512)
      : tick_{tick_seconds}, slots_{slot_count} {
    ICOLLECT_EXPECTS(tick_seconds > 0.0);
    ICOLLECT_EXPECTS(slot_count > 0);
  }

  [[nodiscard]] double tick_seconds() const noexcept { return tick_; }
  [[nodiscard]] std::uint64_t now_tick() const noexcept { return tick_now_; }
  [[nodiscard]] double now() const noexcept {
    return static_cast<double>(tick_now_) * tick_;
  }

  /// Schedule `cb` to run `delay_seconds` from now, rounded up to the
  /// next whole tick (minimum one tick — a timer never fires within the
  /// tick that scheduled it).
  TimerId schedule_after(double delay_seconds, Callback cb) {
    ICOLLECT_EXPECTS(delay_seconds >= 0.0);
    auto ticks = static_cast<std::uint64_t>(delay_seconds / tick_);
    if (static_cast<double>(ticks) * tick_ < delay_seconds) ++ticks;
    if (ticks == 0) ticks = 1;
    const std::uint64_t due = tick_now_ + ticks;
    const TimerId id = next_id_++;
    slots_[due % slots_.size()].push_back(
        Entry{id, due, std::move(cb)});
    live_.insert(id);
    return id;
  }

  /// Cancel a pending timer. Returns true if it was still pending.
  bool cancel(TimerId id) {
    const auto it = live_.find(id);
    if (it == live_.end()) return false;
    live_.erase(it);
    cancelled_.insert(id);
    return true;
  }

  [[nodiscard]] std::size_t pending() const noexcept { return live_.size(); }

  /// Advance the wheel by `ticks`, running every due callback.
  void advance(std::uint64_t ticks) {
    for (std::uint64_t i = 0; i < ticks; ++i) step();
  }

  /// Advance until now() >= t_seconds (no-op if already there).
  void advance_to(double t_seconds) {
    while (now() < t_seconds) step();
  }

 private:
  struct Entry {
    TimerId id;
    std::uint64_t due;
    Callback cb;
  };

  void step() {
    ++tick_now_;
    auto& slot = slots_[tick_now_ % slots_.size()];
    if (slot.empty()) return;
    // Move the slot out: callbacks may schedule into this same slot
    // (future rounds) while we iterate.
    std::vector<Entry> entries;
    entries.swap(slot);
    for (auto& e : entries) {
      if (e.due != tick_now_) {
        // A future round; put it back.
        slots_[e.due % slots_.size()].push_back(std::move(e));
        continue;
      }
      const auto cit = cancelled_.find(e.id);
      if (cit != cancelled_.end()) {
        cancelled_.erase(cit);
        continue;
      }
      live_.erase(e.id);
      e.cb();
    }
  }

  double tick_;
  std::uint64_t tick_now_ = 0;
  TimerId next_id_ = 1;
  std::vector<std::vector<Entry>> slots_;
  std::unordered_set<TimerId> live_;
  std::unordered_set<TimerId> cancelled_;
};

}  // namespace icollect::net
