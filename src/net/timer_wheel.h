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
/// off the wall clock.
///
/// Firing order is a deterministic function of the scheduling history,
/// so a fixed seed reproduces an identical execution — but it is *slot*
/// order, not scheduling order. Each slot is a list; a tick walks its
/// slot front to back, firing the entries due now and re-filing the
/// ones due in a later revolution at the back, behind anything a
/// callback scheduled into the same slot meanwhile. So on a 4-slot
/// wheel, X and Y scheduled 5 ticks out at t=0 around a 1-tick timer
/// that schedules Z 4 ticks out fire as X, Z, Y on tick 5. Timers due
/// on different ticks always fire in due order.
///
/// Scheduling and cancellation are O(1); a tick costs O(entries hashed
/// to its slot). Callbacks may freely schedule and cancel timers. They
/// are sim::InlineAction closures (at most 32 bytes of captures) held in
/// one free-listed ticket table, whose entries the slots thread into
/// lists; an id is the ticket plus its generation, so a stale id never
/// reaches the ticket's next occupant. Once the table has grown to the
/// peak number of timers, scheduling, cancelling and firing allocate
/// nothing.

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "sim/inline_action.h"

namespace icollect::net {

class TimerWheel {
 public:
  using Callback = sim::InlineAction;
  /// generation << 32 | ticket. Generations start at 1, so no id is 0.
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
  /// tick that scheduled it). Precondition: `cb` is not empty.
  TimerId schedule_after(double delay_seconds, Callback cb) {
    ICOLLECT_EXPECTS(delay_seconds >= 0.0);
    ICOLLECT_EXPECTS(!(cb == nullptr));
    auto ticks = static_cast<std::uint64_t>(delay_seconds / tick_);
    if (static_cast<double>(ticks) * tick_ < delay_seconds) ++ticks;
    if (ticks == 0) ticks = 1;
    const std::uint64_t due = tick_now_ + ticks;
    std::uint32_t ticket = free_head_;
    if (ticket == kNone) {
      ticket = static_cast<std::uint32_t>(timers_.size());
      timers_.emplace_back();
    } else {
      free_head_ = timers_[ticket].next;
    }
    Timer& t = timers_[ticket];
    t.due = due;
    t.cb = std::move(cb);
    append(slots_[due % slots_.size()], ticket);
    ++pending_;
    return (static_cast<TimerId>(t.generation) << 32U) | ticket;
  }

  /// Cancel a pending timer. Returns true if it was still pending; an
  /// id that already fired or was cancelled never touches the timer
  /// that reuses its ticket.
  bool cancel(TimerId id) {
    const auto ticket = static_cast<std::uint32_t>(id);
    if (ticket >= timers_.size()) return false;
    Timer& t = timers_[ticket];
    if (t.generation != static_cast<std::uint32_t>(id >> 32U) ||
        t.cb == nullptr) {
      return false;
    }
    // The entry stays in its slot list, empty, until the wheel reaches
    // it; the new generation makes `id` stale from now on.
    t.cb.reset();
    retire(t);
    return true;
  }

  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// Advance the wheel by `ticks`, running every due callback.
  void advance(std::uint64_t ticks) {
    for (std::uint64_t i = 0; i < ticks; ++i) step();
  }

  /// Advance until now() >= t_seconds (no-op if already there).
  void advance_to(double t_seconds) {
    while (now() < t_seconds) step();
  }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFU;

  /// One ticket of the table. A pending timer sits in the list of the
  /// slot it hashes to; a free ticket is on the free list. Both lists
  /// run through `next`.
  struct Timer {
    std::uint64_t due = 0;
    std::uint32_t generation = 1;  ///< bumped on fire and on cancel
    std::uint32_t next = kNone;
    Callback cb;                   ///< empty once cancelled
  };

  /// A slot's timers in filing order.
  struct Slot {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };

  void append(Slot& slot, std::uint32_t ticket) {
    timers_[ticket].next = kNone;
    if (slot.tail == kNone) {
      slot.head = ticket;
    } else {
      timers_[slot.tail].next = ticket;
    }
    slot.tail = ticket;
  }

  /// Make every id issued for `t` stale.
  void retire(Timer& t) {
    if (++t.generation == 0) t.generation = 1;
    --pending_;
  }

  void free_ticket(std::uint32_t ticket) {
    timers_[ticket].next = free_head_;
    free_head_ = ticket;
  }

  void step() {
    ++tick_now_;
    Slot& slot = slots_[tick_now_ % slots_.size()];
    // Walk the slot's list in filing order. Entries due in a later
    // revolution are re-filed at the back of the now-empty slot, after
    // anything the callbacks fired so far scheduled into it.
    std::uint32_t ticket = slot.head;
    slot = Slot{};
    while (ticket != kNone) {
      Timer& t = timers_[ticket];
      const std::uint32_t next = t.next;
      if (t.cb == nullptr) {
        free_ticket(ticket);  // cancelled
      } else if (t.due != tick_now_) {
        append(slot, ticket);  // a future round; put it back
      } else {
        // Move the callback out first: it may schedule timers, which
        // can grow (and so move) the table.
        Callback cb = std::move(t.cb);
        retire(t);
        free_ticket(ticket);
        cb();
      }
      ticket = next;
    }
  }

  double tick_;
  std::uint64_t tick_now_ = 0;
  std::vector<Slot> slots_;
  std::vector<Timer> timers_;  ///< the ticket table, indexed by ticket
  std::uint32_t free_head_ = kNone;
  std::size_t pending_ = 0;
};

}  // namespace icollect::net
