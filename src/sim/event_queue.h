#pragma once

/// \file event_queue.h
/// A cancellable future-event list for discrete-event simulation.
///
/// Implementation: a 4-ary min-heap of compact keys {time, seq, slot},
/// ordered by (time, seq) — the monotonic sequence number gives FIFO
/// tie-breaking so runs are deterministic. The actions live in a slot
/// table recycled through a free list, so a sift moves 24-byte keys and
/// never a callable, and each action is an InlineAction, so scheduling
/// never allocates once the heap and the slot table have grown (see
/// reserve()). An EventId names a slot plus the generation of its
/// occupant: cancel() and is_pending() are a generation check, and a
/// stale id can never reach the slot's next occupant. Cancellation frees
/// the slot at once; the orphaned heap key is dropped lazily when it
/// reaches the top.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "sim/inline_action.h"

namespace icollect::sim {

/// Simulation time, in the abstract "unit time" of the paper (rates λ, μ,
/// γ, c are all expressed per unit time).
using Time = double;

/// Opaque handle identifying a scheduled event; usable to cancel it.
using EventId = std::uint64_t;

/// Sentinel returned where "no event" is meaningful.
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Action = InlineAction;

  /// Pre-size the heap and the slot table for roughly `n` concurrent
  /// events, so steady-state scheduling never regrows them.
  void reserve(std::size_t n) {
    heap_.reserve(n);
    slots_.reserve(n);
    free_.reserve(n);
  }

  /// Schedule `action` at absolute time `at`. Returns a cancellable id.
  EventId schedule(Time at, Action action) {
    ICOLLECT_EXPECTS(action != nullptr);
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      ICOLLECT_EXPECTS(slots_.size() < kNoSlot);
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    const std::uint64_t seq = next_seq_++;
    s.action = std::move(action);
    s.seq = seq;
    heap_.push_back(Key{at, seq, slot});
    sift_up(heap_.size() - 1);
    ++live_;
    return make_id(slot, s.generation);
  }

  /// Cancel a previously scheduled event. Returns true if the event was
  /// still pending (false if it already fired, was already cancelled, or
  /// the id is invalid).
  bool cancel(EventId id) {
    const std::uint32_t slot = live_slot(id);
    if (slot == kNoSlot) return false;
    slots_[slot].action.reset();
    release(slot);
    return true;
  }

  /// True if the given event has been scheduled and has neither fired nor
  /// been cancelled yet.
  [[nodiscard]] bool is_pending(EventId id) const {
    return live_slot(id) != kNoSlot;
  }

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() {
    drop_dead_prefix();
    return heap_.empty();
  }

  /// Number of live (pending) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Number of heap entries including lazily-cancelled ones — for tests
  /// and capacity diagnostics.
  [[nodiscard]] std::size_t raw_size() const noexcept { return heap_.size(); }

  /// Heap capacity currently reserved — for tests and diagnostics.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return heap_.capacity();
  }

  /// Time of the next live event. Precondition: !empty().
  [[nodiscard]] Time peek_time() {
    drop_dead_prefix();
    ICOLLECT_EXPECTS(!heap_.empty());
    return heap_.front().at;
  }

  /// Pop and return the next live event. Precondition: !empty().
  struct Popped {
    Time at{};
    EventId id{};
    Action action;
  };
  [[nodiscard]] Popped pop() {
    drop_dead_prefix();
    ICOLLECT_EXPECTS(!heap_.empty());
    const Key top = heap_.front();
    remove_top();
    Slot& s = slots_[top.slot];
    Popped out{top.at, make_id(top.slot, s.generation), std::move(s.action)};
    release(top.slot);
    return out;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFU;
  static constexpr std::size_t kArity = 4;

  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    Action action;
    std::uint64_t seq = 0;  ///< occupant's key seq; 0 while free
    /// Bumped on every release; never 0, so no live id equals
    /// kInvalidEventId.
    std::uint32_t generation = 1;
  };

  static bool before(const Key& a, const Key& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32U) | slot;
  }

  /// The slot `id` names if its event is still pending, else kNoSlot.
  [[nodiscard]] std::uint32_t live_slot(EventId id) const noexcept {
    const auto slot = static_cast<std::uint32_t>(id);
    const auto generation = static_cast<std::uint32_t>(id >> 32U);
    if (slot >= slots_.size()) return kNoSlot;
    const Slot& s = slots_[slot];
    return s.seq != 0 && s.generation == generation ? slot : kNoSlot;
  }

  /// Return a slot whose action has fired or been cancelled to the free
  /// list, invalidating every id that named it.
  void release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.seq = 0;
    if (++s.generation == 0) s.generation = 1;
    free_.push_back(slot);
    --live_;
  }

  /// A key is live while its slot still holds the event it was pushed
  /// for; a cancelled event's slot is free (seq 0) or re-occupied by a
  /// later, higher seq.
  [[nodiscard]] bool is_live(const Key& k) const noexcept {
    return slots_[k.slot].seq == k.seq;
  }

  void drop_dead_prefix() {
    while (!heap_.empty() && !is_live(heap_.front())) remove_top();
  }

  void remove_top() {
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
  }

  void sift_up(std::size_t i) {
    const Key k = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  /// Place `k` into the hole at the root, moving smaller children up.
  void sift_down(const Key& k) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], k)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = k;
  }

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace icollect::sim
