/// Discrete-event kernel tests: event queue ordering/cancellation (with a
/// randomized model check), the simulator clock, and Poisson process
/// timers.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include "sim/event_queue.h"
#include "sim/poisson_process.h"
#include "sim/simulator.h"

namespace icollect::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.is_pending(id));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.is_pending(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel is a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  (void)q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, SizeExcludesCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.peek_time(), 2.0);  // cancelled head is skipped
}

TEST(EventQueue, NullActionViolatesContract) {
  EventQueue q;
  EXPECT_THROW((void)q.schedule(1.0, nullptr), icollect::ContractViolation);
}

TEST(EventQueue, StaleIdNeverCancelsSlotsNextOccupant) {
  EventQueue q;
  const EventId fired = q.schedule(1.0, [] {});
  (void)q.pop();
  const EventId cancelled = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(cancelled));
  // Both freed slots are reused by the next events.
  int ran = 0;
  const EventId a = q.schedule(2.0, [&] { ++ran; });
  const EventId b = q.schedule(3.0, [&] { ++ran; });
  EXPECT_NE(a, fired);
  EXPECT_NE(b, cancelled);
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_FALSE(q.is_pending(fired));
  EXPECT_FALSE(q.is_pending(cancelled));
  EXPECT_TRUE(q.is_pending(a));
  EXPECT_TRUE(q.is_pending(b));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(ran, 2);
}

TEST(EventQueue, ActionsKeepNonTrivialCaptures) {
  // A copied std::function and a capture with a destructor must survive
  // heap sifts and slot moves intact.
  EventQueue q;
  auto counter = std::make_shared<int>(0);
  const std::function<void()> bump = [counter] { ++*counter; };
  for (int i = 0; i < 64; ++i) q.schedule(64.0 - i, bump);
  const EventId dropped = q.schedule(0.5, [counter] { *counter += 1000; });
  EXPECT_TRUE(q.cancel(dropped));
  EXPECT_EQ(counter.use_count(), 1 + 1 + 64);  // bump + 64 queued copies
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(*counter, 64);
  EXPECT_EQ(counter.use_count(), 2);  // counter + bump
}

/// Reference model of the queue: a std::priority_queue over (time, seq)
/// plus the set of pending seqs, with the same lazy removal of cancelled
/// entries at the top.
class ReferenceQueue {
 public:
  std::uint64_t schedule(Time at) {
    const std::uint64_t seq = next_seq_++;
    heap_.emplace(at, seq);
    pending_.insert(seq);
    return seq;
  }
  bool cancel(std::uint64_t seq) { return pending_.erase(seq) > 0; }
  [[nodiscard]] bool is_pending(std::uint64_t seq) const {
    return pending_.contains(seq);
  }
  bool empty() {
    drop_dead_prefix();
    return heap_.empty();
  }
  std::pair<Time, std::uint64_t> pop() {
    drop_dead_prefix();
    const auto top = heap_.top();
    heap_.pop();
    pending_.erase(top.second);
    return top;
  }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] std::size_t raw_size() const { return heap_.size(); }

 private:
  void drop_dead_prefix() {
    while (!heap_.empty() && !pending_.contains(heap_.top().second)) {
      heap_.pop();
    }
  }
  using Entry = std::pair<Time, std::uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::set<std::uint64_t> pending_;
  std::uint64_t next_seq_ = 1;
};

TEST(EventQueue, MatchesReferenceUnderRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng{seed};
    EventQueue q;
    ReferenceQueue ref;
    // Every id ever issued, with its reference seq, so cancels hit live,
    // fired, already-cancelled and stale-after-slot-reuse ids alike.
    std::vector<std::pair<EventId, std::uint64_t>> issued;
    std::uint64_t fired_seq = 0;
    for (int step = 0; step < 20000; ++step) {
      const double u = rng.uniform();
      if (u < 0.45) {
        // Few distinct times, so equal-time ties are the common case.
        const Time at = static_cast<double>(rng.uniform_index(8));
        const std::uint64_t seq = ref.schedule(at);
        const EventId id = q.schedule(at, [&fired_seq, seq] {
          fired_seq = seq;
        });
        ASSERT_NE(id, kInvalidEventId);
        issued.emplace_back(id, seq);
      } else if (u < 0.75) {
        if (issued.empty()) continue;
        const auto& [id, seq] = issued[rng.uniform_index(issued.size())];
        ASSERT_EQ(q.cancel(id), ref.cancel(seq)) << "step " << step;
      } else if (u < 0.78) {
        EXPECT_FALSE(q.cancel(kInvalidEventId));
        // A well-formed id naming a slot the queue never allocated.
        EXPECT_FALSE(q.cancel((EventId{1} << 32U) | 0x7FFFFFFFU));
      } else {
        ASSERT_EQ(q.empty(), ref.empty());
        if (ref.empty()) continue;
        const auto [at, seq] = ref.pop();
        auto ev = q.pop();
        ASSERT_EQ(ev.at, at) << "step " << step;
        ev.action();
        ASSERT_EQ(fired_seq, seq) << "step " << step;
      }
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.raw_size(), ref.raw_size());
      if (step % 97 == 0) {
        for (const auto& [id, seq] : issued) {
          ASSERT_EQ(q.is_pending(id), ref.is_pending(seq));
        }
      }
    }
    while (!ref.empty()) {
      const auto [at, seq] = ref.pop();
      auto ev = q.pop();
      ASSERT_EQ(ev.at, at);
      ev.action();
      ASSERT_EQ(fired_seq, seq);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
  }
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Time> seen;
  sim.schedule_at(2.5, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(0.5, [&] { seen.push_back(sim.now()); });
  sim.run_until(10.0);
  EXPECT_EQ(seen, (std::vector<Time>{0.5, 2.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  bool late_fired = false;
  sim.schedule_at(5.0, [&] { late_fired = true; });
  sim.run_until(4.0);
  EXPECT_FALSE(late_fired);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
  sim.run_until(6.0);
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, SchedulingInThePastViolatesContract) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.run_until(2.0);
  EXPECT_THROW((void)sim.schedule_at(1.5, [] {}),
               icollect::ContractViolation);
  EXPECT_THROW((void)sim.schedule_after(-0.1, [] {}),
               icollect::ContractViolation);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) sim.schedule_after(1.0, step);
  };
  sim.schedule_after(1.0, step);
  sim.run_until(100.0);
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, CancelledEventNotExecuted) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_after(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.is_pending(id));
  sim.cancel(id);
  sim.run_until(5.0);
  EXPECT_FALSE(ran);
}

TEST(Simulator, RunEventsBounded) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i + 1.0, [] {});
  EXPECT_EQ(sim.run_events(4), 4u);
  EXPECT_EQ(sim.pending_events(), 6u);
}

TEST(PoissonProcess, EmpiricalRateMatches) {
  Simulator sim;
  Rng rng{77};
  std::size_t fires = 0;
  PoissonProcess proc{sim, rng, 5.0, [&] { ++fires; }};
  proc.start();
  sim.run_until(2000.0);
  const double rate = static_cast<double>(fires) / 2000.0;
  EXPECT_NEAR(rate, 5.0, 0.2);  // ±4σ ≈ ±0.14
}

TEST(PoissonProcess, StopHalts) {
  Simulator sim;
  Rng rng{78};
  std::size_t fires = 0;
  PoissonProcess proc{sim, rng, 10.0, [&] { ++fires; }};
  proc.start();
  sim.run_until(10.0);
  const std::size_t at_stop = fires;
  EXPECT_GT(at_stop, 0u);
  proc.stop();
  sim.run_until(20.0);
  EXPECT_EQ(fires, at_stop);
}

TEST(PoissonProcess, StartIsIdempotent) {
  Simulator sim;
  Rng rng{79};
  std::size_t fires = 0;
  PoissonProcess proc{sim, rng, 100.0, [&] { ++fires; }};
  proc.start();
  proc.start();  // must not double-arm
  sim.run_until(1.0);
  EXPECT_NEAR(static_cast<double>(fires), 100.0, 45.0);
}

TEST(PoissonProcess, SetRateTakesEffect) {
  Simulator sim;
  Rng rng{80};
  std::size_t fires = 0;
  PoissonProcess proc{sim, rng, 1.0, [&] { ++fires; }};
  proc.start();
  sim.run_until(100.0);
  const auto slow = fires;
  proc.set_rate(50.0);
  sim.run_until(200.0);
  const auto fast = fires - slow;
  EXPECT_GT(fast, slow * 10);
}

TEST(PoissonProcess, ZeroRateNeverFires) {
  Simulator sim;
  Rng rng{81};
  std::size_t fires = 0;
  PoissonProcess proc{sim, rng, 0.0, [&] { ++fires; }};
  proc.start();
  EXPECT_FALSE(proc.running());
  sim.run_until(50.0);
  EXPECT_EQ(fires, 0u);
}

TEST(PoissonProcess, CallbackMayStopTheProcess) {
  Simulator sim;
  Rng rng{82};
  std::size_t fires = 0;
  PoissonProcess proc{sim, rng, 10.0, [&] {
                        if (++fires == 3) proc.stop();
                      }};
  proc.start();
  sim.run_until(1000.0);
  EXPECT_EQ(fires, 3u);
}

}  // namespace
}  // namespace icollect::sim
