/// Focused contract tests for the hashed TimerWheel, the single clock
/// behind every live-node behavior: multi-timer fire ordering across
/// ticks, O(1) cancellation semantics (including cancel of an entry
/// already re-filed into a future wheel round), re-arming after fire,
/// and wrap-around past multiple revolutions of a small wheel.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/timer_wheel.h"
#include "sim/random.h"

namespace icollect::net {
namespace {

TEST(TimerWheelContract, FiresInDueOrderAcrossTicks) {
  TimerWheel w{0.01};
  std::string order;
  w.schedule_after(0.03, [&] { order += 'c'; });
  w.schedule_after(0.01, [&] { order += 'a'; });
  w.schedule_after(0.02, [&] { order += 'b'; });
  w.schedule_after(0.03, [&] { order += 'd'; });  // same tick as 'c'
  w.advance(5);
  // Due time dominates; timers filed into one slot within the same
  // revolution fire in filing order.
  EXPECT_EQ(order, "abcd");
}

TEST(TimerWheelContract, SameTickFollowsSlotOrder) {
  // Within a tick the order is the slot's, not the scheduling order. On
  // a 4-slot wheel X and Y (5 ticks out) share slot 1 with W (1 tick
  // out). On tick 1 the wheel walks X, W, Y: X is re-filed, W fires and
  // files Z (4 ticks out, so also due on tick 5), then Y is re-filed
  // behind Z. A heap ordered by (due, scheduling order) would say XYZ.
  TimerWheel w{1.0, 4};
  std::string order;
  w.schedule_after(5.0, [&] { order += 'X'; });
  w.schedule_after(1.0, [&] {
    w.schedule_after(4.0, [&] { order += 'Z'; });
  });
  w.schedule_after(5.0, [&] { order += 'Y'; });
  w.advance(5);
  EXPECT_EQ(order, "XZY");
}

TEST(TimerWheelContract, CancelReturnsTrueOnlyWhilePending) {
  TimerWheel w{0.01};
  int fired = 0;
  const auto id = w.schedule_after(0.02, [&] { ++fired; });
  EXPECT_TRUE(w.cancel(id));
  EXPECT_FALSE(w.cancel(id));                   // double cancel
  EXPECT_FALSE(w.cancel(TimerWheel::kInvalidTimer));
  EXPECT_FALSE(w.cancel(id + 1000));            // never-issued id
  w.advance(5);
  EXPECT_EQ(fired, 0);
}

TEST(TimerWheelContract, CancelAfterFireIsFalse) {
  TimerWheel w{0.01};
  int fired = 0;
  const auto id = w.schedule_after(0.01, [&] { ++fired; });
  w.advance(2);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(w.cancel(id));  // already fired, nothing pending
  EXPECT_EQ(w.pending(), 0U);
}

TEST(TimerWheelContract, CancelEntryFiledIntoFutureRound) {
  // On a 4-slot wheel, a 10-tick delay hashes into a slot the wheel
  // crosses twice before the timer is due. Cancelling must survive the
  // re-filing of the future-round entry.
  TimerWheel w{0.01, 4};
  int fired = 0;
  const auto id = w.schedule_after(0.10, [&] { ++fired; });
  w.advance(6);  // crosses the slot once; the entry gets re-filed
  EXPECT_TRUE(w.cancel(id));
  w.advance(20);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(w.pending(), 0U);
}

TEST(TimerWheelContract, CancelOneOfManyInSameSlot) {
  TimerWheel w{0.01};
  std::string order;
  w.schedule_after(0.01, [&] { order += 'a'; });
  const auto id = w.schedule_after(0.01, [&] { order += 'b'; });
  w.schedule_after(0.01, [&] { order += 'c'; });
  EXPECT_TRUE(w.cancel(id));
  w.advance(1);
  EXPECT_EQ(order, "ac");
}

TEST(TimerWheelContract, ReArmAfterFireGetsFreshId) {
  TimerWheel w{0.01};
  std::vector<double> fired;
  TimerWheel::TimerId first = w.schedule_after(0.01, [&] {
    fired.push_back(w.now());
  });
  w.advance(1);
  ASSERT_EQ(fired.size(), 1U);
  // Re-arm the same logical timer; the new id must be distinct and the
  // old id must stay dead (cancel(old) is a no-op, not a misfire).
  TimerWheel::TimerId second = w.schedule_after(0.01, [&] {
    fired.push_back(w.now());
  });
  EXPECT_NE(second, first);
  EXPECT_FALSE(w.cancel(first));
  w.advance(1);
  ASSERT_EQ(fired.size(), 2U);
  EXPECT_NEAR(fired[1] - fired[0], 0.01, 1e-9);
}

TEST(TimerWheelContract, StaleIdNeverCancelsNextOccupant) {
  // Tickets are reused as soon as a timer fires or is cancelled; an id
  // handed out for an earlier occupant must never cancel a later one.
  TimerWheel w{0.01, 8};
  sim::Rng rng{31};
  std::vector<TimerWheel::TimerId> stale;
  int fired = 0;
  for (int round = 0; round < 100; ++round) {
    std::vector<TimerWheel::TimerId> batch;
    for (int k = 0; k < 12; ++k) {
      batch.push_back(w.schedule_after(
          0.01 * static_cast<double>(1 + rng.uniform_index(30)),
          [&] { ++fired; }));
    }
    // Every ticket of this batch is a reused one after the first round.
    for (const auto id : stale) EXPECT_FALSE(w.cancel(id));
    ASSERT_EQ(w.pending(), 12U) << "a stale id cancelled a live timer";
    // Retire a third by cancelling, the rest by firing.
    for (std::size_t k = 0; k < batch.size(); k += 3) {
      EXPECT_TRUE(w.cancel(batch[k]));
    }
    w.advance(31);
    EXPECT_EQ(w.pending(), 0U);
    stale.insert(stale.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(fired, 100 * 8);
}

TEST(TimerWheelContract, PeriodicReArmFromInsideCallback) {
  TimerWheel w{0.01};
  std::vector<double> fired;
  std::function<void()> tick = [&] {
    fired.push_back(w.now());
    if (fired.size() < 4) w.schedule_after(0.02, tick);
  };
  w.schedule_after(0.02, tick);
  w.advance(20);
  ASSERT_EQ(fired.size(), 4U);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_NEAR(fired[i] - fired[i - 1], 0.02, 1e-9);
  }
}

TEST(TimerWheelContract, WrapAroundSeveralRevolutions) {
  // 4-slot wheel, delays spanning 1..3 full revolutions, interleaved
  // with short timers that share slots with the long ones.
  TimerWheel w{0.01, 4};
  std::vector<int> fired;
  w.schedule_after(0.12, [&] { fired.push_back(12); });  // 3 revolutions
  w.schedule_after(0.04, [&] { fired.push_back(4); });   // 1 revolution
  w.schedule_after(0.08, [&] { fired.push_back(8); });   // 2 revolutions
  w.schedule_after(0.02, [&] { fired.push_back(2); });
  w.advance(12);
  EXPECT_EQ(fired, (std::vector<int>{2, 4, 8, 12}));
  w.advance(100);
  EXPECT_EQ(fired.size(), 4U);  // nothing fires twice
}

TEST(TimerWheelContract, PendingTracksLifecycle) {
  TimerWheel w{0.01};
  EXPECT_EQ(w.pending(), 0U);
  const auto a = w.schedule_after(0.01, [] {});
  const auto b = w.schedule_after(0.05, [] {});
  (void)a;
  EXPECT_EQ(w.pending(), 2U);
  w.advance(1);  // 'a' fires
  EXPECT_EQ(w.pending(), 1U);
  w.cancel(b);
  EXPECT_EQ(w.pending(), 0U);
}

TEST(TimerWheelContract, AdvanceToIsIdempotentAtTarget) {
  TimerWheel w{0.01};
  int fired = 0;
  w.schedule_after(0.05, [&] { ++fired; });
  w.advance_to(0.05);
  EXPECT_EQ(fired, 1);
  const auto tick_before = w.now_tick();
  w.advance_to(0.05);  // already there: must not advance further
  EXPECT_EQ(w.now_tick(), tick_before);
}

}  // namespace
}  // namespace icollect::net
