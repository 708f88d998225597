/// \file obs_profiler_test.cpp
/// Profiler: scope nesting (inclusive totals, depth bookkeeping), the
/// null-timer no-op contract, find-or-create cells, table/json output,
/// and deterministic timing through an injected ClockSource.

#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/clock.h"

namespace {

using icollect::obs::Profiler;
using icollect::obs::ProfScope;

void spin() {
  // A little real work so elapsed time is strictly positive on any clock.
  volatile unsigned x = 0;
  for (unsigned i = 0; i < 50000; ++i) x = x + i;
}

TEST(Profiler, TimerFindOrCreateIsStable) {
  Profiler prof;
  auto& a = prof.timer("net.gossip");
  auto& b = prof.timer("net.gossip");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.name(), "net.gossip");
  EXPECT_EQ(prof.timers().size(), 1U);
}

TEST(Profiler, ScopeRecordsOneSample) {
  Profiler prof;
  auto& t = prof.timer("work");
  {
    const ProfScope scope{&t};
    spin();
  }
  EXPECT_EQ(t.stat().count, 1U);
  EXPECT_GT(t.stat().total_ns, 0U);
  EXPECT_EQ(t.stat().max_ns, t.stat().total_ns);  // single sample
  EXPECT_DOUBLE_EQ(t.stat().mean_ns(),
                   static_cast<double>(t.stat().total_ns));
}

TEST(Profiler, NestedScopesAreInclusiveAndDepthBalances) {
  Profiler prof;
  auto& outer = prof.timer("outer");
  auto& inner = prof.timer("inner");
  EXPECT_EQ(prof.depth(), 0);
  {
    const ProfScope o{&outer};
    EXPECT_EQ(prof.depth(), 1);
    spin();
    {
      const ProfScope i{&inner};
      EXPECT_EQ(prof.depth(), 2);
      spin();
    }
    EXPECT_EQ(prof.depth(), 1);
  }
  EXPECT_EQ(prof.depth(), 0);
  EXPECT_EQ(outer.stat().count, 1U);
  EXPECT_EQ(inner.stat().count, 1U);
  // Outer totals include the inner scope's time.
  EXPECT_GE(outer.stat().total_ns, inner.stat().total_ns);
}

TEST(Profiler, NullTimerScopeIsNoOp) {
  Profiler prof;
  prof.timer("untouched");
  {
    const ProfScope scope{nullptr};
    EXPECT_EQ(prof.depth(), 0);
  }
  EXPECT_EQ(prof.timer("untouched").stat().count, 0U);
}

TEST(Profiler, TableListsEveryScope) {
  Profiler prof;
  {
    const ProfScope a{&prof.timer("net.inject")};
    spin();
  }
  {
    const ProfScope b{&prof.timer("net.decode")};
    spin();
  }
  const std::string table = prof.table();
  EXPECT_NE(table.find("net.inject"), std::string::npos) << table;
  EXPECT_NE(table.find("net.decode"), std::string::npos) << table;
  EXPECT_NE(table.find("count"), std::string::npos) << table;
}

TEST(Profiler, JsonHasStatsPerScope) {
  Profiler prof;
  {
    const ProfScope a{&prof.timer("evt")};
    spin();
  }
  const std::string json = prof.json();
  EXPECT_NE(json.find("\"evt\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_ns\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_ns\""), std::string::npos) << json;
}

TEST(Profiler, ManualClockMakesTimingDeterministic) {
  // With an injected clock, profiled durations are exact — no spin
  // loops, no flaky thresholds.
  Profiler prof;
  icollect::obs::ManualClock clock;
  prof.set_clock(&clock);
  auto& t = prof.timer("step");
  {
    const ProfScope scope{&t};
    clock.advance(0.002);  // 2ms
  }
  EXPECT_EQ(t.stat().count, 1U);
  EXPECT_EQ(t.stat().total_ns, 2'000'000U);
  EXPECT_EQ(t.stat().max_ns, 2'000'000U);
  {
    const ProfScope scope{&t};
    clock.advance(0.001);
  }
  EXPECT_EQ(t.stat().count, 2U);
  EXPECT_EQ(t.stat().total_ns, 3'000'000U);
  EXPECT_EQ(t.stat().max_ns, 2'000'000U);

  // Detaching the clock falls back to the wall clock; samples still
  // accumulate (elapsed may legitimately round to 0ns).
  prof.set_clock(nullptr);
  {
    const ProfScope scope{&t};
    spin();
  }
  EXPECT_EQ(t.stat().count, 3U);
}

TEST(Profiler, ResetClearsStatsKeepsCells) {
  Profiler prof;
  auto& t = prof.timer("evt");
  {
    const ProfScope a{&t};
    spin();
  }
  prof.reset();
  EXPECT_EQ(t.stat().count, 0U);
  EXPECT_EQ(t.stat().total_ns, 0U);
  EXPECT_EQ(prof.timers().size(), 1U);
}

}  // namespace
