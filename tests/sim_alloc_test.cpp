/// Allocation contract of the discrete-event kernel: once the event
/// queue is reserved and warmed up, scheduling and firing events —
/// TTL-shaped closures with 32 bytes of captures and PoissonProcess
/// re-arms — performs no heap allocation at all.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc_counter.h"
#include "sim/poisson_process.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace icollect::sim {
namespace {

/// Stand-in for a per-block expiry handler: the closure that schedules
/// it captures four words [this, slot, incarnation, handle], the most
/// an InlineAction holds.
struct TtlSink {
  std::uint64_t fired = 0;
  std::uint64_t checksum = 0;
  void expire(std::size_t slot, std::uint64_t incarnation,
              std::uint64_t handle) {
    ++fired;
    checksum += slot ^ incarnation ^ handle;
  }
};

/// Schedule `n` TTL-shaped events over the next unit of time, with the
/// Poisson processes re-arming in between, and run them all.
void ttl_round(Simulator& sim, Rng& rng, TtlSink& sink, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t slot = k % 97;
    const std::uint64_t incarnation = k / 97;
    const std::uint64_t handle = (k << 24U) | slot;
    TtlSink* self = &sink;
    auto expire = [self, slot, incarnation, handle] {
      self->expire(slot, incarnation, handle);
    };
    static_assert(sizeof(expire) == 32, "TTL-shaped closure is 32 bytes");
    sim.schedule_after(rng.uniform(), expire);
  }
  sim.run_until(sim.now() + 1.0);
}

TEST(SimAlloc, TtlEventsAndPoissonRearmsDoNotAllocate) {
  constexpr std::size_t kEvents = 10000;
  Simulator sim;
  sim.reserve_events(kEvents + 64);
  Rng rng{2024};
  TtlSink sink;
  std::uint64_t ticks = 0;
  std::vector<std::unique_ptr<PoissonProcess>> procs;
  for (int i = 0; i < 8; ++i) {
    procs.push_back(std::make_unique<PoissonProcess>(
        sim, rng, 200.0, [&ticks] { ++ticks; }));
    procs.back()->start();
  }
  ttl_round(sim, rng, sink, kEvents);  // warm-up
  const std::uint64_t ticks_before = ticks;

  g_alloc_count.store(0);
  g_counting.store(true);
  ttl_round(sim, rng, sink, kEvents);
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "event kernel allocated in steady state";
  EXPECT_EQ(sink.fired, 2 * kEvents);
  EXPECT_GT(ticks - ticks_before, 1000u);  // the processes kept re-arming
}

TEST(SimAlloc, CancelAndRescheduleDoNotAllocate) {
  constexpr std::size_t kEvents = 4096;
  Simulator sim;
  sim.reserve_events(kEvents);
  Rng rng{7};
  std::vector<EventId> ids(kEvents);
  std::uint64_t fired = 0;
  const auto round = [&] {
    for (auto& id : ids) {
      id = sim.schedule_after(rng.uniform(), [&fired] { ++fired; });
    }
    for (std::size_t k = 0; k < ids.size(); k += 2) sim.cancel(ids[k]);
    sim.run_until(sim.now() + 1.0);
  };
  round();  // warm-up

  g_alloc_count.store(0);
  g_counting.store(true);
  round();
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u);
  EXPECT_EQ(fired, kEvents);  // half of each round was cancelled
}

}  // namespace
}  // namespace icollect::sim
