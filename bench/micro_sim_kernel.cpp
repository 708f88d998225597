/// Micro-benchmarks (google-benchmark) for the discrete-event kernel —
/// the substrate every protocol simulation runs on. Establishes the
/// events/second budget that sizes the figure sweeps.

#include <benchmark/benchmark.h>

#include "p2p/network.h"
#include "sim/poisson_process.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace {

using namespace icollect;

void BM_ScheduleAndFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(static_cast<double>(i), [] {});
    }
    sim.run_until(1000.0);
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ScheduleAndFire);

void BM_ScheduleCancelHalf(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(sim.schedule_at(static_cast<double>(i), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
    sim.run_until(1000.0);
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ScheduleCancelHalf);

void BM_PoissonProcessChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Rng rng{7};
    std::uint64_t fires = 0;
    sim::PoissonProcess p{sim, rng, 100.0, [&] { ++fires; }};
    p.start();
    sim.run_until(50.0);
    benchmark::DoNotOptimize(fires);
  }
}
BENCHMARK(BM_PoissonProcessChurn);

/// The simulator's dominant event shape: ~100k pending TTL expiries, each
/// a 32-byte closure [this, slot, incarnation, handle] like
/// p2p::Network's. Hold model: every fired expiry arms a fresh one, so
/// the queue stays at its working size.
void BM_TtlShapedHold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  struct Sink {
    std::uint64_t sum = 0;
    void expire(std::size_t slot, std::uint64_t incarnation,
                std::uint64_t handle) {
      sum += slot ^ incarnation ^ handle;
    }
  } sink;
  sim::Simulator sim;
  sim.reserve_events(pending);
  sim::Rng rng{11};
  std::uint64_t next = 0;
  const auto arm = [&] {
    Sink* self = &sink;
    const std::size_t slot = next % 2000;
    const std::uint64_t incarnation = next / 2000;
    const std::uint64_t handle = next++;
    sim.schedule_after(rng.exponential(1.0),
                       [self, slot, incarnation, handle] {
                         self->expire(slot, incarnation, handle);
                       });
  };
  for (std::size_t i = 0; i < pending; ++i) arm();
  for (auto _ : state) {
    sim.step();
    arm();
  }
  benchmark::DoNotOptimize(sink.sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TtlShapedHold)->Arg(100000);

/// End-to-end protocol events per second at a Fig. 3 operating point.
void BM_NetworkSimulation(benchmark::State& state) {
  const auto s = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    p2p::ProtocolConfig cfg;
    cfg.num_peers = 100;
    cfg.lambda = 20.0;
    cfg.mu = 10.0;
    cfg.gamma = 1.0;
    cfg.segment_size = s;
    cfg.buffer_cap = 120;
    cfg.num_servers = 4;
    cfg.set_normalized_capacity(5.0);
    cfg.fidelity = p2p::CollectionFidelity::kStateCounter;
    cfg.seed = 3;
    p2p::Network net{cfg};
    net.run_until(2.0);
    events += net.metrics().blocks_injected + net.metrics().gossip_sent +
              net.metrics().ttl_expirations + net.servers().pulls();
    benchmark::DoNotOptimize(net.throughput());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_NetworkSimulation)->Arg(1)->Arg(10)->Arg(40)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
