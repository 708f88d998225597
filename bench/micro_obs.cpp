/// \file micro_obs.cpp
/// Micro-benchmarks for the telemetry layer's hot-path contracts: a
/// Counter::inc is one add, a disabled ProfScope is one branch, a ring
/// push is a copy + index math, and a snapshot touches every registered
/// metric exactly once. Run these when changing obs/ internals — the
/// "no measurable regression when telemetry is disabled" guarantee of
/// the instrumented engine rests on the Disabled numbers staying flat.

#include <benchmark/benchmark.h>

#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/snapshotter.h"
#include "obs/trace_pipeline.h"
#include "proto/trace.h"

namespace {

using namespace icollect;

void BM_CounterInc(benchmark::State& state) {
  obs::MetricsRegistry reg;
  auto& c = reg.counter("events");
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CounterInc);

void BM_ProfScopeDisabled(benchmark::State& state) {
  // The null-timer path every instrumented event pays with profiling off.
  obs::Profiler::Timer* timer = nullptr;
  benchmark::DoNotOptimize(timer);
  for (auto _ : state) {
    const obs::ProfScope scope{timer};
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProfScopeDisabled);

void BM_ProfScopeEnabled(benchmark::State& state) {
  obs::Profiler prof;
  auto& timer = prof.timer("evt");
  for (auto _ : state) {
    const obs::ProfScope scope{&timer};
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProfScopeEnabled);

void BM_TraceRingPush(benchmark::State& state) {
  obs::TraceBuffer buf{4096};
  proto::TraceEvent ev;
  ev.kind = proto::TraceEventKind::kGossipSent;
  ev.segment = coding::SegmentId{1, 2};
  for (auto _ : state) {
    ev.at += 1.0;
    buf.record(ev);
  }
  benchmark::DoNotOptimize(buf);
}
BENCHMARK(BM_TraceRingPush);

void BM_TraceEventToString(benchmark::State& state) {
  proto::TraceEvent ev;
  ev.kind = proto::TraceEventKind::kServerPull;
  ev.at = 123.456;
  ev.slot = 17;
  ev.segment = coding::SegmentId{7, 9};
  ev.aux = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.to_string());
  }
}
BENCHMARK(BM_TraceEventToString);

void BM_TraceEventJson(benchmark::State& state) {
  proto::TraceEvent ev;
  ev.kind = proto::TraceEventKind::kServerPull;
  ev.at = 123.456;
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::trace_event_json(ev));
  }
}
BENCHMARK(BM_TraceEventJson);

void BM_SnapshotSample(benchmark::State& state) {
  // No files open: measures the registry walk + row formatting alone,
  // for a registry the size of the Network bridge (~35 gauges).
  obs::MetricsRegistry reg;
  const auto n = static_cast<std::size_t>(state.range(0));
  double source = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    std::string name{"g"};
    name += std::to_string(i);
    reg.gauge(name, [&source] { return source; });
  }
  obs::Snapshotter snap{reg, 1.0};
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    source += 1.0;
    snap.sample(t);
  }
}
BENCHMARK(BM_SnapshotSample)->Arg(35);

}  // namespace

BENCHMARK_MAIN();
