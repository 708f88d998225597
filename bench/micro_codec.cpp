/// Micro-benchmarks (google-benchmark) for the RLNC codec across segment
/// sizes — the "computational complexity" axis of the paper's
/// resilience-complexity trade-off. The paper states decoding costs
/// ≈ O(s) operations per input block [8]; BM_DecodeSegment reports
/// per-block time so the linear trend in s is directly visible, and
/// BM_Encode / BM_Recode cover the source and relay costs that motivate
/// keeping s in the 20–40 range. The source encoder is a recode over
/// the origin's s systematic blocks, as proto::PeerCore::inject buffers
/// them; the relay recodes s blocks that are themselves coded.
///
/// The codec paths are registered once per GF(2^8) kernel the CPU
/// supports ("BM_DecodeSegment<avx2>/20" vs "<scalar>"), so one run
/// shows how much of the SIMD speedup survives at protocol level
/// (blocks/s decoded end to end).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "coding/decoder.h"
#include "coding/segment_buffer.h"
#include "gf/kernels.h"
#include "proto/peer_buffer.h"
#include "sim/random.h"

namespace {

using namespace icollect;
using gf::Kernels;
constexpr std::size_t kBlockBytes = 1024;

std::vector<std::vector<std::uint8_t>> make_originals(std::size_t s,
                                                      sim::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> blocks(s);
  for (auto& b : blocks) {
    b.resize(kBlockBytes);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.gf_element());
  }
  return blocks;
}

constexpr coding::SegmentId kSegment{1, 0};

/// The origin's buffer for segment {1, 0}: its s originals as s
/// systematic blocks. A recode over its segment is the source encoder.
proto::PeerBuffer make_source(std::size_t s, sim::Rng& rng) {
  const auto originals = make_originals(s, rng);
  proto::PeerBuffer buf{s, s};
  for (std::size_t k = 0; k < s; ++k) {
    buf.insert(coding::CodedBlock::systematic(kSegment, s, k, originals[k]));
  }
  return buf;
}

/// Run the benchmark body with `kind` active; restore auto-dispatch.
class KernelGuard {
 public:
  explicit KernelGuard(Kernels::Kind kind) { Kernels::select(kind); }
  ~KernelGuard() { Kernels::select(Kernels::Kind::kAuto); }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;
};

void BM_Encode(benchmark::State& state, Kernels::Kind kind) {
  const KernelGuard guard{kind};
  const auto s = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{11};
  const proto::PeerBuffer source = make_source(s, rng);
  const coding::SegmentBuffer& segment = *source.find(kSegment);
  coding::CodedBlock out;
  for (auto _ : state) {
    segment.recode_into(out, rng);
    benchmark::DoNotOptimize(out.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockBytes));
}

void BM_Recode(benchmark::State& state, Kernels::Kind kind) {
  const KernelGuard guard{kind};
  const auto s = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{12};
  const proto::PeerBuffer source = make_source(s, rng);
  proto::PeerBuffer relay{s, s};
  for (std::size_t k = 0; k < s; ++k) {
    relay.insert(source.find(kSegment)->recode(rng));
  }
  const coding::SegmentBuffer& segment = *relay.find(kSegment);
  coding::CodedBlock out;
  for (auto _ : state) {
    segment.recode_into(out, rng);
    benchmark::DoNotOptimize(out.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockBytes));
}

void BM_DecodeSegment(benchmark::State& state, Kernels::Kind kind) {
  const KernelGuard guard{kind};
  const auto s = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{13};
  const proto::PeerBuffer source = make_source(s, rng);
  // Pre-generate enough coded blocks to complete the decode.
  std::vector<coding::CodedBlock> blocks;
  for (std::size_t k = 0; k < s + 8; ++k) {
    blocks.push_back(source.find(kSegment)->recode(rng));
  }
  for (auto _ : state) {
    coding::Decoder dec{{1, 0}, s, kBlockBytes};
    std::size_t k = 0;
    while (!dec.complete()) dec.add(blocks[k++]);
    benchmark::DoNotOptimize(dec.rank());
  }
  // Report per-original-block throughput: the paper's O(s)/block claim
  // shows as items/s shrinking linearly with s.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s * kBlockBytes));
}

void BM_InnovationCheck(benchmark::State& state) {
  const auto s = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{14};
  const proto::PeerBuffer source = make_source(s, rng);
  const coding::SegmentBuffer& segment = *source.find(kSegment);
  coding::Decoder dec{kSegment, s, 0};
  for (std::size_t k = 0; k + 1 < s; ++k) {
    coding::CodedBlock b = segment.recode(rng);
    b.payload.clear();
    dec.add(b);
  }
  coding::CodedBlock probe = segment.recode(rng);
  probe.payload.clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.is_innovative(probe));
  }
}
BENCHMARK(BM_InnovationCheck)->Arg(5)->Arg(20)->Arg(40);

void BM_WireSerialize(benchmark::State& state) {
  sim::Rng rng{15};
  const coding::CodedBlock b = make_source(20, rng).find(kSegment)->recode(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coding::wire::serialize(b));
  }
}
BENCHMARK(BM_WireSerialize);

void register_kernel_benchmarks() {
  const Kernels::Kind kinds[] = {Kernels::Kind::kScalar,
                                 Kernels::Kind::kSsse3,
                                 Kernels::Kind::kAvx2};
  for (const auto kind : kinds) {
    if (!Kernels::supported(kind)) continue;
    const std::string tag = std::string("<") + Kernels::name(kind) + ">";
    benchmark::RegisterBenchmark(("BM_Encode" + tag).c_str(), BM_Encode,
                                 kind)
        ->Arg(1)
        ->Arg(5)
        ->Arg(10)
        ->Arg(20)
        ->Arg(40);
    benchmark::RegisterBenchmark(("BM_Recode" + tag).c_str(), BM_Recode,
                                 kind)
        ->Arg(1)
        ->Arg(5)
        ->Arg(10)
        ->Arg(20)
        ->Arg(40);
    benchmark::RegisterBenchmark(("BM_DecodeSegment" + tag).c_str(),
                                 BM_DecodeSegment, kind)
        ->Arg(1)
        ->Arg(5)
        ->Arg(10)
        ->Arg(20)
        ->Arg(40);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_kernel_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
