/// Differential validation of the GF(2^8) kernel engine: every kernel
/// table the CPU supports (scalar, ssse3, avx2) must agree bit-for-bit
/// with a byte-at-a-time oracle built on GF256::mul, across odd lengths,
/// unaligned offsets and degenerate multipliers. Also pins the
/// zero-allocation contract of the steady-state decode path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "coding/decoder.h"
#include "coding/segment_buffer.h"
#include "proto/peer_buffer.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "gf/kernels.h"
#include "kernel_kinds.h"
#include "sim/random.h"
#include "source_segment.h"

// --- global allocation counter (for the zero-allocation tests) ----------
//
// Replacing ::operator new is the only way to observe allocations made
// deep inside the decode path. Counting is gated so gtest's own
// bookkeeping outside the measured region is ignored.

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

// The replacement operator new allocates with std::malloc /
// std::aligned_alloc, so releasing with std::free is correct; GCC's
// pairing heuristic can't see that and warns at inlined call sites.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  note_alloc();
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  note_alloc();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded ? rounded : a);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace icollect;
using gf::Element;
using gf::Kernels;
using testkit::supported_kernels;

/// Byte-at-a-time oracle: dst ^= c * src via the carry-less field mul.
void oracle_add_scaled(Element* dst, const Element* src, Element c,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = gf::GF256::add(dst[i], gf::GF256::mul(c, src[i]));
  }
}

const gf::KernelTable& table_for(Kernels::Kind kind) {
  EXPECT_TRUE(Kernels::select(kind));
  const gf::KernelTable& t = Kernels::active();
  // Restore the default so other tests see the auto-dispatched kernels.
  Kernels::select(Kernels::Kind::kAuto);
  return t;
}

// Lengths chosen to cross every vector-width boundary (16/32/64) in both
// directions, plus empty, single-byte and odd straddles.
const std::size_t kLengths[] = {0,  1,  2,   3,   7,   15,  16,  17,
                                31, 32, 33,  48,  63,  64,  65,  100,
                                127, 128, 129, 255, 256, 257, 1024, 1025};

// Start offsets that break 16/32-byte alignment of the working pointers.
const std::size_t kOffsets[] = {0, 1, 3, 13};

TEST(GfKernels, ScalarAlwaysSupported) {
  EXPECT_TRUE(Kernels::supported(Kernels::Kind::kScalar));
  EXPECT_TRUE(Kernels::supported(Kernels::Kind::kAuto));
  EXPECT_STREQ(Kernels::name(Kernels::Kind::kScalar), "scalar");
}

TEST(GfKernels, SelectByNameRoundTrip) {
  EXPECT_FALSE(Kernels::select_by_name("neon"));
  EXPECT_FALSE(Kernels::select_by_name(""));
  ASSERT_TRUE(Kernels::select_by_name("scalar"));
  EXPECT_STREQ(Kernels::active().name, "scalar");
  ASSERT_TRUE(Kernels::select_by_name("auto"));
  EXPECT_STREQ(Kernels::active().name, Kernels::name(Kernels::best()));
}

TEST(GfKernels, AddScaledMatchesOracleEverywhere) {
  sim::Rng rng{11};
  for (const auto kind : supported_kernels()) {
    const gf::KernelTable& t = table_for(kind);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        std::vector<Element> dst(off + n + 8), src(off + n + 8);
        rng.fill_gf(dst);
        rng.fill_gf(src);
        for (const Element c :
             {Element{0}, Element{1}, rng.gf_element(), Element{255}}) {
          std::vector<Element> expect = dst;
          oracle_add_scaled(expect.data() + off, src.data() + off, c, n);
          std::vector<Element> got = dst;
          t.add_scaled(got.data() + off, src.data() + off, c, n);
          ASSERT_EQ(got, expect)
              << t.name << " add_scaled n=" << n << " off=" << off
              << " c=" << static_cast<int>(c);
        }
      }
    }
  }
}

TEST(GfKernels, ScaleAssignMatchesOracleEverywhere) {
  sim::Rng rng{12};
  for (const auto kind : supported_kernels()) {
    const gf::KernelTable& t = table_for(kind);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        std::vector<Element> base(off + n + 8);
        rng.fill_gf(base);
        for (const Element c :
             {Element{0}, Element{1}, Element{2}, rng.gf_element()}) {
          std::vector<Element> expect = base;
          for (std::size_t i = 0; i < n; ++i) {
            expect[off + i] = gf::GF256::mul(c, expect[off + i]);
          }
          std::vector<Element> got = base;
          t.scale_assign(got.data() + off, c, n);
          ASSERT_EQ(got, expect)
              << t.name << " scale_assign n=" << n << " off=" << off
              << " c=" << static_cast<int>(c);
        }
      }
    }
  }
}

TEST(GfKernels, AddAssignMatchesOracleEverywhere) {
  sim::Rng rng{13};
  for (const auto kind : supported_kernels()) {
    const gf::KernelTable& t = table_for(kind);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        std::vector<Element> dst(off + n + 8), src(off + n + 8);
        rng.fill_gf(dst);
        rng.fill_gf(src);
        std::vector<Element> expect = dst;
        for (std::size_t i = 0; i < n; ++i) {
          expect[off + i] = gf::GF256::add(expect[off + i], src[off + i]);
        }
        std::vector<Element> got = dst;
        t.add_assign(got.data() + off, src.data() + off, n);
        ASSERT_EQ(got, expect)
            << t.name << " add_assign n=" << n << " off=" << off;
      }
    }
  }
}

TEST(GfKernels, DotMatchesOracleEverywhere) {
  sim::Rng rng{14};
  for (const auto kind : supported_kernels()) {
    const gf::KernelTable& t = table_for(kind);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        std::vector<Element> a(off + n + 8), b(off + n + 8);
        rng.fill_gf(a);
        rng.fill_gf(b);
        Element expect = 0;
        for (std::size_t i = 0; i < n; ++i) {
          expect = gf::GF256::add(expect,
                                  gf::GF256::mul(a[off + i], b[off + i]));
        }
        ASSERT_EQ(t.dot(a.data() + off, b.data() + off, n), expect)
            << t.name << " dot n=" << n << " off=" << off;
      }
    }
  }
}

TEST(GfKernels, DotHandlesSignBitAndSaturatedBytes) {
  // The bit-sliced SIMD dots read b's bits through the byte sign bit;
  // pin the bytes where that matters most against the oracle.
  const Element patterns[] = {0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF};
  for (const auto kind : supported_kernels()) {
    const gf::KernelTable& t = table_for(kind);
    for (const Element pa : patterns) {
      for (const Element pb : patterns) {
        for (const std::size_t n : {std::size_t{16}, std::size_t{33},
                                    std::size_t{64}, std::size_t{1025}}) {
          const std::vector<Element> a(n, pa), b(n, pb);
          Element expect = 0;
          for (std::size_t i = 0; i < n; ++i) {
            expect = gf::GF256::add(expect, gf::GF256::mul(pa, pb));
          }
          ASSERT_EQ(t.dot(a.data(), b.data(), n), expect)
              << t.name << " a=" << int{pa} << " b=" << int{pb} << " n=" << n;
        }
      }
    }
  }
}

TEST(GfKernels, KernelsAgreePairwiseOnRandomStreams) {
  // Cross-kernel agreement on longer random streams: the property the
  // simulation's determinism guarantee rests on.
  sim::Rng rng{15};
  const auto kinds = supported_kernels();
  for (int round = 0; round < 16; ++round) {
    const std::size_t n = 1 + rng.uniform_index(2048);
    std::vector<Element> dst(n), src(n);
    rng.fill_gf(dst);
    rng.fill_gf(src);
    const Element c = rng.gf_element();
    std::vector<std::vector<Element>> outs;
    for (const auto kind : kinds) {
      const gf::KernelTable& t = table_for(kind);
      std::vector<Element> work = dst;
      t.add_scaled(work.data(), src.data(), c, n);
      t.scale_assign(work.data(), c, n);
      t.add_assign(work.data(), src.data(), n);
      outs.push_back(std::move(work));
    }
    for (std::size_t k = 1; k < outs.size(); ++k) {
      ASSERT_EQ(outs[k], outs[0])
          << "kernel " << Kernels::name(kinds[k]) << " diverged (n=" << n
          << ", c=" << static_cast<int>(c) << ")";
    }
  }
}

// --- byte-stream kernels --------------------------------------------------

TEST(GfKernels, SplitmixExpandMatchesScalarLoop) {
  // Lengths around the 4-lane step, counters that wrap 2^64 mid-range,
  // and a sentinel word past the end that no kernel may touch.
  const std::size_t lengths[] = {0, 1, 3, 4, 5, 7, 8, 31, 32, 33, 128, 1001};
  const std::uint64_t counters[] = {0, 1, 0x123456789ABCDEFULL,
                                    ~std::uint64_t{0} - 2};
  constexpr std::uint64_t kSentinel = 0xA5A5A5A5A5A5A5A5ULL;
  for (const auto kind : supported_kernels()) {
    const gf::KernelTable& t = table_for(kind);
    for (const std::size_t n : lengths) {
      for (const std::uint64_t counter : counters) {
        std::vector<std::uint64_t> words(n + 1, kSentinel);
        t.splitmix_expand(words.data(), counter, n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(words[i], common::splitmix64(counter + i))
              << t.name << " n " << n << " counter " << counter << " i " << i;
        }
        ASSERT_EQ(words[n], kSentinel) << t.name << " n " << n;
      }
    }
  }
}

TEST(GfKernels, Mt64EntriesMatchScalarReference) {
  // Raw table entries against the scalar ones: the twist on random
  // states (three blocks in a row), and the low-byte temper at lengths
  // around the 16-word step with a sentinel byte past the end.
  sim::Rng rng{16};
  for (const auto kind : supported_kernels()) {
    const gf::KernelTable& t = table_for(kind);
    std::vector<std::uint64_t> state(gf::kMt64StateWords);
    for (auto& w : state) w = rng.engine()();
    std::vector<std::uint64_t> expect = state;
    for (int block = 0; block < 3; ++block) {
      t.mt64_twist(state.data());
      gf::detail::scalar_mt64_twist(expect.data());
      ASSERT_EQ(state, expect) << t.name << " block " << block;
    }
    for (std::size_t n = 0; n <= gf::kMt64StateWords; ++n) {
      std::vector<std::uint8_t> got(n + 1, 0x5A);
      std::vector<std::uint8_t> want(n + 1, 0x5A);
      t.mt64_low_bytes(got.data(), state.data(), n);
      gf::detail::scalar_mt64_low_bytes(want.data(), state.data(), n);
      ASSERT_EQ(got, want) << t.name << " n " << n;
    }
  }
}

TEST(GfKernels, SelectScalarMakesEveryByteStreamEntryPortable) {
  ASSERT_TRUE(Kernels::select(Kernels::Kind::kScalar));
  const gf::KernelTable& t = Kernels::active();
  EXPECT_EQ(t.mt64_twist, &gf::detail::scalar_mt64_twist);
  EXPECT_EQ(t.mt64_low_bytes, &gf::detail::scalar_mt64_low_bytes);
  EXPECT_EQ(t.splitmix_expand, &gf::detail::scalar_splitmix_expand);
  EXPECT_EQ(t.crc32_update, &gf::detail::scalar_crc32_update);
  Kernels::select(Kernels::Kind::kAuto);
}

TEST(GfKernels, Avx2RequiresPclmul) {
#if defined(__x86_64__) || defined(__i386__)
  const bool cpu = __builtin_cpu_supports("avx2") != 0 &&
                   __builtin_cpu_supports("pclmul") != 0;
  EXPECT_EQ(Kernels::supported(Kernels::Kind::kAvx2), cpu);
#else
  EXPECT_FALSE(Kernels::supported(Kernels::Kind::kAvx2));
#endif
}

// --- zero-allocation decode path ----------------------------------------

TEST(GfKernels, DecoderAddIsAllocationFreeInSteadyState) {
  constexpr std::size_t s = 16;
  constexpr std::size_t payload = 256;
  sim::Rng rng{21};
  std::vector<std::vector<std::uint8_t>> originals(s);
  for (auto& blk : originals) {
    blk.resize(payload);
    rng.fill_gf(blk);
  }
  const auto src =
      fixtures::source_buffer(coding::SegmentId{1, 1}, originals);
  coding::Decoder dec{coding::SegmentId{1, 1}, s, payload};

  // Pre-generate every block outside the measured region; the decoder's
  // own buffers are pre-sized at construction.
  std::vector<coding::CodedBlock> blocks;
  for (std::size_t i = 0; i < s + 8; ++i) blocks.push_back(src.recode(rng));

  g_alloc_count.store(0);
  g_counting.store(true);
  for (const auto& b : blocks) dec.add(b);  // innovative and redundant adds
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "Decoder::add allocated in steady state";
  ASSERT_TRUE(dec.complete());
  for (std::size_t k = 0; k < s; ++k) {
    const auto got = dec.original(k);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), originals[k].begin(),
                           originals[k].end()));
  }
}

TEST(GfKernels, RecodeIntoIsAllocationFreeOnceWarm) {
  constexpr std::size_t s = 8;
  constexpr std::size_t payload = 128;
  sim::Rng rng{22};
  std::vector<std::vector<std::uint8_t>> originals(s);
  for (auto& blk : originals) {
    blk.resize(payload);
    rng.fill_gf(blk);
  }
  const auto src =
      fixtures::source_buffer(coding::SegmentId{2, 2}, originals);
  proto::PeerBuffer peer{s, s};
  for (std::size_t i = 0; i < s; ++i) peer.insert(src.recode(rng));
  const coding::SegmentBuffer& buf = *peer.find(coding::SegmentId{2, 2});

  coding::CodedBlock scratch;
  buf.recode_into(scratch, rng);  // warm: buffers grow to full size here

  g_alloc_count.store(0);
  g_counting.store(true);
  for (int i = 0; i < 32; ++i) buf.recode_into(scratch, rng);
  g_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "SegmentBuffer::recode_into allocated after warm-up";
  EXPECT_FALSE(scratch.is_degenerate());
}

}  // namespace
