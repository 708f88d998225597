/// \file inproc.cpp
/// In-process half of the collection-pipeline benchmark (README.md).
///
///   perfbench_inproc sim-steady|sim-payload|cluster-drain
///       --seed N --seconds S --trace 0|1 [--quick]
///
/// A workload run constructs the system several times (set-up), runs a
/// fixed amount of protocol work sized from --seconds, checks the
/// outputs, and prints ONE JSON line: end-to-end values, per-layer
/// values, the cost ledger, the correctness checks and provenance.
/// perfbench/run.py turns that line into the benchmark's result.
///
/// Nothing here adds instrumentation inside the program. Per-layer
/// numbers come from what the program already exposes (obs::Profiler
/// scopes in p2p::Network, NetworkMetrics, node counters, the metrics
/// registry, the loopback hub's counters) and from timing each layer's
/// public functions directly on inputs of the workload's shape.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "coding/decoder.h"
#include "core/collection_system.h"
#include "gf/kernels.h"
#include "node/cluster.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "proto/integrity.h"
#include "proto/peer_core.h"
#include "proto/server_bank.h"
#include "sched/pull_policies.h"
#include "sched/rank_tracker.h"
#include "wire/frame.h"
#include "wire/message.h"

namespace {

using namespace icollect;

using Values = std::map<std::string, double>;

// --- clocks and memory ------------------------------------------------------

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double current_rss_mb() {
  std::ifstream statm{"/proc/self/statm"};
  long size = 0;
  long resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// --- host-speed reference ---------------------------------------------------

/// A fixed unit of work that belongs to the benchmark, not to the
/// program, so no change to the program changes it. It is shaped like
/// the program's hot paths: dependent loads over a working set far
/// larger than the caches, an event queue driving updates in a hashed
/// table of live state, packet-sized copies and checksums, and plain
/// integer arithmetic. Run right next to a slice of the workload, its
/// CPU time says how fast the host runs at that moment: other tenants
/// of a shared machine (on the same core, cache or memory bus) slow the
/// unit and the slice alike.
class ReferenceUnit {
 public:
  /// About the median CPU seconds of one unit on the 4-vCPU Xeon VM the
  /// bounds were set on (it moved by 10% there from minute to minute).
  /// Scaled times read as if measured on that VM at that speed.
  static constexpr double kNominalS = 0.018;

  ReferenceUnit()
      : ring_(kRing), rows_(kRowBytes * kRows), stream_(kStreamWords) {
    std::uint64_t x = 0x7265'6665'7265'6e63ULL;
    const auto next = [&x] {  // splitmix64
      std::uint64_t z = (x += 0x9e37'79b9'7f4a'7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d0'49bb'1331'11ebULL;
      return z ^ (z >> 31);
    };
    // One random cycle through the ring (Sattolo's shuffle), so the
    // dependent walk touches the whole working set.
    for (std::uint32_t i = 0; i < kRing; ++i) ring_[i] = i;
    for (std::uint32_t i = kRing - 1; i > 0; --i) {
      std::swap(ring_[i], ring_[next() % i]);
    }
    for (auto& b : rows_) b = static_cast<std::uint8_t>(next());
    for (auto& w : stream_) w = next();
    for (std::uint32_t k = 0; k < kLive; ++k) {
      live_[k * kKeyStride] = next();
      queue_.push({static_cast<double>(k), k});
    }
  }

  /// Run one unit; returns its CPU seconds.
  double run() {
    const double c0 = cpu_seconds();
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < kChase; ++i) at_ = ring_[at_];
    for (std::uint32_t e = 0; e < kEvents; ++e) {
      const auto [at, key] = queue_.top();
      queue_.pop();
      auto& slot = live_[key * kKeyStride];
      slot = slot * 6364136223846793005ULL + 1442695040888963407ULL;
      at_ = ring_[at_];
      queue_.push({at + 1.0 + static_cast<double>(slot >> 54) * 0x1p-10,
                   (key + at_) % kLive});
      acc += slot;
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      const std::size_t from = (r * 7919 + at_) % kRows;
      const std::size_t to = (from + 1) % kRows;
      std::memcpy(&rows_[to * kRowBytes], &rows_[from * kRowBytes],
                  kRowBytes);
      std::uint32_t a = 1;
      std::uint32_t b = 0;
      for (std::size_t i = 0; i < kRowBytes; ++i) {
        a += rows_[to * kRowBytes + i];
        b += a;
      }
      rows_[to * kRowBytes + (a + b) % kRowBytes] ^=
          static_cast<std::uint8_t>(acc);
    }
    std::uint64_t h = acc | 1U;
    for (std::uint32_t i = 0; i < kMix; ++i) {
      h = (h * 0x9e37'79b9'7f4a'7c15ULL) ^ (h >> 29);
    }
    // Packet-sized rows streamed to and from memory, picked at random.
    const std::size_t stream_rows = stream_.size() / kWordsPerRow;
    for (std::uint32_t r = 0; r < kStreamRows; ++r) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      std::uint64_t* dst = &stream_[((h >> 20) % stream_rows) * kWordsPerRow];
      const std::uint64_t* src =
          &stream_[((h >> 40) % stream_rows) * kWordsPerRow];
      for (std::size_t i = 0; i < kWordsPerRow; ++i) {
        dst[i] ^= src[i] * 0x9e37'79b9'7f4a'7c15ULL;
      }
    }
    g_sink_ = g_sink_ + h + rows_[h % rows_.size()] +
              stream_[h % stream_.size()];
    return cpu_seconds() - c0;
  }

 private:
  static constexpr std::uint32_t kRing = 8U << 20;  // 32 MiB of uint32
  static constexpr std::uint32_t kChase = 20'000;   // dependent loads
  static constexpr std::uint32_t kLive = 1U << 17;  // live table entries
  static constexpr std::uint32_t kKeyStride = 7;    // spreads the keys
  static constexpr std::uint32_t kEvents = 14'000;
  static constexpr std::size_t kRowBytes = 1024;
  static constexpr std::size_t kRows = 2048;        // 2 MiB of rows
  static constexpr std::uint32_t kMix = 1'000'000;
  static constexpr std::size_t kStreamWords = 8U << 20;  // 64 MiB
  static constexpr std::size_t kWordsPerRow = 128;       // 1 KiB rows
  static constexpr std::uint32_t kStreamRows = 3'000;

  static inline volatile std::uint64_t g_sink_ = 0;

  std::vector<std::uint32_t> ring_;
  std::vector<std::uint8_t> rows_;
  std::vector<std::uint64_t> stream_;
  std::unordered_map<std::uint32_t, std::uint64_t> live_;
  std::priority_queue<std::pair<double, std::uint32_t>,
                      std::vector<std::pair<double, std::uint32_t>>,
                      std::greater<>>
      queue_;
  std::uint32_t at_ = 0;
};

double median(const std::vector<double>& v);

/// CPU time scaled to the nominal host. Each timed slice of workload is
/// followed by one reference unit, and its CPU time is multiplied by
/// kNominalS over the mean of the units just before and just after it.
/// Keep slices near 0.1 s: much longer and host speed drifts within
/// one; much shorter and the units dominate the run.
class ScaledClock {
 public:
  ScaledClock() : before_(ref_.run()) {}

  /// Resident MiB the reference unit holds for the clock's lifetime;
  /// peak_rss_mb leaves it out.
  double footprint_mb() const { return footprint_mb_; }

  struct Slice {
    double cpu_s = 0.0;     ///< as measured
    double scaled_s = 0.0;  ///< at nominal host speed
  };

  template <class Work>
  Slice time(Work&& work) {
    const double c0 = cpu_seconds();
    work();
    const double cpu = cpu_seconds() - c0;
    const double after = ref_.run();
    const double scale = 2.0 * ReferenceUnit::kNominalS / (before_ + after);
    before_ = after;
    units_.push_back(after);
    return {cpu, cpu * scale};
  }

  /// Median CPU seconds of the reference units run so far: the host's
  /// speed during the run, kept in the trajectory.
  double unit_s() const { return median(units_); }

 private:
  double rss_before_ = current_rss_mb();
  ReferenceUnit ref_;
  double before_;
  double footprint_mb_ = current_rss_mb() - rss_before_;
  std::vector<double> units_;
};

// --- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (the same rule as numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Least-squares slope of y over x (0 with fewer than two points).
double slope(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// --- micro-timing of public layer functions ---------------------------------

/// Median ns per call of `op` over five batches of ~10 ms each.
template <class Op>
double ns_per_op(Op&& op) {
  using Clock = std::chrono::steady_clock;
  const auto elapsed_ns = [&](std::size_t n) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) op();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
  };
  std::size_t n = 1;
  double ns = elapsed_ns(n);
  while (ns < 2e6 && n < (std::size_t{1} << 26)) {
    n *= 4;
    ns = elapsed_ns(n);
  }
  n = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n) * 1e7 / ns));
  std::vector<double> per_op;
  for (int b = 0; b < 5; ++b) {
    per_op.push_back(elapsed_ns(n) / static_cast<double>(n));
  }
  return median(per_op);
}

/// The inputs that decide each layer's per-call cost.
struct Shape {
  std::size_t s = 4;          ///< blocks per segment
  std::size_t payload = 0;    ///< payload bytes per block
  std::size_t checks = 0;     ///< integrity checks per block (0 = off)
  std::size_t open_set = 0;   ///< scheduler open-set size (0 = no sched)
};

volatile std::uint64_t g_sink = 0;  // keeps timed results observable

/// Time every layer's public functions on inputs of `shape`.
Values micro_layers(const Shape& shape, std::uint64_t seed) {
  Values out;
  common::Rng rng{seed ^ 0x5eedU};
  const auto no_ttl = [](coding::BlockHandle, double) {};

  // proto: one segment's injection (payload synthesis + CRC + tags).
  {
    proto::PeerCore core{
        proto::PeerCore::Params{shape.s, shape.s, 1.0, shape.payload},
        coding::OriginId{11}, rng};
    core.set_arm_ttl(no_ttl);
    std::unique_ptr<proto::IntegrityAuthority> auth;
    if (shape.checks > 0) {
      auth = std::make_unique<proto::IntegrityAuthority>(
          proto::IntegrityParams{seed | 1U, shape.checks});
      core.set_integrity(auth.get());
    }
    out["proto.inject.us"] = ns_per_op([&] {
                               const auto inj = core.inject();
                               core.clear_all();
                               if (auth) auth->forget(inj.id);
                             }) /
                             1000.0;
  }

  // A pool of coded blocks: kSegs segments x s innovative recodes each.
  constexpr std::size_t kSegs = 64;
  proto::PeerCore source{
      proto::PeerCore::Params{shape.s, kSegs * shape.s, 1.0, shape.payload},
      coding::OriginId{12}, rng};
  source.set_arm_ttl(no_ttl);
  std::unique_ptr<proto::IntegrityAuthority> auth;
  if (shape.checks > 0) {
    auth = std::make_unique<proto::IntegrityAuthority>(
        proto::IntegrityParams{seed | 1U, shape.checks});
    source.set_integrity(auth.get());
  }
  std::vector<coding::SegmentId> segs;
  for (std::size_t k = 0; k < kSegs; ++k) segs.push_back(source.inject().id);
  std::vector<coding::CodedBlock> pool;
  for (const auto& id : segs) {
    for (std::size_t j = 0; j < shape.s; ++j) pool.push_back(source.recode(id));
  }

  // coding: one recode of a buffered segment.
  {
    coding::CodedBlock out_block;
    out["coding.recode.ns"] =
        ns_per_op([&] { source.recode_into(segs[0], out_block); });
  }

  // proto: integrity verification of one block.
  out["proto.verify.ns"] = 0.0;
  if (auth) {
    std::size_t i = 0;
    out["proto.verify.ns"] = ns_per_op([&] {
      g_sink = g_sink + static_cast<std::uint64_t>(
                            auth->verify(pool[i++ % pool.size()]));
    });
  }

  // proto + coding: a fresh bank absorbing the pool (every block is
  // innovative until its segment decodes), amortized per block.
  {
    std::vector<double> per_block;
    for (int rep = 0; rep < 7; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      {
        proto::ServerBank bank{shape.payload > 0};
        for (const auto& b : pool) {
          g_sink = g_sink + static_cast<std::uint64_t>(bank.offer(b, 0.0));
        }
      }
      const double ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      per_block.push_back(ns / static_cast<double>(pool.size()));
    }
    out["proto.bank_add.ns"] = median(per_block);
  }

  // coding: progressive decoder, one add (decoder set-up amortized).
  {
    std::vector<double> per_add;
    for (int rep = 0; rep < 7; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t k = 0; k < kSegs; ++k) {
        coding::Decoder dec{segs[k], shape.s, shape.payload};
        for (std::size_t j = 0; j < shape.s; ++j) {
          g_sink = g_sink + static_cast<std::uint64_t>(
                                dec.add(pool[k * shape.s + j]));
        }
      }
      const double ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      per_add.push_back(ns / static_cast<double>(pool.size()));
    }
    out["coding.decode_add.ns"] = median(per_add);
  }

  // gf: the active bulk kernels over one row (payload, or the
  // coefficient vector when the workload carries no payload).
  {
    const std::size_t n = shape.payload > 0 ? shape.payload : shape.s;
    std::vector<gf::Element> a(n);
    std::vector<gf::Element> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<gf::Element>(rng.uniform_index(256));
      b[i] = static_cast<gf::Element>(rng.uniform_index(256));
    }
    const auto& k = gf::Kernels::active();
    const gf::Element c = 0x53;
    out["gf.add_scaled.gbps"] =
        static_cast<double>(n) /
        ns_per_op([&] { k.add_scaled(a.data(), b.data(), c, n); });
    out["gf.dot.gbps"] =
        static_cast<double>(n) / ns_per_op([&] {
          g_sink = g_sink + k.dot(a.data(), b.data(), n);
        });
    out["gf.bytes_per_pull"] =
        2.0 * static_cast<double>(shape.s * (shape.s + shape.payload));
  }

  // wire: a PULL_BLOCK frame of the workload's block shape, and the
  // smallest frame a server sends (PULL_REQUEST); the ledger
  // interpolates between the two by a run's mean frame size.
  {
    wire::PullBlock reply;
    reply.token = 7;
    reply.occupancy = 16;
    reply.has_block = true;
    reply.block = pool.front();
    wire::PullRequest request;
    request.token = 7;
    const auto time_frame = [&out](const wire::Message& message,
                                   const std::string& kind) {
      std::vector<std::uint8_t> frame;
      out["wire.encode" + kind + ".ns"] = ns_per_op([&] {
        frame.clear();
        wire::encode_frame(message, frame);
      });
      wire::FrameDecoder decoder;
      out["wire.decode" + kind + ".ns"] = ns_per_op([&] {
        decoder.feed(frame);
        g_sink = g_sink + static_cast<std::uint64_t>(decoder.next().status);
      });
      out["wire.frame_bytes" + kind] = static_cast<double>(frame.size());
    };
    time_frame(wire::Message{reply}, "");
    time_frame(wire::Message{request}, "_request");
  }

  // sched: one deficit-weighted want over an open set of the
  // workload's size.
  out["sched.want.ns"] = 0.0;
  if (shape.open_set > 0) {
    sched::RankTracker tracker;
    for (std::size_t k = 0; k < shape.open_set; ++k) {
      tracker.on_state(
          coding::SegmentId{coding::OriginId{13},
                            static_cast<std::uint32_t>(k)},
          1 + k % (shape.s > 1 ? shape.s - 1 : 1), shape.s);
    }
    const sched::DeficitWeightedPullPolicy policy;
    out["sched.want.ns"] = ns_per_op([&] {
      g_sink = g_sink + policy.want_segment(rng, tracker).has_value();
    });
  }
  return out;
}

// --- output -----------------------------------------------------------------

/// Frame cost at `bytes`, on the line through the timed PULL_REQUEST and
/// PULL_BLOCK frames (`op` is "encode" or "decode").
double wire_ns_at(const Values& micro, const std::string& op, double bytes) {
  const double small = micro.at("wire." + op + "_request.ns");
  const double big = micro.at("wire." + op + ".ns");
  const double small_bytes = micro.at("wire.frame_bytes_request");
  const double big_bytes = micro.at("wire.frame_bytes");
  return small + (big - small) * ratio(bytes - small_bytes,
                                       big_bytes - small_bytes);
}

struct LedgerRow {
  std::string name;
  double ns_per_op = 0.0;
  double ops = 0.0;
};

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  Values e2e;
  Values layers;
  std::vector<LedgerRow> ledger;
  double ledger_cpu_s = 0.0;  ///< CPU the ledger rows are shares of
  std::map<std::string, bool> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_samples;
};

std::string values_json(const Values& v) {
  obs::JsonObject o;
  for (const auto& [k, x] : v) o.field(k, x);
  return o.str();
}

void print_result(const Result& r) {
  obs::JsonObject checks;
  for (const auto& [k, ok] : r.checks) checks.field(k, ok);
  std::string ledger = "[";
  for (std::size_t i = 0; i < r.ledger.size(); ++i) {
    const auto& row = r.ledger[i];
    obs::JsonObject o;
    o.field_str("row", row.name)
        .field("ns_per_op", row.ns_per_op)
        .field("ops", row.ops)
        .field("share", ratio(row.ns_per_op * row.ops, r.ledger_cpu_s * 1e9));
    if (i > 0) ledger += ',';
    ledger += o.str();
  }
  ledger += "]";
  const auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s += ',';
      s += std::to_string(v[i]);
    }
    return s + "]";
  };
  obs::JsonObject out;
  out.field_str("workload", r.workload)
      .field("seed", r.seed)
      .field_str("gf_kernel", gf::Kernels::active().name)
      .field_str("build_type", PERFBENCH_BUILD_TYPE)
      .field_str("compiler", PERFBENCH_COMPILER)
      .field_raw("e2e", values_json(r.e2e))
      .field_raw("layers", values_json(r.layers))
      .field_raw("ledger", ledger)
      .field("ledger_cpu_s", r.ledger_cpu_s)
      .field_raw("setup_samples_s", list(r.setup_samples))
      .field_raw("checks", checks.str())
      .field("attempted", r.attempted)
      .field("failed", r.failed);
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

/// Every whole-run check that fails turns all operations into failures.
void apply_checks(Result& r) {
  for (const auto& [name, ok] : r.checks) {
    if (!ok) r.failed = r.attempted;
  }
  r.failed = std::min(r.failed, r.attempted);
}

/// Cluster constructions timed per run for setup_s (a few ms each).
constexpr int kSetupSamples = 31;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
};

// --- sim-steady / sim-payload ----------------------------------------------

struct SimCounters {
  double injected = 0;
  double gossip = 0;
  double pulls = 0;
  double innovative = 0;
  double ttl = 0;

  static SimCounters of(const p2p::Network& net) {
    SimCounters c;
    c.injected = static_cast<double>(net.metrics().segments_injected);
    c.gossip = static_cast<double>(net.metrics().gossip_sent);
    c.pulls = static_cast<double>(net.servers().pulls());
    c.innovative = static_cast<double>(net.servers().innovative_pulls());
    c.ttl = static_cast<double>(net.metrics().ttl_expirations);
    return c;
  }
  SimCounters operator-(const SimCounters& o) const {
    return {injected - o.injected, gossip - o.gossip, pulls - o.pulls,
            innovative - o.innovative, ttl - o.ttl};
  }
  SimCounters& operator+=(const SimCounters& o) {
    injected += o.injected;
    gossip += o.gossip;
    pulls += o.pulls;
    innovative += o.innovative;
    ttl += o.ttl;
    return *this;
  }
};

/// Everything a same-seed rerun must reproduce bit for bit.
std::vector<double> sim_fingerprint(const CollectionSystem& sys) {
  const auto& m = sys.network().metrics();
  const CollectionReport r = sys.report();
  return {r.normalized_throughput,
          r.mean_blocks_per_peer,
          static_cast<double>(m.segments_injected),
          static_cast<double>(m.gossip_sent),
          static_cast<double>(m.ttl_expirations),
          static_cast<double>(sys.network().servers().pulls()),
          static_cast<double>(sys.network().servers().innovative_pulls()),
          static_cast<double>(sys.network().servers().segments_decoded())};
}

Result run_sim(const Options& opt, bool payload) {
  p2p::ProtocolConfig cfg;
  cfg.num_peers = opt.quick ? 200 : (payload ? 1000 : 2000);
  cfg.lambda = 10.0;
  cfg.segment_size = 16;
  cfg.mu = 10.0;
  cfg.gamma = 1.0;
  cfg.buffer_cap = 120;
  cfg.num_servers = 4;
  cfg.set_normalized_capacity(3.0);
  cfg.payload_bytes = payload ? 1024 : 0;
  cfg.adversary.dishonest_fraction = 0.0;
  cfg.adversary.integrity_checks = payload ? 2 : 0;
  cfg.seed = opt.seed;
  // Virtual time: a warm-up out of the buffers' fill transient, then a
  // measured horizon sized so the parent commit spends about --seconds
  // on it (reference units included) on a 4-vCPU x86-64 VM.
  const double warm = opt.quick ? 2.0 : 5.0;
  const double vt_per_second = payload ? 1.3 : 2.0;
  const double dt = 0.25;  // one timed slice: about 0.1 s of CPU
  const auto chunks = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::ceil(opt.seconds * vt_per_second / dt)));

  Result res;
  res.workload = payload ? "sim-payload" : "sim-steady";
  res.seed = opt.seed;
  ScaledClock clock;

  // Set-up is everything before the first timed chunk: construction
  // plus the warm-up, in scaled CPU seconds. It runs three times from
  // the same seed; the first two systems are same-seed twins for the
  // determinism check and are freed before the measured one is built,
  // so they leave peak RSS alone.
  const auto build_and_warm = [&]() {
    std::unique_ptr<CollectionSystem> built;
    double setup = clock.time([&] {
      built = std::make_unique<CollectionSystem>(cfg);
    }).scaled_s;
    for (double t = 0.0; t < warm - 1e-9; t += dt) {
      setup += clock.time([&] { built->run(dt); }).scaled_s;
    }
    res.setup_samples.push_back(setup);
    return built;
  };
  std::vector<std::vector<double>> twin_fingerprints;
  for (int k = 0; k < 2; ++k) {
    twin_fingerprints.push_back(sim_fingerprint(*build_and_warm()));
  }
  const std::unique_ptr<CollectionSystem> sys = build_and_warm();
  res.checks["same_seed_rerun_identical"] =
      twin_fingerprints[0] == sim_fingerprint(*sys) &&
      twin_fingerprints[1] == twin_fingerprints[0];
  p2p::Network& net = sys->network();

  // Per-block collection delay: injection of a segment -> each
  // innovative server pull of one of its blocks, after warm-up.
  std::vector<double> delays;
  net.set_trace_sink([&net, &delays, warm](const proto::TraceEvent& ev) {
    if (ev.kind != proto::TraceEventKind::kServerPull || ev.aux != 1 ||
        ev.at < warm) {
      return;
    }
    const auto& reg = net.segment_registry();
    if (const auto it = reg.find(ev.segment); it != reg.end()) {
      delays.push_back(ev.at - it->second.injected_at);
    }
  });

  net.warm_up(net.now());  // measurement window starts here

  obs::Profiler prof;
  double vt_un = 0.0, scaled_un = 0.0;
  double vt_tr = 0.0, cpu_tr = 0.0, scaled_tr = 0.0;
  // Per untraced chunk: virtual time and server pulls per scaled CPU
  // second. The rates are medians over the chunks.
  std::vector<double> chunk_rate;
  std::vector<double> chunk_pull_rate;
  SimCounters traced_delta;
  std::vector<double> rss_t;
  std::vector<double> rss_mb;
  for (std::size_t i = 0; i < chunks; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    net.set_profiler(traced ? &prof : nullptr);
    const SimCounters before = SimCounters::of(net);
    const auto slice = clock.time([&] { sys->run(dt); });
    const SimCounters delta = SimCounters::of(net) - before;
    if (traced) {
      vt_tr += dt;
      cpu_tr += slice.cpu_s;
      scaled_tr += slice.scaled_s;
      traced_delta += delta;
    } else {
      vt_un += dt;
      scaled_un += slice.scaled_s;
      chunk_rate.push_back(ratio(dt, slice.scaled_s));
      chunk_pull_rate.push_back(ratio(delta.pulls, slice.scaled_s));
    }
    rss_t.push_back(net.now());
    rss_mb.push_back(current_rss_mb());
  }
  net.set_profiler(nullptr);
  net.set_trace_sink({});  // the sink refers to `delays`
  const double horizon = vt_un + vt_tr;
  const CollectionReport r = sys->report();
  const double peak_mb = peak_rss_mb();

  res.e2e["setup_s"] = median(res.setup_samples);
  res.e2e["sim_rate"] = median(chunk_rate);
  res.e2e["collect_cpu_s"] = ratio(horizon, res.e2e["sim_rate"]);
  res.e2e["pull_rt_per_s"] = median(chunk_pull_rate);
  res.e2e["server_cpu_us_per_rt"] = ratio(1e6, res.e2e["pull_rt_per_s"]);
  res.e2e["peak_rss_mb"] = peak_mb - clock.footprint_mb();
  res.e2e["host.reference_unit_s"] = clock.unit_s();
  res.e2e["normalized_throughput"] = r.normalized_throughput;
  res.e2e["collect_vt"] = ratio(1.0, r.normalized_throughput);
  res.e2e["segment_delay_p50_vt"] = quantile(delays, 0.50);
  res.e2e["segment_delay_p99_vt"] = quantile(delays, 0.99);
  res.layers["samples.segment_delay"] = static_cast<double>(delays.size());

  // Correctness: decoded segments are the operations; every decode is
  // CRC-checked by the network against the originals it registered.
  const auto& m = net.metrics();
  res.attempted = net.servers().segments_decoded();
  res.failed = m.payload_crc_failures + m.blocks_quarantined +
               m.polluted_pulls;
  res.checks["crc_failures_zero"] = m.payload_crc_failures == 0;
  res.checks["no_honest_block_quarantined"] =
      m.blocks_quarantined + m.polluted_pulls == 0;
  res.checks["throughput_within_capacity"] =
      r.normalized_throughput <= r.capacity_bound + 1e-12;
  res.checks["segments_decoded"] = res.attempted > 0;

  // State held by the layers that can grow.
  res.layers["state.registry_segments"] =
      static_cast<double>(net.segment_registry().size());
  res.layers["state.bank_in_progress"] =
      static_cast<double>(net.servers().segments_in_progress());
  res.layers["state.bank_decoded"] =
      static_cast<double>(net.servers().segments_decoded());
  res.layers["state.integrity_tags"] =
      net.integrity() != nullptr
          ? static_cast<double>(net.integrity()->segments())
          : 0.0;
  res.layers["state.rss_slope_mb_per_vt"] = slope(rss_t, rss_mb);
  res.layers["coding.innovative_frac"] =
      ratio(static_cast<double>(r.server_pulls - r.redundant_pulls),
            static_cast<double>(r.server_pulls));

  if (opt.trace) {
    std::map<std::string, obs::Profiler::Stat> scopes;
    for (const auto* t : prof.timers()) scopes[t->name()] = t->stat();
    const auto count = [&](const char* n) {
      return static_cast<double>(scopes[n].count);
    };
    const auto total = [&](const char* n) {
      return static_cast<double>(scopes[n].total_ns);
    };
    const double calls = count("net.inject") + count("net.gossip") +
                         count("net.server_pull") + count("net.ttl_expire") +
                         count("net.depart");
    res.layers["sim.handler_calls"] = calls;
    res.layers["sim.cpu_ns_per_handler"] = ratio(cpu_tr * 1e9, calls);
    res.layers["sim.ttl_call_share"] = ratio(count("net.ttl_expire"), calls);
    // Self times: the decode scope nests inside the server-pull scope.
    const std::map<std::string, double> self_ns = {
        {"inject", total("net.inject")},
        {"gossip", total("net.gossip")},
        {"pull", total("net.server_pull") - total("net.decode")},
        {"decode", total("net.decode")},
        {"ttl", total("net.ttl_expire")}};
    const std::map<std::string, double> calls_of = {
        {"inject", count("net.inject")},
        {"gossip", count("net.gossip")},
        {"pull", count("net.server_pull")},
        {"decode", count("net.decode")},
        {"ttl", count("net.ttl_expire")}};
    for (const auto& [layer, ns] : self_ns) {
      res.layers["p2p." + layer + ".us"] =
          ratio(ns, calls_of.at(layer)) / 1000.0;
      res.layers["p2p." + layer + ".share"] = ratio(ns, cpu_tr * 1e9);
    }
    res.layers["obs.trace_overhead"] =
        ratio(ratio(scaled_tr, vt_tr), ratio(scaled_un, vt_un)) - 1.0;

    const Values micro = micro_layers(
        Shape{cfg.segment_size, cfg.payload_bytes,
              cfg.adversary.integrity_checks, 0},
        opt.seed);
    for (const auto& [k, v] : micro) res.layers[k] = v;
    const double verify_calls =
        cfg.adversary.integrity_checks > 0
            ? traced_delta.gossip + traced_delta.pulls
            : 0.0;
    res.layers["proto.verify_calls"] = verify_calls;
    res.ledger = {
        {"proto.inject", micro.at("proto.inject.us") * 1000.0,
         traced_delta.injected},
        {"coding.recode", micro.at("coding.recode.ns"),
         traced_delta.gossip + traced_delta.pulls},
        {"proto.bank_add", micro.at("proto.bank_add.ns"), traced_delta.pulls},
        {"proto.verify", micro.at("proto.verify.ns"), verify_calls},
    };
    res.ledger_cpu_s = cpu_tr;
  }

  apply_checks(res);
  return res;
}

// --- cluster-drain ----------------------------------------------------------

struct DrainRep {
  bool complete = false;
  bool all_servers_decoded = false;
  double setup_s = 0.0;  ///< scaled CPU seconds of the construction
  double cpu_s = 0.0;     ///< CPU seconds of the drain, as measured
  double scaled_s = 0.0;  ///< the same at nominal host speed
  double collect_vt = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double normalized_throughput = 0.0;
  double injected = 0.0;
  double min_server_decoded = 0.0;
  double delay_samples = 0.0;
  double pull_replies = 0.0;
  double open_set_max = 0.0;
  Values registry;  ///< summed node gauges (traced reps only)
  double loopback_sends = 0.0;
  double loopback_hwm = 0.0;
  double loopback_bytes = 0.0;
  double peer_gossip = 0.0;
  double peer_pull_replies = 0.0;
  double targeted_pulls = 0.0;     ///< not exported to the registry
  double summaries_received = 0.0; ///< not exported to the registry
};

/// Sum every registry sample named "<role><i>.<metric>" into
/// "<role>.<metric>".
Values sum_node_gauges(const obs::MetricsRegistry& reg) {
  Values out;
  reg.for_each_sample([&out](std::string_view name, double v) {
    const auto dot = name.find('.');
    if (dot == std::string_view::npos) return;
    std::string_view role = name.substr(0, dot);
    while (!role.empty() && role.back() >= '0' && role.back() <= '9') {
      role.remove_suffix(1);
    }
    if (role != "peer" && role != "server") return;
    out[std::string{role} + std::string{name.substr(dot)}] += v;
  });
  return out;
}

DrainRep drain_once(const node::ClusterConfig& cc, bool traced,
                    ScaledClock& clock) {
  DrainRep rep;
  // Declared before the cluster, whose trace sink refers to them.
  std::unordered_map<coding::SegmentId, double> injected_at;
  std::unordered_map<coding::SegmentId, double> first_decode;
  double last_decode = 0.0;
  obs::MetricsRegistry reg;
  std::unique_ptr<node::LoopbackCluster> owner;
  rep.setup_s = clock.time([&] {
    owner = std::make_unique<node::LoopbackCluster>(cc,
                                                    traced ? &reg : nullptr);
  }).scaled_s;
  node::LoopbackCluster& cl = *owner;
  cl.set_trace_sink([&](const proto::TraceEvent& ev) {
    if (ev.kind == proto::TraceEventKind::kSegmentInjected) {
      injected_at.emplace(ev.segment, ev.at);
    } else if (ev.kind == proto::TraceEventKind::kSegmentDecoded) {
      first_decode.emplace(ev.segment, ev.at);
      last_decode = std::max(last_decode, ev.at);
    }
  });

  // The same loop as LoopbackCluster::run_to_completion, with the
  // scheduler's open set sampled between steps, timed in slices of a
  // few steps (about 0.1 s of CPU each).
  const double start = cl.now();
  constexpr double kStep = 0.25;
  constexpr int kStepsPerSlice = 6;
  constexpr double kMaxVirtualTime = 600.0;
  const auto running = [&] {
    return !cl.complete() && cl.now() < kMaxVirtualTime;
  };
  while (running()) {
    const auto slice = clock.time([&] {
      for (int k = 0; k < kStepsPerSlice && running(); ++k) {
        cl.run_for(kStep);
        if (const auto* tr = cl.server(0).tracker()) {
          rep.open_set_max = std::max(
              rep.open_set_max, static_cast<double>(tr->open_count()));
        }
      }
    });
    rep.cpu_s += slice.cpu_s;
    rep.scaled_s += slice.scaled_s;
  }
  rep.complete = cl.complete();

  std::vector<double> delays;
  for (const auto& [id, at] : first_decode) {
    if (const auto it = injected_at.find(id); it != injected_at.end()) {
      delays.push_back(at - it->second);
    }
  }
  rep.delay_samples = static_cast<double>(delays.size());
  rep.p50 = quantile(delays, 0.50);
  rep.p99 = quantile(delays, 0.99);
  rep.collect_vt = last_decode - start;
  rep.normalized_throughput = cl.normalized_throughput();
  rep.injected = static_cast<double>(cl.segments_injected());
  rep.min_server_decoded = rep.injected;
  for (std::size_t s = 0; s < cc.num_servers; ++s) {
    rep.min_server_decoded =
        std::min(rep.min_server_decoded,
                 static_cast<double>(cl.server(s).segments_decoded()));
    rep.pull_replies += static_cast<double>(cl.server(s).pull_replies());
    rep.targeted_pulls += static_cast<double>(cl.server(s).targeted_pulls());
    rep.summaries_received +=
        static_cast<double>(cl.server(s).summaries_received());
  }
  rep.all_servers_decoded = rep.min_server_decoded == rep.injected;
  for (std::size_t p = 0; p < cc.num_peers; ++p) {
    rep.peer_gossip += static_cast<double>(cl.peer(p).gossip_sent());
    rep.peer_pull_replies += static_cast<double>(cl.peer(p).pull_replies());
  }
  rep.loopback_sends = static_cast<double>(cl.net().sends());
  rep.loopback_bytes = static_cast<double>(cl.net().bytes_sent());
  rep.loopback_hwm = static_cast<double>(cl.net().in_flight_high_watermark());
  if (traced) rep.registry = sum_node_gauges(reg);
  return rep;
}

Result run_cluster(const Options& opt) {
  node::ClusterConfig cc;
  cc.num_peers = opt.quick ? 32 : 128;
  cc.num_servers = 4;
  cc.segment_size = 8;
  cc.buffer_cap = 32;
  cc.payload_bytes = 1024;
  cc.lambda = 8.0;
  cc.mu = 4.0;
  cc.gamma = 1.0;
  cc.server_rate = 2.0 * static_cast<double>(cc.num_peers) /
                   static_cast<double>(cc.num_servers);  // c = 2
  cc.segments_per_peer = opt.quick ? 2 : 8;
  cc.retain_own_until_acked = true;  // a finite collection reaches 100%
  cc.pull_policy = proto::PullPolicyKind::kDeficitWeighted;
  cc.seed = opt.seed;
  cc.net.seed = opt.seed;
  cc.net.latency = 0.001;

  Result res;
  res.workload = "cluster-drain";
  res.seed = opt.seed;

  ScaledClock clock;
  // Set-up alone is a few milliseconds: time extra constructions so
  // setup_s is a median of many.
  for (int k = 0; k < kSetupSamples; ++k) {
    res.setup_samples.push_back(
        clock.time([&] { const node::LoopbackCluster probe{cc}; }).scaled_s);
  }
  // One drain takes about 4 s. A run drains `collections` clusters
  // seeded from --seed (collection times differ from seed to seed, and
  // their mean varies less), then the first one again: it must
  // reproduce the first bit for bit, and in a traced run it is the
  // traced one.
  const std::size_t collections =
      opt.quick ? 1
                : std::max<std::size_t>(
                      1, static_cast<std::size_t>(opt.seconds / 5.0));
  const auto seeded = [&cc, &opt](std::size_t k) {
    node::ClusterConfig c = cc;
    c.seed = opt.seed * 1000 + k;
    c.net.seed = c.seed;
    return c;
  };
  std::vector<DrainRep> reps;
  for (std::size_t k = 0; k < collections; ++k) {
    reps.push_back(drain_once(seeded(k), false, clock));
  }
  const DrainRep rerun = drain_once(seeded(0), opt.trace, clock);
  const double peak_mb = peak_rss_mb();

  const DrainRep& first = reps.front();
  const bool identical =
      rerun.collect_vt == first.collect_vt && rerun.p50 == first.p50 &&
      rerun.p99 == first.p99 &&
      rerun.normalized_throughput == first.normalized_throughput &&
      rerun.loopback_sends == first.loopback_sends;
  bool complete = rerun.complete && rerun.all_servers_decoded;
  // Means over the collections.
  Values mean;
  for (const auto& rep : reps) {
    res.setup_samples.push_back(rep.setup_s);
    complete = complete && rep.complete && rep.all_servers_decoded;
    const double n = static_cast<double>(reps.size());
    mean["cpu"] += rep.scaled_s / n;
    mean["collect_vt"] += rep.collect_vt / n;
    mean["replies"] += rep.pull_replies / n;
    mean["nt"] += rep.normalized_throughput / n;
    mean["p50"] += rep.p50 / n;
    mean["p99"] += rep.p99 / n;
    res.attempted += static_cast<std::uint64_t>(rep.injected);
    res.failed +=
        static_cast<std::uint64_t>(rep.injected - rep.min_server_decoded);
  }
  const double cpu = mean["cpu"];

  res.e2e["setup_s"] = median(res.setup_samples);
  res.e2e["collect_cpu_s"] = cpu;
  res.e2e["sim_rate"] = ratio(mean["collect_vt"], cpu);
  res.e2e["pull_rt_per_s"] = ratio(mean["replies"], cpu);
  res.e2e["server_cpu_us_per_rt"] = ratio(cpu * 1e6, mean["replies"]);
  res.e2e["peak_rss_mb"] = peak_mb - clock.footprint_mb();
  res.e2e["host.reference_unit_s"] = clock.unit_s();
  res.e2e["normalized_throughput"] = mean["nt"];
  res.e2e["collect_vt"] = mean["collect_vt"];
  res.e2e["segment_delay_p50_vt"] = mean["p50"];
  res.e2e["segment_delay_p99_vt"] = mean["p99"];
  res.layers["samples.segment_delay"] = first.delay_samples;
  res.layers["samples.collections"] = static_cast<double>(reps.size());

  res.checks["complete"] = complete;
  res.checks["every_segment_at_every_server"] =
      res.failed == 0 && rerun.all_servers_decoded;
  res.checks["same_seed_rerun_identical"] = identical;
  res.checks["delay_per_segment"] = std::all_of(
      reps.begin(), reps.end(),
      [](const DrainRep& r) { return r.delay_samples == r.injected; });

  if (opt.trace) {
    // Per-layer values from the traced rerun's registry.
    const DrainRep* tr = &rerun;
    const Values& g = tr->registry;
    const auto get = [&g](const std::string& k) {
      const auto it = g.find(k);
      return it != g.end() ? it->second : 0.0;
    };
    const double frames = get("peer.frames_sent") + get("server.frames_sent");
    const double server_pulls = get("server.pulls_sent");
    const double decode_events = get("server.segments_decoded");
    // Server frames that are neither pulls nor forwarded blocks: the
    // decode ACKs (plus one HELLO per session).
    const double ack_frames = get("server.frames_sent") - server_pulls -
                              get("server.forwarded_out");
    res.layers["wire.frames"] = frames;
    res.layers["wire.bytes_per_frame"] = ratio(tr->loopback_bytes, frames);
    res.layers["wire.decode_errors"] =
        get("peer.wire_decode_errors") + get("server.wire_decode_errors");
    res.layers["node.server_frame_share"] =
        ratio(get("server.frames_sent"), frames);
    res.layers["node.ack_frames_per_decode"] =
        ratio(ack_frames, decode_events);
    res.layers["node.stale_pull_frac"] =
        ratio(get("server.stale_pulls"), server_pulls);
    res.layers["node.pull_rate_ratio"] = ratio(
        server_pulls, first.collect_vt * cc.server_rate *
                          static_cast<double>(cc.num_servers));
    res.layers["sched.targeted_frac"] =
        ratio(tr->targeted_pulls, server_pulls);
    res.layers["sched.summaries"] = tr->summaries_received;
    res.layers["net.loopback.sends"] = tr->loopback_sends;
    res.layers["net.loopback.in_flight_hwm_bytes"] = tr->loopback_hwm;
    res.layers["coding.innovative_frac"] =
        ratio(get("server.innovative_pulls"), get("server.pull_replies"));
    res.layers["state.bank_in_progress"] = tr->open_set_max;
    res.layers["state.bank_decoded"] = decode_events;
    res.layers["obs.trace_overhead"] =
        ratio(rerun.scaled_s, first.scaled_s) - 1.0;

    const Values micro = micro_layers(
        Shape{cc.segment_size, cc.payload_bytes, 0,
              static_cast<std::size_t>(std::max(1.0, tr->open_set_max))},
        opt.seed);
    for (const auto& [k, v] : micro) res.layers[k] = v;
    res.ledger = {
        {"proto.inject", micro.at("proto.inject.us") * 1000.0, tr->injected},
        {"coding.recode", micro.at("coding.recode.ns"),
         tr->peer_gossip + tr->peer_pull_replies},
        {"proto.bank_add", micro.at("proto.bank_add.ns"),
         get("server.pull_replies") + get("server.forwarded_in")},
        {"wire.encode",
         wire_ns_at(micro, "encode", res.layers["wire.bytes_per_frame"]),
         frames},
        {"wire.decode",
         wire_ns_at(micro, "decode", res.layers["wire.bytes_per_frame"]),
         frames},
        {"sched.want", micro.at("sched.want.ns"), server_pulls},
    };
    res.ledger_cpu_s = tr->cpu_s;
  }
  apply_checks(res);
  return res;
}

// --- command line -----------------------------------------------------------

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s sim-steady|sim-payload|cluster-drain --seed N "
               "--seconds S --trace 0|1 [--quick]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  Options opt;
  opt.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::string_view{value()} == "1";
    } else if (arg == "--quick") {
      opt.quick = true;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.seconds <= 0.0) usage(argv[0]);
  try {
    Result res;
    if (opt.workload == "sim-steady") {
      res = run_sim(opt, /*payload=*/false);
    } else if (opt.workload == "sim-payload") {
      res = run_sim(opt, /*payload=*/true);
    } else if (opt.workload == "cluster-drain") {
      res = run_cluster(opt);
    } else {
      usage(argv[0]);
    }
    print_result(res);
    return res.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_inproc: %s\n", e.what());
    return 3;
  }
}
