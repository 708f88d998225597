/// Differential fuzz for the extracted protocol core: the same
/// randomized input schedule is fed to identical proto::PeerCore /
/// proto::ServerCore instances through two genuinely different
/// drivers — the simulator's event queue (sim::Simulator) and the live
/// runtime's timer wheel (net::TimerWheel) — and the resulting decision
/// traces must match entry for entry.
///
/// This is the refactor's load-bearing claim made executable: the core
/// is transport- and clock-agnostic, so *which* scheduler delivers its
/// inputs cannot change any protocol decision. Times are excluded from
/// the trace (the wheel quantizes to ticks; the simulator does not);
/// instead the sim driver rounds each armed TTL delay up to the wheel's
/// tick grid, so both schedules fire every event in the same order and
/// the traces stay comparable. The tick is a power of two (2^-7 s) and
/// operations land every 32 ticks, which keeps every event time exact
/// in double arithmetic — ordering cannot drift by rounding.
///
/// Test suites here are named ProtoDifferential.* so the asan and tsan
/// presets pick them up via their test filters.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/timer_wheel.h"
#include "obs/clock.h"
#include "proto/peer_core.h"
#include "proto/server_bank.h"
#include "proto/server_core.h"
#include "sim/simulator.h"

namespace icollect::proto {
namespace {

/// The wheel's tick (2^-7 s, exactly representable) and the spacing of
/// scripted operations (32 ticks = 0.25 s).
constexpr double kTick = 0.0078125;
constexpr std::uint64_t kTicksPerOp = 32;

enum class Op : std::uint8_t {
  kInjectA,
  kInjectB,
  kGossipAtoB,
  kGossipBtoA,
  kPullA,
  kPullB,
  kChurnA,
};
constexpr std::size_t kOpKinds = 7;

/// One script = the op sequence; everything else (payload bytes, TTL
/// lifetimes, coding coefficients, segment choices) flows from the
/// cores' own seeded RNG streams, identically in both harnesses.
std::vector<Op> make_script(std::uint64_t seed, std::size_t length) {
  common::Rng rng{seed};
  std::vector<Op> ops;
  ops.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    ops.push_back(static_cast<Op>(rng.uniform_index(kOpKinds)));
  }
  return ops;
}

std::string fmt_seg(const coding::SegmentId& id) {
  return std::to_string(id.origin) + ":" + std::to_string(id.seq);
}

std::string fmt_delay(double delay) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", delay);
  return std::string{buf};
}

const char* accept_name(PeerCore::AcceptResult r) {
  switch (r) {
    case PeerCore::AcceptResult::kStored: return "stored";
    case PeerCore::AcceptResult::kShapeMismatch: return "shape";
    case PeerCore::AcceptResult::kPolluted: return "polluted";
    case PeerCore::AcceptResult::kAckedSegment: return "acked";
    case PeerCore::AcceptResult::kBufferFull: return "full";
    case PeerCore::AcceptResult::kSegmentFullRank: return "rank";
  }
  return "?";
}

const char* pull_name(ServerBank::PullResult r) {
  switch (r) {
    case ServerBank::PullResult::kInnovative: return "innovative";
    case ServerBank::PullResult::kRedundant: return "redundant";
    case ServerBank::PullResult::kAlreadyDecoded: return "stale";
    case ServerBank::PullResult::kPolluted: return "polluted";
  }
  return "?";
}

const char* ack_name(PeerCore::AckResult r) {
  switch (r) {
    case PeerCore::AckResult::kDuplicate: return "dup";
    case PeerCore::AckResult::kOwnSegment: return "own";
    case PeerCore::AckResult::kOtherSegment: return "other";
  }
  return "?";
}

/// Scheduler seam: how a harness arms a delayed callback and advances
/// logical time by one op interval. The sim driver quantizes delays to
/// the wheel's grid so both drivers fire every callback in the same
/// order (see file comment).
struct SimDriver {
  sim::Simulator sim;
  double next_op_time = 0.0;

  [[nodiscard]] double now() const { return sim.now(); }
  void arm(double delay, std::function<void()> cb) {
    auto ticks = static_cast<std::uint64_t>(delay / kTick);
    if (static_cast<double>(ticks) * kTick < delay) ++ticks;
    if (ticks == 0) ticks = 1;
    sim.schedule_after(static_cast<double>(ticks) * kTick, std::move(cb));
  }
  void advance_one_op() {
    next_op_time += static_cast<double>(kTicksPerOp) * kTick;
    sim.run_until(next_op_time);
  }
  void drain(double until) { sim.run_until(until); }
};

struct WheelDriver {
  net::TimerWheel wheel{kTick};

  [[nodiscard]] double now() const { return wheel.now(); }
  void arm(double delay, std::function<void()> cb) {
    wheel.schedule_after(delay, std::move(cb));
  }
  void advance_one_op() { wheel.advance(kTicksPerOp); }
  void drain(double until) { wheel.advance_to(until); }
};

struct FuzzConfig {
  PeerCore::Params params;
  std::uint64_t seed = 0;
  std::size_t script_len = 0;
};

/// Run the scripted schedule through one driver and return the decision
/// trace. Two peers (A injects/gossips/answers pulls with B; A also
/// churns) and one server (pulls alternate between them, decode ACKs
/// fan out to both).
template <typename Driver>
std::vector<std::string> run_schedule(const FuzzConfig& cfg) {
  Driver driver;
  std::vector<std::string> trace;

  common::Rng rng_a{cfg.seed + 0x10};
  common::Rng rng_b{cfg.seed + 0x20};
  PeerCore peer_a{cfg.params, /*origin=*/1, rng_a};
  PeerCore peer_b{cfg.params, /*origin=*/2, rng_b};
  const obs::CallbackClock clock{[&driver] { return driver.now(); }};
  ServerCore server{/*keep_payloads=*/false, clock};
  coding::OriginId next_origin = 100;

  PeerCore* peers[2] = {&peer_a, &peer_b};
  const char* names[2] = {"A", "B"};
  for (int i = 0; i < 2; ++i) {
    PeerCore* core = peers[i];
    const std::string name = names[i];
    core->set_arm_ttl([&driver, &trace, core, name](coding::BlockHandle h,
                                                    double delay) {
      trace.push_back("arm " + name + " h=" + std::to_string(h) +
                      " d=" + fmt_delay(delay));
      driver.arm(delay, [&trace, core, name, h] {
        const auto seg = core->on_ttl_expired(h);
        if (!seg) {
          trace.push_back("ttl-stale " + name);
          return;
        }
        trace.push_back("ttl " + name + " " + fmt_seg(*seg));
      });
    });
  }

  server.set_decode_callback([&](const ServerBank::DecodeEvent& ev) {
    trace.push_back("decode " + fmt_seg(ev.id));
    trace.push_back(std::string{"ack A="} +
                    ack_name(peer_a.on_ack(ev.id)) +
                    " B=" + ack_name(peer_b.on_ack(ev.id)));
  });

  const auto inject = [&](int idx) {
    PeerCore& core = *peers[idx];
    if (!core.can_inject()) {
      trace.push_back(std::string{"inject-blocked "} + names[idx]);
      return;
    }
    const auto injected = core.inject();
    std::string entry =
        std::string{"inject "} + names[idx] + " " + fmt_seg(injected.id);
    for (const std::uint32_t crc : injected.crcs) {
      entry += ' ';
      entry += std::to_string(crc);
    }
    trace.push_back(std::move(entry));
  };

  const auto gossip = [&](int from, int to) {
    PeerCore& src = *peers[from];
    PeerCore& dst = *peers[to];
    if (!src.has_blocks()) {
      trace.push_back(std::string{"gossip-idle "} + names[from]);
      return;
    }
    const coding::SegmentId seg = src.choose_gossip_segment();
    const auto result = dst.accept(src.recode(seg));
    trace.push_back(std::string{"gossip "} + names[from] + ">" +
                    names[to] + " " + fmt_seg(seg) + " " +
                    accept_name(result));
  };

  const auto pull = [&](int idx) {
    PeerCore& core = *peers[idx];
    coding::CodedBlock block;
    if (!core.answer_pull(block)) {
      trace.push_back(std::string{"pull-empty "} + names[idx]);
      return;
    }
    const auto result = server.on_pull_block(block);
    trace.push_back(std::string{"pull "} + names[idx] + " " +
                    fmt_seg(block.segment) + " " + pull_name(result) +
                    " fwd=" +
                    (ServerCore::should_forward(result) ? "1" : "0"));
  };

  const std::vector<Op> script = make_script(cfg.seed, cfg.script_len);
  for (const Op op : script) {
    driver.advance_one_op();
    switch (op) {
      case Op::kInjectA: inject(0); break;
      case Op::kInjectB: inject(1); break;
      case Op::kGossipAtoB: gossip(0, 1); break;
      case Op::kGossipBtoA: gossip(1, 0); break;
      case Op::kPullA: pull(0); break;
      case Op::kPullB: pull(1); break;
      case Op::kChurnA: {
        const std::size_t lost = peer_a.clear_all();
        peer_a.rebirth(next_origin++);
        trace.push_back("churn A n=" + std::to_string(lost));
        break;
      }
    }
  }
  // Let every armed TTL fire (or go stale) so the tail of the trace is
  // compared too. Exp(1) lifetimes: 64 op-intervals ≈ 16 s is far past
  // any armed expiry for the script lengths used here.
  driver.drain(static_cast<double>(cfg.script_len + 64) *
               static_cast<double>(kTicksPerOp) * kTick);
  return trace;
}

void expect_identical_traces(const FuzzConfig& cfg) {
  const auto sim_trace = run_schedule<SimDriver>(cfg);
  const auto wheel_trace = run_schedule<WheelDriver>(cfg);
  ASSERT_FALSE(sim_trace.empty());
  ASSERT_EQ(sim_trace.size(), wheel_trace.size())
      << "seed=" << cfg.seed;
  for (std::size_t i = 0; i < sim_trace.size(); ++i) {
    ASSERT_EQ(sim_trace[i], wheel_trace[i])
        << "seed=" << cfg.seed << " entry=" << i;
  }
  // Sanity: the schedule exercised real decisions, not just idle ops.
  bool saw_store = false;
  for (const auto& e : sim_trace) {
    if (e.rfind("arm", 0) == 0) saw_store = true;
  }
  EXPECT_TRUE(saw_store) << "seed=" << cfg.seed;
}

FuzzConfig base_config(std::uint64_t seed) {
  FuzzConfig cfg;
  cfg.params.segment_size = 3;
  cfg.params.buffer_cap = 12;
  cfg.params.gamma = 1.0;
  cfg.seed = seed;
  cfg.script_len = 160;
  return cfg;
}

TEST(ProtoDifferential, PlainConfigTracesMatch) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    expect_identical_traces(base_config(seed));
  }
}

TEST(ProtoDifferential, PayloadRetainDropOnAckTracesMatch) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    FuzzConfig cfg = base_config(seed);
    cfg.params.payload_bytes = 8;
    cfg.params.record_own_crcs = true;
    cfg.params.drop_on_ack = true;
    cfg.params.retain_own_until_acked = true;
    expect_identical_traces(cfg);
  }
}

TEST(ProtoDifferential, TinyBufferBackpressureTracesMatch) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    FuzzConfig cfg = base_config(seed);
    cfg.params.buffer_cap = 4;  // one segment + one relayed block
    cfg.script_len = 200;
    expect_identical_traces(cfg);
  }
}

}  // namespace
}  // namespace icollect::proto
