#include "workload/trace_replay.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/cli.h"

namespace icollect::workload {

namespace {
constexpr double kTwoPi = 6.283185307179586476925286766559;
}  // namespace

TraceReplayProfile::TraceReplayProfile(double base, double amplitude,
                                       double period,
                                       std::vector<BurstWindow> bursts)
    : base_{base},
      amplitude_{amplitude},
      period_{period},
      bursts_{std::move(bursts)} {
  ICOLLECT_EXPECTS(base >= 0.0);
  ICOLLECT_EXPECTS(amplitude >= 0.0 && amplitude < 1.0);
  ICOLLECT_EXPECTS(period > 0.0);
  // Thinning bound: peak diurnal swing times every burst compounded.
  // Loose when bursts don't overlap, but a loose bound only costs extra
  // thinning rejections, never correctness.
  double burst_peak = 1.0;
  for (const BurstWindow& b : bursts_) {
    ICOLLECT_EXPECTS(b.end > b.start);
    ICOLLECT_EXPECTS(b.multiplier >= 1.0);
    burst_peak *= b.multiplier;
  }
  max_rate_ = base_ * (1.0 + amplitude_) * burst_peak;
}

double TraceReplayProfile::rate(double t) const {
  double r = base_ * (1.0 + amplitude_ * std::sin(kTwoPi * t / period_));
  for (const BurstWindow& b : bursts_) {
    if (t >= b.start && t < b.end) r *= b.multiplier;
  }
  return r;
}

ScenarioSpec ScenarioSpec::parse(std::string_view text) {
  using proto::CorruptionStrategy;
  ScenarioSpec spec;
  const std::size_t colon = text.find(':');
  const std::string_view cls = text.substr(0, colon);
  cli::Flags keys;
  if (cls == "byzantine") {
    spec.kind = Kind::kByzantine;
    keys.add("fraction", "F", "", spec.adversary.dishonest_fraction)
        .choice("strategy", "", spec.adversary.strategy,
                {{"random-payload", CorruptionStrategy::kRandomPayload},
                 {"garbage-coefficients",
                  CorruptionStrategy::kGarbageCoefficients},
                 {"replay", CorruptionStrategy::kReplay}})
        .add("checks", "K", "", spec.adversary.integrity_checks);
  } else if (cls == "faults") {
    spec.kind = Kind::kFaults;
    keys.add("fraction", "F", "", spec.partition_fraction)
        .add("at", "T", "", spec.partition_at)
        .add("heal", "T", "", spec.heal_at)
        .add("drain", "R", "", spec.drain_bytes_per_sec);
  } else if (cls == "trace") {
    spec.kind = Kind::kTrace;
    keys.add("amplitude", "A", "", spec.diurnal_amplitude)
        .add("period", "T", "", spec.diurnal_period)
        .add("burst", "X", "", spec.burst_multiplier)
        .add("burst-at", "T", "", spec.burst_at)
        .add("burst-len", "T", "", spec.burst_len)
        .add("sigma", "S", "", spec.lognormal_sigma)
        .add("lifetime", "T", "", spec.mean_lifetime);
  } else {
    throw std::invalid_argument("scenario: unknown class '" +
                                std::string{cls} +
                                "' (choices: byzantine|faults|trace)");
  }

  std::vector<std::string_view> pairs;
  std::string_view rest = colon == std::string_view::npos
                              ? std::string_view{}
                              : text.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    if (comma != 0) pairs.push_back(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
  }
  try {
    keys.parse(pairs);
  } catch (const cli::UsageError& e) {
    throw std::invalid_argument("scenario " + std::string{cls} + ": " +
                                e.what());
  }

  // Range checks after all keys land, so order never matters.
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("scenario: " + what);
  };
  switch (spec.kind) {
    case Kind::kByzantine:
      if (spec.adversary.dishonest_fraction < 0.0 ||
          spec.adversary.dishonest_fraction > 1.0) {
        fail("fraction must be in [0, 1]");
      }
      break;
    case Kind::kFaults:
      if (spec.partition_fraction < 0.0 || spec.partition_fraction > 1.0) {
        fail("fraction must be in [0, 1]");
      }
      if (spec.partition_at < 0.0) fail("at must be >= 0");
      if (spec.heal_at <= spec.partition_at) fail("heal must be > at");
      if (spec.drain_bytes_per_sec < 0.0) fail("drain must be >= 0");
      break;
    case Kind::kTrace:
      if (spec.diurnal_amplitude < 0.0 || spec.diurnal_amplitude >= 1.0) {
        fail("amplitude must be in [0, 1)");
      }
      if (spec.diurnal_period <= 0.0) fail("period must be > 0");
      if (spec.burst_multiplier < 1.0) fail("burst must be >= 1");
      if (spec.burst_len <= 0.0) fail("burst-len must be > 0");
      if (spec.lognormal_sigma <= 0.0) fail("sigma must be > 0");
      if (spec.mean_lifetime < 0.0) fail("lifetime must be >= 0");
      break;
  }
  return spec;
}

void ScenarioSpec::apply_byzantine(proto::OperatingPoint& point) const {
  point.adversary = adversary;
  if (point.payload_bytes == 0) point.payload_bytes = 32;
}

const char* ScenarioSpec::kind_name() const noexcept {
  switch (kind) {
    case Kind::kByzantine: return "byzantine";
    case Kind::kFaults: return "faults";
    case Kind::kTrace: return "trace";
  }
  return "?";
}

std::string ScenarioSpec::to_json() const {
  char buf[512];
  switch (kind) {
    case Kind::kByzantine:
      std::snprintf(buf, sizeof(buf),
                    "{\"scenario\":\"byzantine\",\"fraction\":%g,"
                    "\"strategy\":\"%s\",\"checks\":%zu}",
                    adversary.dishonest_fraction,
                    proto::to_string(adversary.strategy),
                    adversary.integrity_checks);
      break;
    case Kind::kFaults:
      std::snprintf(buf, sizeof(buf),
                    "{\"scenario\":\"faults\",\"fraction\":%g,\"at\":%g,"
                    "\"heal\":%g,\"drain\":%g}",
                    partition_fraction, partition_at, heal_at,
                    drain_bytes_per_sec);
      break;
    case Kind::kTrace:
      std::snprintf(buf, sizeof(buf),
                    "{\"scenario\":\"trace\",\"amplitude\":%g,"
                    "\"period\":%g,\"burst\":%g,\"burst_at\":%g,"
                    "\"burst_len\":%g,\"sigma\":%g,\"lifetime\":%g}",
                    diurnal_amplitude, diurnal_period, burst_multiplier,
                    burst_at, burst_len, lognormal_sigma, mean_lifetime);
      break;
  }
  return std::string{buf};
}

std::unique_ptr<ArrivalProfile> ScenarioSpec::make_arrival_profile(
    double base_lambda) const {
  ICOLLECT_EXPECTS(kind == Kind::kTrace);
  std::vector<BurstWindow> bursts;
  if (burst_multiplier > 1.0) {
    bursts.push_back(
        BurstWindow{burst_at, burst_at + burst_len, burst_multiplier});
  }
  return std::make_unique<TraceReplayProfile>(
      base_lambda, diurnal_amplitude, diurnal_period, std::move(bursts));
}

}  // namespace icollect::workload
