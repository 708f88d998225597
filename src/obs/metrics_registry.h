#pragma once

/// \file metrics_registry.h
/// Central registry of named metrics — counters, gauges and
/// exponential-bucket latency histograms — that the Snapshotter samples
/// into time series.
///
/// Design rules:
///  - Registration (cold path) hands back a stable reference; the hot
///    path then touches only that object — a Counter::inc() is a single
///    integer add, and instrumentation sites that may run without
///    telemetry hold a possibly-null pointer so the disabled cost is one
///    branch.
///  - Gauges can be *pull-based*: register a provider callback and the
///    value is computed only when a snapshot is taken, so instrumenting
///    an engine costs nothing per event (this is how p2p::Network's
///    NetworkMetrics are exported — see p2p/network_telemetry.h).
///  - Export order is registration order, so snapshot columns are stable
///    within a run.
///  - Re-registering a name with the *same* metric kind is find-or-create
///    (the original object is returned); re-registering it as a
///    *different* kind throws std::invalid_argument — two subsystems
///    silently sharing one column under different semantics is the bug
///    this catches (see tests/obs_metrics_registry_test.cpp).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "stats/latency_histogram.h"

namespace icollect::obs {

/// Monotonic event count. Hot-path handle: inc() is one add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous value: either set push-style or computed on demand by a
/// provider callback (pull-style; zero hot-path cost).
class Gauge {
 public:
  using Provider = std::function<double()>;

  void set(double v) noexcept { value_ = v; }
  void set_provider(Provider p) { provider_ = std::move(p); }
  [[nodiscard]] double value() const {
    return provider_ ? provider_() : value_;
  }
  /// Zero the pushed value. A provider, if set, is kept — pull gauges
  /// read live state and have nothing to reset.
  void reset() noexcept { value_ = 0.0; }

 private:
  double value_ = 0.0;
  Provider provider_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned reference is stable for the registry's
  /// lifetime. Throws std::invalid_argument if `name` is already
  /// registered as a different metric kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Convenience: register a pull-based gauge in one call.
  Gauge& gauge(std::string_view name, Gauge::Provider provider);
  /// Exponential-bucket latency histogram (records seconds, exports
  /// <name>.count/.p50/.p90/.p99/.max in seconds).
  stats::LatencyHistogram& latency(std::string_view name);

  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }
  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const stats::LatencyHistogram* find_latency(
      std::string_view name) const;

  /// Visit every exported sample in registration order. Counters and
  /// gauges export one value under their own name; a latency histogram
  /// expands into <name>.count, <name>.p50, <name>.p90, <name>.p99 and
  /// <name>.max.
  void for_each_sample(
      const std::function<void(std::string_view name, double value)>& fn)
      const;

  /// The exported column names, in for_each_sample order.
  [[nodiscard]] std::vector<std::string> sample_names() const;

  /// Zero every metric's *values* for test isolation: counters to 0,
  /// latency histograms cleared, pushed gauge values to 0. Registrations,
  /// handed-out references, gauge providers, and export order all
  /// survive — only the accumulated samples are discarded.
  void reset();

 private:
  enum class Kind { kCounter, kGauge, kLatency };
  struct Metric {
    std::string name;
    Kind kind{};
    // Exactly one is non-null; unique_ptr keeps addresses stable across
    // vector growth.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<stats::LatencyHistogram> latency;
  };

  [[nodiscard]] const Metric* find(std::string_view name) const;
  Metric& create(std::string_view name, Kind kind);

  std::vector<Metric> metrics_;  // registration order
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace icollect::obs
