#include "obs/metrics_registry.h"

#include <stdexcept>

namespace icollect::obs {

namespace {
[[noreturn]] void kind_mismatch(std::string_view name) {
  throw std::invalid_argument("MetricsRegistry: '" + std::string(name) +
                              "' already registered as a different kind");
}
}  // namespace

const MetricsRegistry::Metric* MetricsRegistry::find(
    std::string_view name) const {
  const auto it = index_.find(std::string(name));
  return it == index_.end() ? nullptr : &metrics_[it->second];
}

MetricsRegistry::Metric& MetricsRegistry::create(std::string_view name,
                                                 Kind kind) {
  index_.emplace(std::string(name), metrics_.size());
  Metric& m = metrics_.emplace_back();
  m.name = std::string(name);
  m.kind = kind;
  return m;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  if (const Metric* m = find(name)) {
    if (m->kind != Kind::kCounter) kind_mismatch(name);
    return *m->counter;
  }
  Metric& m = create(name, Kind::kCounter);
  m.counter = std::make_unique<Counter>();
  return *m.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  if (const Metric* m = find(name)) {
    if (m->kind != Kind::kGauge) kind_mismatch(name);
    return *m->gauge;
  }
  Metric& m = create(name, Kind::kGauge);
  m.gauge = std::make_unique<Gauge>();
  return *m.gauge;
}

Gauge& MetricsRegistry::gauge(std::string_view name,
                              Gauge::Provider provider) {
  Gauge& g = gauge(name);
  g.set_provider(std::move(provider));
  return g;
}

stats::LatencyHistogram& MetricsRegistry::latency(std::string_view name) {
  if (const Metric* m = find(name)) {
    if (m->kind != Kind::kLatency) kind_mismatch(name);
    return *m->latency;
  }
  Metric& m = create(name, Kind::kLatency);
  m.latency = std::make_unique<stats::LatencyHistogram>();
  return *m.latency;
}

bool MetricsRegistry::contains(std::string_view name) const {
  return find(name) != nullptr;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const Metric* m = find(name);
  return m != nullptr && m->kind == Kind::kCounter ? m->counter.get()
                                                   : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const Metric* m = find(name);
  return m != nullptr && m->kind == Kind::kGauge ? m->gauge.get() : nullptr;
}

const stats::LatencyHistogram* MetricsRegistry::find_latency(
    std::string_view name) const {
  const Metric* m = find(name);
  return m != nullptr && m->kind == Kind::kLatency ? m->latency.get()
                                                   : nullptr;
}

void MetricsRegistry::for_each_sample(
    const std::function<void(std::string_view, double)>& fn) const {
  for (const Metric& m : metrics_) {
    switch (m.kind) {
      case Kind::kCounter:
        fn(m.name, static_cast<double>(m.counter->value()));
        break;
      case Kind::kGauge:
        fn(m.name, m.gauge->value());
        break;
      case Kind::kLatency: {
        const stats::LatencyHistogram& h = *m.latency;
        fn(m.name + ".count", static_cast<double>(h.count()));
        fn(m.name + ".p50", h.quantile_seconds(0.50));
        fn(m.name + ".p90", h.quantile_seconds(0.90));
        fn(m.name + ".p99", h.quantile_seconds(0.99));
        fn(m.name + ".max", h.max_seconds());
        break;
      }
    }
  }
}

void MetricsRegistry::reset() {
  for (Metric& m : metrics_) {
    switch (m.kind) {
      case Kind::kCounter:
        m.counter->reset();
        break;
      case Kind::kGauge:
        m.gauge->reset();
        break;
      case Kind::kLatency:
        m.latency->reset();
        break;
    }
  }
}

std::vector<std::string> MetricsRegistry::sample_names() const {
  std::vector<std::string> out;
  out.reserve(metrics_.size());
  for_each_sample(
      [&out](std::string_view name, double) { out.emplace_back(name); });
  return out;
}

}  // namespace icollect::obs
