#pragma once

/// \file network_telemetry.h
/// Bridge from the simulation engine to the observability layer:
/// register pull-based gauges for every NetworkMetrics counter, the
/// derived Theorem 1-4 steady-state estimates, and the
/// DepartedDataStats recovery accounting, onto an obs::MetricsRegistry.
/// Pull-based means the engine's hot path is untouched — values are read
/// only when a Snapshotter samples.
///
/// Lifetime: the engine must outlive the registry (the gauges capture a
/// reference to it).

#include "obs/metrics_registry.h"

namespace icollect::p2p {

class Network;

/// Register the engine's metrics under the "net." prefix (the indirect
/// scheme and the direct baseline alike).
void register_network_metrics(obs::MetricsRegistry& registry,
                              const Network& net);

}  // namespace icollect::p2p
