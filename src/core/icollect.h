#pragma once

/// \file icollect.h
/// Umbrella header: the full public API of the indirect-collection
/// library. Downstream users include this one header.
///
/// Layering (each layer usable on its own):
///   gf/        GF(2^8) arithmetic, vectors, matrices
///   coding/    RLNC coded blocks, recoding buffers, progressive decoder
///   sim/       discrete-event kernel (clock, events, RNG, processes)
///   stats/     summaries, latency histograms, time-weighted signals
///   workload/  vital-statistics records, packers, traffic profiles
///   p2p/       the protocol engine + the direct-collection baseline
///   ode/       the Sec. 3 fluid model and Theorem 1-4 closed forms
///   core/      CollectionSystem facade + CollectionReport

#include "coding/batch_decoder.h"
#include "coding/coded_block.h"
#include "coding/decoder.h"
#include "coding/segment_buffer.h"
#include "coding/segment_id.h"
#include "core/collection_system.h"
#include "core/config_args.h"
#include "core/report.h"
#include "gf/gf256.h"
#include "gf/gf_matrix.h"
#include "gf/gf_vector.h"
#include "ode/closed_form.h"
#include "ode/indirect_ode.h"
#include "ode/rk4.h"
#include "proto/peer_buffer.h"
#include "proto/peer_core.h"
#include "proto/policy.h"
#include "proto/pull_policy.h"
#include "proto/selection.h"
#include "proto/server_bank.h"
#include "proto/server_core.h"
#include "proto/trace.h"
#include "p2p/churn.h"
#include "p2p/config.h"
#include "p2p/metrics.h"
#include "p2p/network.h"
#include "p2p/topology.h"
#include "sim/event_queue.h"
#include "sim/poisson_process.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "stats/csv.h"
#include "stats/summary.h"
#include "stats/time_series.h"
#include "workload/generators.h"
#include "workload/record_store.h"
#include "workload/stats_record.h"
