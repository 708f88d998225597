/// \file icollect_sim.cpp
/// Command-line driver: run one indirect-collection session (and,
/// optionally, the fluid model and the direct baseline) for an arbitrary
/// key=value configuration and print the full report.
///
///   icollect_sim [key=value ...] [flags]    (--help lists them all)
///
/// Examples:
///   icollect_sim peers=300 lambda=20 s=20 mu=10 c=5
///   icollect_sim lambda=8 s=1 c=2 churn=2 fidelity=real-coding ode=0
///   icollect_sim peers=100 --metrics-out=run1 --trace-out --profile

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "common/cli.h"
#include "core/config_args.h"
#include "core/icollect.h"
#include "gf/kernels.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "workload/trace_replay.h"

int main(int argc, char** argv) {
  using namespace icollect;

  double warm = 10.0;
  double measure = 30.0;
  bool run_ode = true;
  bool run_direct = false;
  std::string scenario_arg;
  obs::TelemetryOptions topts;
  std::optional<std::string> trace_out;
  std::optional<proto::PullPolicyKind> pull_policy_override;
  std::string gf_kernel;

  p2p::ProtocolConfig cfg;
  cli::Flags flags{"[key=value ...] [flags]"};
  flags.section("protocol keys:");
  ConfigKeys keys{flags, cfg};
  flags.section("driver keys:")
      .add("warm", "T", "warm-up virtual time (default 10)", warm)
      .add("measure", "T", "measured virtual time (default 30)", measure)
      .add("ode", "0|1", "also solve the Sec. 3 fluid model (default 1)",
           run_ode)
      .add("direct", "0|1", "also run the direct baseline (default 0)",
           run_direct)
      .parsed("--pull-policy", "uniform|all|rarest|deficit",
              "server pull scheduling; overrides pull=",
              pull_policy_override, proto::parse_pull_policy_kind)
      .section("telemetry flags:")
      .add("--metrics-out", "DIR",
           "write a telemetry bundle (config.json,\n"
           "snapshots.jsonl/.csv, summary.json)",
           topts.metrics_dir)
      .add("--metrics-interval", "T",
           "snapshot spacing in virtual time (default 0.5)",
           topts.metrics_interval)
      .optional_value("--trace-out", "FILE",
           "protocol event trace JSONL (default\n"
           "<metrics-dir>/trace.jsonl)",
           trace_out)
      .add("--trace-filter", "a,b,..",
           "keep only these trace kinds (default all)", topts.trace_filter)
      .add("--profile", "0|1", "per-event-type wall-clock profile",
           topts.profile)
      .add("--progress", "", "progress line per snapshot (stderr)",
           topts.progress)
      .add("--gf-kernel", "K",
           "kernel set: scalar|ssse3|avx2|auto; GF(2^8)\n"
           "ops, RNG fill, CRC-32, integrity PRF\n"
           "(default auto; env ICOLLECT_GF_KERNEL)",
           gf_kernel)
      .section("scenario pack (docs/SCENARIOS.md):")
      .add("--scenario", "SPEC",
           "hostile scenario, class:key=value,...\n"
           "byzantine:fraction=,strategy=,checks=\n"
           "faults:fraction=,at=,heal=\n"
           "trace:amplitude=,period=,burst=,\n"
           "      burst-at=,burst-len=,sigma=,lifetime=",
           scenario_arg);
  flags.parse_or_exit(argc, argv);
  try {
    keys.finish();
  } catch (const std::exception& e) {
    flags.usage_error(e.what());
  }
  if (pull_policy_override) cfg.pull_policy = *pull_policy_override;
  if (!gf_kernel.empty() && !gf::Kernels::select_by_name(gf_kernel)) {
    flags.usage_error("--gf-kernel=" + gf_kernel +
                      ": unknown or unsupported on this CPU");
  }
  if (trace_out) {
    topts.trace_path = *trace_out;
    if (topts.trace_path.empty()) {
      if (topts.metrics_dir.empty()) {
        flags.usage_error(
            "--trace-out without a file needs --metrics-out=DIR to place "
            "trace.jsonl in");
      }
      topts.trace_path = topts.metrics_dir + "/trace.jsonl";
    }
  }
  if (topts.metrics_interval <= 0.0) {
    flags.usage_error("--metrics-interval must be > 0");
  }

  // A scenario adjusts the config before the system is built; fault
  // windows and arrival profiles attach right after construction.
  std::unique_ptr<workload::ScenarioSpec> scenario;
  if (!scenario_arg.empty()) {
    try {
      scenario = std::make_unique<workload::ScenarioSpec>(
          workload::ScenarioSpec::parse(scenario_arg));
    } catch (const std::exception& e) {
      flags.usage_error(e.what());
    }
    using Kind = workload::ScenarioSpec::Kind;
    switch (scenario->kind) {
      case Kind::kByzantine:
        scenario->apply_byzantine(cfg);
        break;
      case Kind::kFaults:
        break;  // attached to the network below
      case Kind::kTrace:
        if (scenario->mean_lifetime > 0.0) {
          cfg.churn.enabled = true;
          cfg.churn.mean_lifetime = scenario->mean_lifetime;
          cfg.churn.distribution = p2p::LifetimeDistribution::kLogNormal;
          cfg.churn.lognormal_sigma = scenario->lognormal_sigma;
        }
        break;
    }
    // A scenario can make a valid point inconsistent (byzantine peers
    // under state-counter fidelity): a usage error like a bad key.
    try {
      cfg.validate();
    } catch (const std::exception& e) {
      flags.usage_error(e.what());
    }
  }

  std::printf("config: %s gf-kernel=%s\n", describe(cfg).c_str(),
              gf::Kernels::active().name);
  std::printf("running: warm-up %.1f, measure %.1f ...\n\n", warm, measure);

  CollectionSystem system{cfg};
  std::unique_ptr<workload::ArrivalProfile> arrival;
  if (scenario) {
    using Kind = workload::ScenarioSpec::Kind;
    if (scenario->kind == Kind::kFaults) {
      system.network().set_isolation_window(scenario->partition_fraction,
                                            scenario->partition_at,
                                            scenario->heal_at);
    } else if (scenario->kind == Kind::kTrace) {
      arrival = scenario->make_arrival_profile(cfg.lambda);
      system.network().set_arrival_profile(arrival.get());
    }
  }
  std::unique_ptr<obs::Telemetry> telemetry;
  if (topts.any_enabled()) {
    try {
      telemetry = std::make_unique<obs::Telemetry>(topts);
    } catch (const std::exception& e) {
      flags.usage_error(std::string{"telemetry: "} + e.what());
    }
    system.attach_telemetry(*telemetry);
  }
  system.warm_up(warm);
  system.run(measure);
  const CollectionReport r = system.report();

  std::printf("-- indirect collection --\n");
  std::printf("throughput (useful blocks/t)  %10.2f   normalized %.4f\n",
              r.throughput, r.normalized_throughput);
  std::printf("goodput (decoded blocks/t)    %10.2f   normalized %.4f\n",
              r.goodput, r.normalized_goodput);
  std::printf("capacity bound (c/lambda)     %10.4f\n", r.capacity_bound);
  std::printf("block delay                   %10.4f   segment delay %.4f "
              "(max %.3f)\n",
              r.mean_block_delay, r.mean_segment_delay, r.max_segment_delay);
  std::printf("blocks/peer (rho)             %10.3f   overhead %.3f "
              "(bound %.1f)\n",
              r.mean_blocks_per_peer, r.storage_overhead, r.overhead_bound);
  std::printf("segments injected/decoded/lost %llu / %llu / %llu\n",
              static_cast<unsigned long long>(r.segments_injected),
              static_cast<unsigned long long>(r.segments_decoded),
              static_cast<unsigned long long>(r.segments_lost));
  std::printf("pulls %llu (redundant %.1f%%)   CRC failures %llu\n",
              static_cast<unsigned long long>(r.server_pulls),
              100.0 * r.redundancy_fraction(),
              static_cast<unsigned long long>(r.payload_crc_failures));
  std::printf("saved for future delivery     %10.0f blocks (rank-exact)\n",
              r.saved.saved_original_blocks_rank);
  if (cfg.churn.enabled) {
    const auto dep = system.network().departed_data_stats();
    std::printf("departed peers %llu, their data recovered %.1f%%\n",
                static_cast<unsigned long long>(dep.departed_origins),
                100.0 * dep.recovery_fraction());
  }

  if (scenario) {
    // Machine-readable scenario summary (only with --scenario, so the
    // default output — and its golden pins — stays byte-identical).
    const auto& m = system.network().metrics();
    obs::JsonObject sj;
    sj.field_raw("spec", scenario->to_json())
        .field("dishonest_peers", system.network().dishonest_count())
        .field("blocks_corrupted", m.blocks_corrupted)
        .field("blocks_quarantined", m.blocks_quarantined)
        .field("polluted_pulls", m.polluted_pulls)
        .field("gossip_blocked_isolated", m.gossip_blocked_isolated)
        .field("pulls_blocked_isolated", m.pulls_blocked_isolated)
        .field("segments_injected", r.segments_injected)
        .field("segments_decoded", r.segments_decoded)
        .field("normalized_throughput", r.normalized_throughput);
    std::printf("\n-- scenario --\n%s\n", sj.str().c_str());
  }

  if (cfg.pull_policy != proto::PullPolicyKind::kUniform &&
      cfg.pull_policy != proto::PullPolicyKind::kUniformAll) {
    // Machine-readable scheduling summary (only for the feedback-driven
    // policies, so default output — and its golden pins — is untouched).
    obs::JsonObject pj;
    pj.field_str("policy", to_string(cfg.pull_policy))
        .field("pulls", r.server_pulls)
        .field("redundant_fraction", r.redundancy_fraction())
        .field("segments_injected", r.segments_injected)
        .field("segments_decoded", r.segments_decoded);
    if (const auto* trk = system.network().pull_tracker()) {
      pj.field("open_segments", trk->open_count())
          .field("suspended_segments", trk->suspended_count());
    }
    std::printf("\n-- pull-policy --\n%s\n", pj.str().c_str());
  }

  if (telemetry) {
    telemetry->write_summary(to_json(r));
    std::printf("\n-- telemetry --\n");
    if (telemetry->snapshots_enabled()) {
      std::printf("bundle: %s (%zu snapshots every %.3g)\n",
                  telemetry->options().metrics_dir.c_str(),
                  telemetry->snapshotter().samples(),
                  telemetry->snapshotter().interval());
    }
    if (!telemetry->options().trace_path.empty()) {
      std::printf("trace: %llu events to %s (%llu filtered out, "
                  "%llu overwritten in ring)\n",
                  static_cast<unsigned long long>(
                      telemetry->trace().accepted()),
                  telemetry->options().trace_path.c_str(),
                  static_cast<unsigned long long>(
                      telemetry->trace().filtered_out()),
                  static_cast<unsigned long long>(
                      telemetry->trace().overwritten()));
    }
    if (telemetry->profiler() != nullptr) {
      std::printf("%s", telemetry->profiler()->table().c_str());
    }
  }

  if (run_ode) {
    const auto sol = CollectionSystem::analyze(cfg);
    std::printf("\n-- fluid model (Sec. 3 ODEs) --\n");
    std::printf("converged=%d  residual=%.2e\n",
                static_cast<int>(sol.convergence.converged),
                sol.convergence.residual);
    std::printf("rho %.3f | eta %.4f | normalized thr %.4f | delay %.4f | "
                "saved/peer %.2f\n",
                sol.rho(), sol.collection_efficiency(),
                sol.normalized_throughput(), sol.block_delay(),
                sol.saved_blocks_per_peer());
  }

  if (run_direct) {
    // The baseline is the same engine in its Fig. 1(a) configuration.
    // It shares the bundle directory under a "direct_" file prefix, so
    // one run yields a directly comparable pair of series.
    CollectionSystem direct = CollectionSystem::direct_baseline(cfg);
    std::unique_ptr<obs::Telemetry> direct_tel;
    if (telemetry && telemetry->snapshots_enabled()) {
      obs::TelemetryOptions dopts;
      dopts.metrics_dir = topts.metrics_dir;
      dopts.metrics_interval = topts.metrics_interval;
      dopts.profile = topts.profile;
      dopts.file_prefix = "direct_";
      direct_tel = std::make_unique<obs::Telemetry>(dopts);
      direct.attach_telemetry(*direct_tel);
    }
    direct.warm_up(warm);
    direct.run(measure);
    const CollectionReport d = direct.report();
    // Lifetime loss: reports refused at a full queue plus those a
    // departing peer still held.
    const auto& m = direct.network().metrics();
    const auto offered = direct.network().blocks_offered();
    const double loss =
        offered > 0 ? static_cast<double>(m.injection_blocked +
                                          m.blocks_lost_to_churn) /
                          static_cast<double>(offered)
                    : 0.0;
    std::printf("\n-- direct baseline (Fig. 1a) --\n");
    std::printf("normalized throughput %.4f | delay %.4f | loss %.4f\n",
                d.normalized_throughput, d.mean_block_delay, loss);
    if (direct_tel) {
      direct_tel->write_summary(to_direct_json(d));
      std::printf("telemetry: %zu direct snapshots in %s\n",
                  direct_tel->snapshotter().samples(),
                  topts.metrics_dir.c_str());
    }
  }
  return 0;
}
