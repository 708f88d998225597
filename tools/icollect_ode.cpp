/// \file icollect_ode.cpp
/// Standalone fluid-model evaluator: solve the Sec. 3 ODE systems for a
/// configuration and optionally sweep one parameter, printing every
/// Theorem 1-4 metric per point. No simulation is run — this is the
/// paper's analysis as a calculator.
///
///   icollect_ode lambda=20 mu=10 gamma=1 c=5 s=10
///   icollect_ode lambda=20 mu=10 c=5 sweep=s from=1 to=40 step=5
///   icollect_ode lambda=8 c=2 s=1 churn=2 sweep=mu from=2 to=18 step=4
///
/// Protocol-style keys (lambda, mu, gamma, c, s, churn) mirror the
/// simulator CLI; sweep=s|mu|c|lambda|gamma selects the swept axis.
/// --metrics-out=DIR writes the sweep as a machine-readable bundle
/// (config.json + sweep.jsonl, one JSON object per evaluated point).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "obs/json.h"
#include "ode/closed_form.h"
#include "ode/indirect_ode.h"

namespace {

using icollect::ode::IndirectOde;
using icollect::ode::OdeParams;

/// Set the swept key (a sweep= choice) to `v`.
void apply(OdeParams& p, const std::string& key, double v) {
  if (key == "lambda") {
    p.lambda = v;
  } else if (key == "mu") {
    p.mu = v;
  } else if (key == "gamma") {
    p.gamma = v;
  } else if (key == "c") {
    p.c = v;
  } else if (key == "s") {
    p.s = static_cast<std::size_t>(v);
  } else if (key == "B") {
    p.B = static_cast<std::size_t>(v);
  } else if (key == "churn") {
    p.churn_rate = v > 0.0 ? 1.0 / v : 0.0;  // given as mean lifetime
  }
}

void print_header() {
  std::printf("%10s %8s %8s %8s %10s %8s %10s %8s\n", "point", "rho",
              "z0", "eta", "norm thr", "delay", "saved/pr", "conv");
}

void print_point(const std::string& label, const OdeParams& p,
                 std::ofstream* jsonl) {
  const auto sol = IndirectOde{p}.solve();
  std::printf("%10s %8.3f %8.5f %8.4f %10.4f %8.4f %10.3f %8s\n",
              label.c_str(), sol.rho(), sol.z0,
              sol.collection_efficiency(), sol.normalized_throughput(),
              sol.block_delay(), sol.saved_blocks_per_peer(),
              sol.convergence.converged ? "yes" : "NO");
  if (jsonl != nullptr && jsonl->is_open()) {
    icollect::obs::JsonObject o;
    o.field_str("point", label)
        .field("lambda", p.lambda)
        .field("mu", p.mu)
        .field("gamma", p.gamma)
        .field("c", p.c)
        .field("s", p.s)
        .field("rho", sol.rho())
        .field("z0", sol.z0)
        .field("eta", sol.collection_efficiency())
        .field("normalized_throughput", sol.normalized_throughput())
        .field("block_delay", sol.block_delay())
        .field("saved_blocks_per_peer", sol.saved_blocks_per_peer())
        .field("converged", sol.convergence.converged)
        .field("residual", sol.convergence.residual);
    *jsonl << o.str() << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  OdeParams p;
  std::string sweep;
  std::string metrics_dir;
  double from = 0.0;
  double to = 0.0;
  double step = 1.0;
  std::optional<double> churn;

  icollect::cli::Flags flags{"[key=value ...]"};
  flags.section("keys:")
      .add("lambda", "X", "per-peer block rate", p.lambda)
      .add("mu", "X", "per-peer gossip rate", p.mu)
      .add("gamma", "X", "per-block TTL expiry rate", p.gamma)
      .add("c", "X", "normalized server capacity", p.c)
      .add("s", "N", "segment size", p.s)
      .add("B", "N", "peer buffer cap (0 = auto)", p.B)
      .add("churn", "E[L]", "mean peer lifetime (0 = no churn)", churn)
      .section("sweep:")
      .choice("sweep", "swept key", sweep,
              {{"s", "s"}, {"mu", "mu"}, {"c", "c"}, {"lambda", "lambda"},
               {"gamma", "gamma"}, {"B", "B"}, {"churn", "churn"}})
      .add("from", "A", "first value", from)
      .add("to", "B", "last value", to)
      .add("step", "D", "increment", step)
      .section("output:")
      .add("--metrics-out", "DIR", "write config.json + sweep.jsonl",
           metrics_dir);
  flags.parse_or_exit(argc, argv);
  if (churn) apply(p, "churn", *churn);

  try {
    p.validate();
  } catch (const std::exception& e) {
    flags.usage_error(e.what());
  }

  std::printf(
      "fluid model: lambda=%.3g mu=%.3g gamma=%.3g c=%.3g s=%zu "
      "churn_rate=%.3g\n",
      p.lambda, p.mu, p.gamma, p.c, p.s, p.churn_rate);
  std::printf("closed forms (s=1): rho=%.3f overhead=%.3f thr=%.4f\n\n",
              icollect::ode::closed_form::rho(p.lambda, p.mu,
                                              p.gamma_eff()),
              icollect::ode::closed_form::storage_overhead(
                  p.lambda, p.mu, p.gamma_eff()),
              p.c > 0.0 ? icollect::ode::closed_form::
                              normalized_throughput_noncoding(
                                  p.lambda, p.mu, p.gamma_eff(), p.c)
                        : 0.0);

  std::ofstream sweep_jsonl;
  if (!metrics_dir.empty()) {
    std::filesystem::create_directories(metrics_dir);
    icollect::obs::JsonObject cfg;
    cfg.field("lambda", p.lambda)
        .field("mu", p.mu)
        .field("gamma", p.gamma)
        .field("c", p.c)
        .field("s", p.s)
        .field("B", p.B)
        .field("churn_rate", p.churn_rate)
        .field_str("sweep", sweep)
        .field("from", from)
        .field("to", to)
        .field("step", step);
    std::ofstream cfg_out{metrics_dir + "/config.json"};
    cfg_out << cfg.str() << '\n';
    sweep_jsonl.open(metrics_dir + "/sweep.jsonl");
    if (!sweep_jsonl) {
      std::fprintf(stderr, "cannot open %s/sweep.jsonl\n",
                   metrics_dir.c_str());
      return 1;
    }
  }

  print_header();
  if (sweep.empty()) {
    print_point("-", p, &sweep_jsonl);
    return 0;
  }
  if (step <= 0.0 || to < from) flags.usage_error("bad sweep range");
  for (double v = from; v <= to + 1e-9; v += step) {
    OdeParams q = p;
    apply(q, sweep, v);
    char label[32];
    std::snprintf(label, sizeof(label), "%s=%g", sweep.c_str(), v);
    print_point(label, q, &sweep_jsonl);
  }
  return 0;
}
