#!/usr/bin/env python3
"""End-to-end smoke for the pull-scheduling subsystem (docs/PULL_POLICIES.md).

Runs each pull policy through BOTH drivers (the event simulator
`icollect_sim` and the live loopback cluster `icollect_cluster`) with a
fixed seed and validates the machine-readable scheduling summary each
tool emits only for the feedback-driven policies:

  uniform   no scheduling block at all — the default output (and its
            golden pins) must be untouched;
  rarest    the '-- pull-policy --' / "pull_policy" block appears, the
            feedback loop ran (summaries flowed live), and reruns under
            the same seed are byte-identical;
  deficit   same, under deficit-weighted sampling.

Every CLI (including `icollect_node`) must reject an unknown policy
name with exit 2, and the live ones (`icollect_cluster`, `icollect_node`)
must reject the simulator-only `all` (uniform-all) the same way.

With --validate, schema-checks the committed BENCH_pulls.json table,
including the headline claim: both feedback policies beat uniform on
mean pulls-to-completion with non-overlapping 95% CIs in at least one
point per driver. It then requires `icollect_pulls --out` with an
unwritable path to exit 2 before any replica runs, re-runs the full
table and requires its stdout to equal the committed file byte for byte.

Usage:
  check_pulls.py <icollect_sim> <icollect_cluster> <icollect_node>
  check_pulls.py --validate <BENCH_pulls.json> <icollect_pulls>
"""

import json
import sys

from checklib import (check, check_bad_out_fails_fast, check_regenerates,
                      json_after, last_json_line, run, usage, usage_error)

SIM_BASE = [
    "peers=24", "lambda=8", "s=4", "mu=8", "gamma=1", "buffer=32",
    "servers=2", "server_rate=24", "seed=7", "warm=1",
    "measure=6", "ode=0", "direct=0", "--gf-kernel=scalar",
]

CLUSTER_BASE = [
    "--peers", "8", "--servers", "2", "--segment-size", "3",
    "--buffer-cap", "24", "--payload-bytes", "16",
    "--segments-per-peer", "2", "--seed", "9", "--max-time", "300",
]

SIM_POLICY_KEYS = {
    "policy", "pulls", "redundant_fraction", "segments_injected",
    "segments_decoded", "open_segments", "suspended_segments",
}

CLUSTER_POLICY_KEYS = {"policy", "summaries_received", "targeted_pulls"}

SUMMARY_KEYS = {"mean", "stddev", "ci95", "min", "max"}


def sim_policy_block(out: str) -> dict | None:
    """The JSON object after the '-- pull-policy --' banner, if any."""
    return json_after(out, "-- pull-policy --")


def cluster_json(out: str) -> dict:
    return last_json_line(out, "cluster output")


def check_sim(sim: str) -> None:
    print("== simulator ==")

    print("uniform:")
    out = run([sim, *SIM_BASE])
    check(sim_policy_block(out) is None,
          "default output carries no pull-policy block")

    print("rarest:")
    cmd = [sim, *SIM_BASE, "--pull-policy=rarest"]
    out = run(cmd)
    s = sim_policy_block(out)
    check(s is not None, "pull-policy block present")
    check(set(s) == SIM_POLICY_KEYS, "pull-policy block schema")
    check(s["policy"] == "rarest", "policy is named")
    check(s["pulls"] > 0, "servers pulled")
    check(0.0 <= s["redundant_fraction"] <= 1.0,
          "redundant fraction in range")

    print("rarest determinism:")
    check(run(cmd) == out, "same seed, byte-identical rerun")

    print("deficit (via config key):")
    s = sim_policy_block(run([sim, *SIM_BASE, "pull=deficit"]))
    check(s is not None and s["policy"] == "deficit",
          "pull=deficit selects deficit-weighted")

    print("bad policy rejected:")
    run([sim, *SIM_BASE, "--pull-policy=round-robin"], expect_exit=2)
    print("  ok: unknown policy exits 2")


def check_cluster(cluster: str, node: str) -> None:
    print("== cluster ==")

    print("uniform:")
    r = cluster_json(run([cluster, *CLUSTER_BASE]))
    check("pull_policy" not in r,
          "default report carries no pull_policy block")
    check(r["complete"] is True, "uniform run completed")

    print("rarest:")
    cmd = [cluster, *CLUSTER_BASE, "--pull-policy", "rarest"]
    out = run(cmd)
    r = cluster_json(out)
    s = r.get("pull_policy")
    check(s is not None, "pull_policy block present")
    check(set(s) == CLUSTER_POLICY_KEYS, "pull_policy block schema")
    check(s["policy"] == "rarest", "policy is named")
    check(s["summaries_received"] > 0, "BUFFER_SUMMARY feedback flowed")
    check(r["complete"] is True, "rarest run completed")

    print("rarest determinism:")
    check(run(cmd) == out, "same seed, byte-identical rerun")

    print("deficit:")
    r = cluster_json(run(
        [cluster, *CLUSTER_BASE, "--pull-policy", "deficit-weighted"]))
    check(r["pull_policy"]["policy"] == "deficit",
          "long form selects deficit-weighted")
    check(r["complete"] is True, "deficit run completed")

    print("bad policy rejected:")
    run([cluster, *CLUSTER_BASE, "--pull-policy", "round-robin"],
        expect_exit=2)
    print("  ok: cluster rejects unknown policy with exit 2")
    run([node, "--pull-policy", "round-robin"], expect_exit=2)
    print("  ok: node rejects unknown policy with exit 2")
    err = usage_error([cluster, *CLUSTER_BASE, "--pull-policy", "all"],
                      "cluster --pull-policy all")
    check("simulator-only" in err,
          "cluster rejects the simulator-only policy with exit 2")
    # Validation precedes any socket work, so nothing is dialed.
    err = usage_error([node, "--role", "server", "--connect",
                       "127.0.0.1:9", "--pull-policy", "all"],
                      "node --pull-policy all")
    check("simulator-only" in err,
          "node rejects the simulator-only policy with exit 2")


def validate_bench(path: str) -> None:
    """Schema + separation gate for the committed BENCH_pulls.json."""
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    check(d.get("schema") == "icollect-pulls-bench-v1",
          "schema tag present")
    check(d["replicas"] >= 2, "at least two replicas per point")

    for table in ("simulator", "cluster"):
        tab = d[table]
        check(len(tab["points"]) >= 3, f"{table} table has >= 3 points")
        separated = set()
        by_point: dict[tuple, dict[str, dict]] = {}
        for p in tab["points"]:
            m = p["metrics"]
            for name, summary in m.items():
                check(set(summary) == SUMMARY_KEYS,
                      f"{table} {name} has mean/stddev/ci95/min/max")
            check("pulls_to_completion" in m,
                  f"{table} point reports pulls_to_completion")
            ident = (p["s"], p["peers"], p.get("segments_per_peer"))
            by_point.setdefault(ident, {})[p["policy"]] = m
        for ident, arms in by_point.items():
            uniform = arms.get("uniform")
            check(uniform is not None,
                  f"{table} point {ident} has a uniform control")
            hi = (uniform["pulls_to_completion"]["mean"] -
                  uniform["pulls_to_completion"]["ci95"])
            for name, m in arms.items():
                if name == "uniform":
                    continue
                check(name in ("rarest", "deficit"),
                      f"{table} arm {name} is a known policy")
                lo = (m["pulls_to_completion"]["mean"] +
                      m["pulls_to_completion"]["ci95"])
                if lo < hi:
                    separated.add(name)
        check(len(separated) >= 2,
              f"{table}: both feedback policies beat uniform with "
              "non-overlapping 95% CIs in at least one point")


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) == 3 and argv[0] == "--validate":
        validate_bench(argv[1])
        check_bad_out_fails_fast(argv[2], ("sim:", "cluster:"))
        check_regenerates(argv[1], [argv[2]])
        print("bench table OK")
        return 0
    if len(argv) != 3:
        usage(__doc__)
    sim, cluster, node = argv
    check_sim(sim)
    check_cluster(cluster, node)
    print("pull-policy smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
