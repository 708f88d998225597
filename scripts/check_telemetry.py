#!/usr/bin/env python3
"""End-to-end validation of an icollect_sim telemetry bundle.

Runs the simulator CLI with every telemetry flag enabled, then checks
that the emitted bundle is complete and self-consistent:

  config.json       parses; carries the seed and peer count
  snapshots.jsonl   >= 10 rows; required columns; nondecreasing t
  snapshots.csv     same series as the JSONL (+ header row)
  trace.jsonl       parses; kinds stay within the requested filter
  summary.json      parses; carries the headline report metrics
  profile.json      parses; names the GF kernel; every scope has
                    count/total_ns

Usage: check_telemetry.py /path/to/icollect_sim [bundle_dir]
Exits nonzero with a message on the first failed check.
"""

import json
import os
import shutil
import sys
import tempfile

from checklib import fail, parse_jsonl, require, run, usage

REQUIRED_SNAPSHOT_KEYS = [
    "t",
    "net.segments_injected",
    "net.gossip_sent",
    "net.blocks_per_peer",
    "net.throughput",
]

TRACE_FILTER = ["gossip", "pull", "decode", "gossip-lost"]


def load_json_file(path):
    require(os.path.exists(path), f"missing {path}")
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path} is not valid JSON: {e}")


def main():
    if len(sys.argv) < 2:
        usage("usage: check_telemetry.py /path/to/icollect_sim [bundle_dir]")
    sim = sys.argv[1]
    require(os.path.exists(sim), f"simulator binary not found: {sim}")

    if len(sys.argv) > 2:
        bundle = sys.argv[2]
        cleanup = False
    else:
        bundle = tempfile.mkdtemp(prefix="icollect_telemetry_")
        cleanup = True

    cmd = [
        sim,
        "peers=60", "lambda=8", "s=4", "mu=10", "c=3", "buffer=40",
        "churn=20", "warm=2", "measure=8", "ode=0",
        f"--metrics-out={bundle}",
        "--metrics-interval=0.5",
        "--trace-out",
        f"--trace-filter={','.join(TRACE_FILTER)}",
        "--profile",
    ]
    run(cmd, timeout=240)

    # -- config.json ------------------------------------------------------
    config = load_json_file(os.path.join(bundle, "config.json"))
    require("seed" in config, "config.json lacks 'seed'")
    require(config.get("gf_kernel") in ("scalar", "ssse3", "avx2"),
            f"config.json gf_kernel invalid: {config.get('gf_kernel')!r}")
    require(config.get("peers") == 60, "config.json peer count mismatch")
    require(isinstance(config.get("churn"), dict) and config["churn"]["enabled"],
            "config.json churn echo wrong")

    # -- snapshots.jsonl --------------------------------------------------
    snaps = parse_jsonl(os.path.join(bundle, "snapshots.jsonl"),
                        "snapshots.jsonl")
    require(len(snaps) >= 10,
            f"expected >= 10 snapshots, got {len(snaps)}")
    for key in REQUIRED_SNAPSHOT_KEYS:
        require(all(key in row for row in snaps),
                f"snapshot rows lack required key '{key}'")
    times = [row["t"] for row in snaps]
    require(all(b >= a for a, b in zip(times, times[1:])),
            "snapshot times are not nondecreasing")
    require(snaps[-1]["net.segments_injected"] >=
            snaps[0]["net.segments_injected"],
            "lifetime counter decreased across snapshots")

    # -- snapshots.csv ----------------------------------------------------
    csv_path = os.path.join(bundle, "snapshots.csv")
    require(os.path.exists(csv_path), "missing snapshots.csv")
    with open(csv_path) as f:
        csv_lines = [ln for ln in f.read().splitlines() if ln]
    require(len(csv_lines) == len(snaps) + 1,
            f"CSV rows ({len(csv_lines)}) != JSONL rows + header "
            f"({len(snaps) + 1})")
    header = csv_lines[0].split(",")
    require(header[0] == "t" and "net.throughput" in header,
            f"unexpected CSV header: {csv_lines[0][:120]}")

    # -- trace.jsonl ------------------------------------------------------
    trace = parse_jsonl(os.path.join(bundle, "trace.jsonl"), "trace.jsonl")
    require(len(trace) > 0, "trace.jsonl is empty")
    kinds = {ev["kind"] for ev in trace}
    require(kinds <= set(TRACE_FILTER),
            f"trace contains kinds outside the filter: "
            f"{kinds - set(TRACE_FILTER)}")
    for ev in trace[:100]:
        for key in ("t", "kind", "slot", "origin", "seq", "aux"):
            require(key in ev, f"trace event lacks '{key}': {ev}")

    # -- summary.json -----------------------------------------------------
    summary = load_json_file(os.path.join(bundle, "summary.json"))
    for key in ("throughput", "normalized_throughput", "segments_injected",
                "saved"):
        require(key in summary, f"summary.json lacks '{key}'")

    # -- profile.json -----------------------------------------------------
    profile = load_json_file(os.path.join(bundle, "profile.json"))
    require(profile.get("gf_kernel") == config["gf_kernel"],
            "profile.json gf_kernel disagrees with config.json")
    scopes = profile.get("scopes")
    require(isinstance(scopes, dict) and len(scopes) > 0,
            "profile.json lacks a non-empty 'scopes' object")
    for scope, stat in scopes.items():
        require("count" in stat and "total_ns" in stat,
                f"profile scope '{scope}' lacks count/total_ns")
    require(any(stat["count"] > 0 for stat in scopes.values()),
            "profiler recorded no events")

    if cleanup:
        shutil.rmtree(bundle, ignore_errors=True)
    print(f"check_telemetry: OK ({len(snaps)} snapshots, "
          f"{len(trace)} trace events, {len(scopes)} profiled scopes, "
          f"gf_kernel={profile['gf_kernel']})")


if __name__ == "__main__":
    main()
