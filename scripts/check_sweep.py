#!/usr/bin/env python3
"""End-to-end determinism check of the sweep CLI across worker counts.

Runs `icollect_sweep` twice with identical (seed, grid, replicas) but
different `--jobs` values, then asserts:

  * both runs exit cleanly and emit one JSONL row per grid cell;
  * every row parses and carries the contract keys (cell, label, seed,
    replicas, config, aggregate with per-metric mean/stddev/ci95);
  * the two output files are BYTE-identical — the replica engine's
    central promise: the worker count must never influence results;
  * a third run with a different seed differs (the comparison is not
    vacuously passing on constant output).

Usage: check_sweep.py /path/to/icollect_sweep
Exits nonzero with a message on the first failed check.
"""

import json
import os
import subprocess
import sys
import tempfile

from checklib import fail, usage

GRID = [
    "--grid-s=1,4",
    "--grid-c=2,4",
    "--replicas=3",
    "--warm=1",
    "--measure=2",
    "peers=30",
    "lambda=10",
    "mu=5",
]
EXPECTED_CELLS = 4  # |grid-s| x |grid-c|

AGGREGATE_STAT_KEYS = {"mean", "stddev", "ci95", "min", "max"}


def run_sweep(binary, out, seed, jobs):
    cmd = [binary, f"--seed={seed}", f"--jobs={jobs}", f"--out={out}", *GRID]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    with open(out, "rb") as f:
        return f.read()


def check_rows(raw):
    lines = raw.decode("utf-8").strip().split("\n")
    if len(lines) != EXPECTED_CELLS:
        fail(f"expected {EXPECTED_CELLS} JSONL rows, got {len(lines)}")
    for i, line in enumerate(lines):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"row {i} is not valid JSON: {e}")
        for key in ("cell", "label", "seed", "replicas", "config",
                    "aggregate"):
            if key not in row:
                fail(f"row {i} missing key '{key}'")
        if row["cell"] != i:
            fail(f"row {i} carries cell index {row['cell']}")
        agg = row["aggregate"]
        if agg.get("replicas") != row["replicas"]:
            fail(f"row {i}: aggregate replica count mismatch")
        metrics = agg.get("metrics", {})
        if "normalized_throughput" not in metrics:
            fail(f"row {i}: aggregate missing normalized_throughput")
        for name, stats in metrics.items():
            missing = AGGREGATE_STAT_KEYS - set(stats)
            if missing:
                fail(f"row {i}: metric '{name}' missing {sorted(missing)}")


def main():
    if len(sys.argv) != 2:
        usage("usage: check_sweep.py /path/to/icollect_sweep")
    binary = sys.argv[1]
    if not os.path.exists(binary):
        fail(f"sweep binary not found: {binary} (build the repo first)")

    with tempfile.TemporaryDirectory(prefix="icollect_sweep_check_") as tmp:
        serial = run_sweep(binary, os.path.join(tmp, "j1.jsonl"), 42, 1)
        parallel = run_sweep(binary, os.path.join(tmp, "j8.jsonl"), 42, 8)
        reseeded = run_sweep(binary, os.path.join(tmp, "j8b.jsonl"), 43, 8)

    check_rows(serial)
    if serial != parallel:
        fail("--jobs=1 and --jobs=8 outputs differ: the replica engine "
             "broke its byte-determinism contract")
    if serial == reseeded:
        fail("changing --seed did not change the output: the determinism "
             "comparison is vacuous")
    print(f"check_sweep: OK ({EXPECTED_CELLS} cells byte-identical across "
          "--jobs=1/8; seed sensitivity confirmed)")


if __name__ == "__main__":
    main()
