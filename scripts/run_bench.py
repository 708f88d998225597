#!/usr/bin/env python3
"""Run the GF(2^8) kernel micro-benchmarks and distill the results into a
machine-readable baseline (BENCH_gf_kernels.json).

The benchmark binaries register each bulk primitive once per kernel the
CPU supports ("BM_AddScaled<avx2>/4096"); this script runs them with
google-benchmark's JSON reporter, groups the series by (operation,
kernel, size), and emits:

  {
    "schema": "icollect-gf-bench/1",
    "kernels": ["scalar", "ssse3", ...],          # as measured
    "bulk_mb_per_s": {op: {kernel: {size: MB/s}}},
    "decode_blocks_per_s": {kernel: {s: blocks/s}},
    "speedup_vs_scalar": {op: {kernel: x}},       # at the largest size
  }

Also covers the live-node transport: `--node` drives icollect_loadgen
fan-in against one icollect_node server per (mode, connection-count)
case and writes BENCH_node.json:

  {
    "schema": "icollect-node-bench/1",
    "cases": [ {mode, conns, pull_rate_demanded, frames_per_s,
                pull_round_trips_per_s, server_cpu_s,
                frames_per_server_cpu_s, server_pull_rtt_s, ...} ],
  }

Two regimes: "saturation" cases demand more pulls than either side can
serve (end-to-end frames/s), and the "efficiency" case demands a rate
the server meets across many mostly-idle connections, where frames per
server-CPU-second shows what each wakeup costs.

Usage:
  run_bench.py [--build-dir DIR] [--out FILE] [--quick]
  run_bench.py --validate FILE          # schema check only, no benchmarks
  run_bench.py --node [--node-out FILE] [--quick]
  run_bench.py --validate-node FILE

--quick shortens the measurement window (CI smoke); the committed
baseline should be produced without it. Exits nonzero on any failure.
"""

import argparse
import json
import os
import re
import socket
import subprocess
import sys
import time

SCHEMA = "icollect-gf-bench/1"
NODE_SCHEMA = "icollect-node-bench/1"
NAME_RE = re.compile(r"^BM_(\w+)<(\w+)>/(\d+)$")
BULK_OPS = ("AddScaled", "ScaleAssign", "AddAssign", "Dot")


def fail(msg):
    print(f"run_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_benchmark(binary, bench_filter, min_time):
    if not os.path.exists(binary):
        fail(f"benchmark binary not found: {binary} (build the repo first)")
    cmd = [
        binary,
        f"--benchmark_filter={bench_filter}",
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"{binary} did not emit valid JSON: {e}")


def parse_series(report):
    """-> {(op, kernel, size): benchmark-entry} for kernel-tagged runs."""
    out = {}
    for entry in report.get("benchmarks", []):
        m = NAME_RE.match(entry.get("name", ""))
        if m:
            out[(m.group(1), m.group(2), int(m.group(3)))] = entry
    return out


def build_baseline(gf_series, codec_series):
    kernels = sorted({k for (_, k, _) in gf_series}, key="scalar ssse3 avx2".split().index)
    bulk = {}
    for (op, kernel, size), entry in sorted(gf_series.items()):
        if op not in BULK_OPS:
            continue
        mbps = entry["bytes_per_second"] / 1e6
        bulk.setdefault(op, {}).setdefault(kernel, {})[str(size)] = round(mbps, 1)

    decode = {}
    for (op, kernel, s), entry in sorted(codec_series.items()):
        if op != "DecodeSegment":
            continue
        decode.setdefault(kernel, {})[str(s)] = round(
            entry["items_per_second"], 1)

    speedup = {}
    for op, per_kernel in bulk.items():
        scalar = per_kernel.get("scalar")
        if not scalar:
            continue
        top = max(scalar, key=int)
        for kernel, sizes in per_kernel.items():
            if kernel == "scalar" or top not in sizes:
                continue
            speedup.setdefault(op, {})[kernel] = round(
                sizes[top] / scalar[top], 2)

    return {
        "schema": SCHEMA,
        "kernels": kernels,
        "bulk_mb_per_s": bulk,
        "decode_blocks_per_s": decode,
        "speedup_vs_scalar": speedup,
    }


def validate(doc):
    if doc.get("schema") != SCHEMA:
        fail(f"schema mismatch: {doc.get('schema')!r} != {SCHEMA!r}")
    kernels = doc.get("kernels")
    if not isinstance(kernels, list) or "scalar" not in kernels:
        fail("'kernels' must be a list containing 'scalar'")
    bulk = doc.get("bulk_mb_per_s")
    if not isinstance(bulk, dict) or "AddScaled" not in bulk:
        fail("'bulk_mb_per_s' must map operations incl. 'AddScaled'")
    for op, per_kernel in bulk.items():
        for kernel, sizes in per_kernel.items():
            if kernel not in kernels:
                fail(f"bulk op '{op}' names unknown kernel '{kernel}'")
            for size, mbps in sizes.items():
                if not size.isdigit() or not isinstance(mbps, (int, float)):
                    fail(f"bulk series {op}/{kernel} malformed at {size!r}")
    decode = doc.get("decode_blocks_per_s")
    if not isinstance(decode, dict) or "scalar" not in decode:
        fail("'decode_blocks_per_s' must contain the scalar series")
    if not isinstance(doc.get("speedup_vs_scalar"), dict):
        fail("'speedup_vs_scalar' missing")


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def proc_cpu_seconds(pid):
    """utime+stime of `pid` in seconds (0.0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            after_comm = f.read().rsplit(") ", 1)[1].split()
    except OSError:
        return 0.0
    # Fields 14 (utime) and 15 (stime), minus the 3 we stripped.
    ticks = int(after_comm[11]) + int(after_comm[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def run_node_case(node_bin, loadgen_bin, build_dir, mode, conns,
                  pull_rate, measure_s):
    """One fan-in run: an icollect_node server vs `conns` loadgen peers."""
    port = free_port()
    metrics = os.path.join(build_dir, f"node_bench_{mode}_{conns}.jsonl")
    server = subprocess.Popen(
        [node_bin, "--role", "server", "--listen", f"127.0.0.1:{port}",
         "--pull-rate", str(pull_rate),
         "--segment-size", "4", "--duration", "300", "--seed", "1",
         "--metrics-out", metrics, "--metrics-interval", "0.5"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    time.sleep(0.3)  # let the listener come up before the stampede
    cpu_before = proc_cpu_seconds(server.pid)
    try:
        proc = subprocess.run(
            [loadgen_bin, "--target", f"127.0.0.1:{port}",
             "--peers", str(conns), "--segments", "64",
             "--segment-size", "4", "--ramp", "2500",
             "--duration", "120", "--measure", str(measure_s),
             "--seed", "1"],
            capture_output=True, text=True, timeout=300)
        cpu_after = proc_cpu_seconds(server.pid)
    finally:
        server.kill()
        server.wait()
    if proc.returncode != 0:
        fail(f"loadgen ({mode}, {conns} conns) exited "
             f"{proc.returncode}:\n{proc.stderr}")
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"loadgen ({mode}, {conns} conns) emitted bad JSON: {e}")

    # Server-side pull RTT quantiles from the last metrics sample that
    # saw completed round-trips (the server exports them in seconds).
    rtt = {}
    if os.path.exists(metrics):
        with open(metrics) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                if row.get("node.pull_rtt.count", 0) > 0:
                    rtt = {q: row[f"node.pull_rtt.{q}"]
                           for q in ("p50", "p90", "p99", "max")}
    frames_total = report["frames_sent"] + report["frames_received"]
    server_cpu = max(cpu_after - cpu_before, 0.0)
    return {
        "mode": mode,
        "conns": conns,
        "pull_rate_demanded": pull_rate,
        "conns_established": report["conns_established"],
        "handshakes_ok": report["handshakes_ok"],
        "goal_reached": report["goal_reached"],
        "measure_window_s": round(report["measure_window_s"], 3),
        "frames_per_s": round(report["frames_per_s"], 1),
        "pull_round_trips_per_s": round(
            report["pull_round_trips_per_s"], 1),
        "send_refusals": report["send_refusals"],
        "decode_errors": report["decode_errors"],
        "server_cpu_s": round(server_cpu, 3),
        "frames_per_server_cpu_s": round(frames_total / server_cpu, 1)
        if server_cpu > 0 else 0.0,
        "server_pull_rtt_s": rtt,
    }


def build_node_baseline(build_dir, quick):
    node_bin = os.path.join(build_dir, "tools", "icollect_node")
    loadgen_bin = os.path.join(build_dir, "tools", "icollect_loadgen")
    for binary in (node_bin, loadgen_bin):
        if not os.path.exists(binary):
            fail(f"binary not found: {binary} (build the repo first)")
    # Two regimes, both honest on a single-core box:
    #  - saturation: demand far beyond what either side can serve, so
    #    frames/s measures end-to-end throughput, at a shared and at a
    #    large connection count.
    #  - efficiency: demand the server can meet across many mostly-idle
    #    conns; frames per server-CPU-second is what a wakeup costs.
    saturate_rate, limited_rate = 20000, 2000
    measure_s = 3 if quick else 8
    shared = 300 if quick else 2000
    big = 1000 if quick else 10000
    case = lambda *a: run_node_case(node_bin, loadgen_bin, build_dir, *a)
    return {
        "schema": NODE_SCHEMA,
        "cases": [
            case("saturation", shared, saturate_rate, measure_s),
            case("saturation", big, saturate_rate, measure_s),
            case("efficiency", big, limited_rate, measure_s),
        ],
    }


def validate_node(doc):
    if doc.get("schema") != NODE_SCHEMA:
        fail(f"schema mismatch: {doc.get('schema')!r} != {NODE_SCHEMA!r}")
    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        fail("'cases' must list at least one run")
    for case in cases:
        name = f"{case.get('mode')}/{case.get('conns')}"
        if case.get("mode") not in ("saturation", "efficiency"):
            fail(f"case {name}: unknown mode")
        for key in ("conns", "conns_established", "handshakes_ok",
                    "pull_rate_demanded"):
            if not isinstance(case.get(key), int) or case[key] < 1:
                fail(f"case {name}: '{key}' must be a positive integer")
        if case["conns_established"] != case["conns"]:
            fail(f"case {name}: not every connection established — "
                 "not a clean baseline")
        if case.get("goal_reached") is not True:
            fail(f"case {name}: goal not reached")
        for key in ("frames_per_s", "pull_round_trips_per_s",
                    "frames_per_server_cpu_s"):
            if not isinstance(case.get(key), (int, float)) or case[key] <= 0:
                fail(f"case {name}: '{key}' must be positive")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", default="BENCH_gf_kernels.json")
    ap.add_argument("--quick", action="store_true",
                    help="short measurement window (CI smoke)")
    ap.add_argument("--validate", metavar="FILE",
                    help="validate an existing baseline and exit")
    ap.add_argument("--node", action="store_true",
                    help="benchmark the live-node transport instead")
    ap.add_argument("--node-out", default="BENCH_node.json")
    ap.add_argument("--validate-node", metavar="FILE",
                    help="validate an existing node baseline and exit")
    args = ap.parse_args()

    if args.validate_node:
        if not os.path.exists(args.validate_node):
            fail(f"missing {args.validate_node}")
        with open(args.validate_node) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                fail(f"{args.validate_node} is not valid JSON: {e}")
        validate_node(doc)
        print(f"run_bench: OK {args.validate_node} "
              f"({len(doc['cases'])} cases)")
        return

    if args.node:
        doc = build_node_baseline(args.build_dir, args.quick)
        validate_node(doc)
        with open(args.node_out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        top = max(c["conns"] for c in doc["cases"])
        print(f"run_bench: wrote {args.node_out} "
              f"(held {top} concurrent peers)")
        return

    if args.validate:
        if not os.path.exists(args.validate):
            fail(f"missing {args.validate}")
        with open(args.validate) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                fail(f"{args.validate} is not valid JSON: {e}")
        validate(doc)
        print(f"run_bench: OK {args.validate} "
              f"(kernels: {', '.join(doc['kernels'])})")
        return

    min_time = "0.02" if args.quick else "0.2"
    gf_bin = os.path.join(args.build_dir, "bench", "micro_gf256")
    codec_bin = os.path.join(args.build_dir, "bench", "micro_codec")

    gf = parse_series(run_benchmark(
        gf_bin, "BM_(AddScaled|ScaleAssign|AddAssign|Dot)<", min_time))
    # POSIX ERE (the benchmark library's regex flavor): no \w / \d.
    sizes = "(20|40)" if args.quick else "[0-9]+"
    codec = parse_series(run_benchmark(
        codec_bin, f"BM_DecodeSegment<[a-z0-9]+>/{sizes}$", min_time))

    doc = build_baseline(gf, codec)
    validate(doc)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

    top = doc["speedup_vs_scalar"].get("AddScaled", {})
    print(f"run_bench: wrote {args.out} (kernels: "
          f"{', '.join(doc['kernels'])}; AddScaled speedup vs scalar: "
          f"{top or 'n/a'})")


if __name__ == "__main__":
    main()
