#!/usr/bin/env python3
"""The collection-pipeline benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sim-steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cluster-drain --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

Run from the root of a source tree. Every run configures and builds the
benchmark package (perfbench/CMakeLists.txt) incrementally into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, checks its
outputs, prints a human-readable table and, as the LAST line of stdout,
one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, and the table adds the cost
ledger. Each run is also appended, with provenance, to the trajectory
file (--trajectory). The exit status is 0 only when every correctness
check passed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("sim-steady", "sim-payload", "cluster-drain")

# Per-layer metrics each workload exercises. The others print as 0 for
# that workload: the layer does no work there.
SIM_LAYERS = {
    "sim.handler_calls", "sim.cpu_ns_per_handler", "sim.ttl_call_share",
    "p2p.inject.us", "p2p.gossip.us", "p2p.pull.us", "p2p.decode.us",
    "p2p.ttl.us", "p2p.inject.share", "p2p.gossip.share", "p2p.pull.share",
    "p2p.decode.share", "p2p.ttl.share", "proto.inject.us", "proto.verify.ns",
    "proto.verify_calls", "proto.bank_add.ns", "coding.recode.ns",
    "coding.decode_add.ns", "coding.innovative_frac", "gf.add_scaled.gbps",
    "gf.dot.gbps", "gf.bytes_per_pull", "state.registry_segments",
    "state.bank_in_progress", "state.bank_decoded", "state.integrity_tags",
    "state.rss_slope_mb_per_vt", "obs.trace_overhead",
}
CLUSTER_LAYERS = {
    "proto.inject.us", "proto.bank_add.ns", "coding.recode.ns",
    "coding.decode_add.ns", "coding.innovative_frac", "gf.add_scaled.gbps",
    "gf.dot.gbps", "gf.bytes_per_pull", "sched.targeted_frac",
    "sched.summaries", "sched.want.ns", "wire.frames", "wire.bytes_per_frame",
    "wire.encode.ns", "wire.decode.ns", "wire.decode_errors",
    "node.server_frame_share", "node.ack_frames_per_decode",
    "node.stale_pull_frac", "node.pull_rate_ratio", "net.loopback.sends",
    "net.loopback.in_flight_hwm_bytes", "state.bank_in_progress",
    "state.bank_decoded", "obs.trace_overhead",
}
LAYERS_BY_WORKLOAD = {
    "sim-steady": SIM_LAYERS - {"proto.verify.ns", "proto.verify_calls",
                                "state.integrity_tags"},
    "sim-payload": SIM_LAYERS,
    "cluster-drain": CLUSTER_LAYERS,
}


class BenchError(Exception):
    """A run that cannot produce a result (build failure, bad tree...)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------

def build_root():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure (once) and build the benchmark's runner incrementally;
    returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not an icollect source tree "
                         "(no CMakeLists.txt or src/)")
    out = build_root() / "cmake"
    out.mkdir(parents=True, exist_ok=True)
    logfile = out / "build.log"
    with open(logfile, "a") as lf:
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(["ninja", "--version"], capture_output=True,
                              check=False).returncode == 0:
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                raise BenchError(f"cmake configure failed; see {logfile}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(out), "-j", jobs, "--target",
               "perfbench_inproc"]
        if subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT,
                          check=False).returncode != 0:
            raise BenchError(f"build failed; see {logfile}")
    runner = out / "perfbench_inproc"
    if not runner.is_file():
        raise BenchError(f"built runner not found at {runner}")
    return runner


# --- provenance ------------------------------------------------------------

def source_digest():
    """sha256 over the program's sources and this benchmark's code."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file()
            and "__pycache__" not in p.parts and p.suffix != ".jsonl")
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported tree: source_digest identifies it
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, check=False)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


# --- in-process workloads --------------------------------------------------

def run_inproc(runner, workload, seed, seconds, trace, quick):
    cmd = [str(runner), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload} run exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# --- result ----------------------------------------------------------------

def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} missing")
    return json.loads(path.read_text())


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def build_result(spec, raw, trace):
    """The contract's last line, from the workload's raw measurements."""
    metrics = {}
    if trace:
        applies = LAYERS_BY_WORKLOAD[raw["workload"]]
        for m in spec["per_layer"]:
            name = m["name"]
            if name in applies and name not in raw["layers"]:
                raise BenchError(f"{raw['workload']} did not measure {name}")
            value = raw["layers"].get(name, 0.0) if name in applies else 0.0
            metrics[name] = {"value": float(value), "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            value = raw["e2e"].get(m["name"])
            if value is None:
                raise BenchError(f"{raw['workload']} did not measure "
                                 f"{m['name']}")
            metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    correct = all(raw["checks"].values()) and failed == 0 and attempted > 0
    return {"correct": correct, "attempted": max(1, attempted),
            "failed": failed if attempted > 0 else 1, "metrics": metrics}


def print_table(spec, raw, result, prov, trace):
    print(f"# perfbench {raw['workload']} seed={raw['seed']} "
          f"trace={int(trace)} commit={prov['commit'] or '-'} "
          f"source={prov['source_digest']} gf={prov['gf_kernel']} "
          f"nproc={prov['nproc']} build={prov['build_type']} "
          f"compiler={prov['compiler']}")
    print("## end to end" + ("" if not trace else " (untraced share)"))
    for m in spec["end_to_end"]:
        v = raw["e2e"].get(m["name"])
        print(f"  {m['name']:<24} {fmt(v):>14} {m['unit']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<24} {fmt(failed_frac):>14} ratio "
          f"({result['failed']} of {result['attempted']})")
    print(f"  setup samples (s): "
          + " ".join(f"{x:.4g}" for x in raw["setup_samples_s"]))
    print("## checks")
    for k, ok in sorted(raw["checks"].items()):
        print(f"  {'ok  ' if ok else 'FAIL'} {k}")
    if not trace:
        return
    applies = LAYERS_BY_WORKLOAD[raw["workload"]]
    print("## per layer")
    for m in spec["per_layer"]:
        shown = (fmt(result["metrics"][m["name"]]["value"])
                 if m["name"] in applies else "-")
        print(f"  {m['name']:<34} {shown:>14} {m['unit']}")
    extra = sorted(set(raw["layers"]) - {m["name"] for m in spec["per_layer"]})
    for k in extra:
        print(f"  {k:<34} {fmt(raw['layers'][k]):>14} (detail)")
    scopes = ("inject", "gossip", "pull", "decode", "ttl")
    if "p2p.ttl.share" in raw["layers"]:
        print("## profiler scopes: self time / traced CPU")
        covered = 0.0
        for scope in scopes:
            share = raw["layers"][f"p2p.{scope}.share"]
            covered += share
            print(f"  net.{scope:<14} {100 * share:6.2f} %")
        print(f"  {'unscoped':<18} {100 * (1 - covered):6.2f} %  "
              "(event queue, Poisson processes, dispatch)")
    print(f"## cost ledger: ns/op x ops / run CPU "
          f"({raw['ledger_cpu_s']:.4g} s)")
    explained = 0.0
    for row in raw["ledger"]:
        explained += row["share"]
        print(f"  {row['row']:<18} {row['ns_per_op']:>12.1f} ns x "
              f"{row['ops']:>10.0f} = {100 * row['share']:6.2f} %")
    print(f"  {'unexplained':<18} {'':>12}      {'':>10}   "
          f"{100 * (1 - explained):6.2f} %")


def provenance(raw, seed):
    return {
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "gf_kernel": raw.get("gf_kernel"),
        "nproc": os.cpu_count(),
        "build_type": raw.get("build_type"),
        "compiler": raw.get("compiler"),
        "seed": seed,
    }


def run_workload(spec, runner, args):
    raw = run_inproc(runner, args.workload, args.seed, args.seconds,
                     args.trace, args.quick)
    return raw, build_result(spec, raw, args.trace)


def append_trajectory(path, prov, args, raw, result):
    entry = {"provenance": prov, "workload": args.workload,
             "seconds": args.seconds, "trace": int(args.trace),
             "quick": args.quick, "correct": result["correct"],
             "attempted": result["attempted"], "failed": result["failed"],
             "e2e": raw["e2e"], "checks": raw["checks"]}
    if args.trace:
        entry["layers"] = raw["layers"]
        entry["ledger"] = raw["ledger"]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


# --- self-check --------------------------------------------------------------

def self_check(spec, runner):
    """Quick-mode runs of every workload, traced and untraced: the output
    must match BENCHMARK.json's schema and names, every check must pass,
    and a same-seed rerun must reproduce the deterministic outcomes."""
    problems = []
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    if len(names) != len(spec["end_to_end"]) + len(spec["per_layer"]):
        problems.append("metric names are not unique")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for applies in LAYERS_BY_WORKLOAD.values():
        unknown = applies - {m["name"] for m in spec["per_layer"]}
        if unknown:
            problems.append(f"layer metrics not in BENCHMARK.json: {unknown}")
    deterministic = ("normalized_throughput", "collect_vt",
                     "segment_delay_p50_vt", "segment_delay_p99_vt")
    for w in WORKLOADS:
        seen = []
        for trace in (False, True, False):
            args = argparse.Namespace(workload=w, seed=7, seconds=2.0,
                                      trace=trace, quick=True)
            raw, result = run_workload(spec, runner, args)
            want = spec["per_layer"] if trace else spec["end_to_end"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w}: result keys {sorted(result)}")
            if list(result["metrics"]) != [m["name"] for m in want]:
                problems.append(f"{w}: metric names differ from spec")
            for m in want:
                got = result["metrics"][m["name"]]
                if got["unit"] != m["unit"] or not isinstance(
                        got["value"], float):
                    problems.append(f"{w}: bad entry {m['name']}: {got}")
            if not trace:
                for m in spec["end_to_end"]:
                    if result["metrics"][m["name"]]["value"] <= 0:
                        problems.append(f"{w}: {m['name']} is not positive")
                seen.append(raw["e2e"])
            if not result["correct"]:
                problems.append(f"{w} trace={int(trace)}: not correct: "
                                f"{raw['checks']} failed={result['failed']}")
        for k in deterministic:
            if seen[0][k] != seen[1][k]:
                problems.append(f"{w}: same-seed rerun changed {k}: "
                                f"{seen[0][k]} vs {seen[1][k]}")
        log(f"self-check: {w} done")
    for p in problems:
        log(f"self-check: {p}")
    print("self-check: " + ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small shapes, for smoke tests")
    ap.add_argument("--trajectory", type=Path, default=None,
                    help="JSONL file each run appends to (default "
                         "<build dir>/trajectory.jsonl)")
    ap.add_argument("--self-check", action="store_true",
                    help="validate output schema, names and determinism "
                         "on quick runs of every workload")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    try:
        spec = load_spec()
        runner = build()
        if args.self_check:
            return self_check(spec, runner)
        raw, result = run_workload(spec, runner, args)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    prov = provenance(raw, args.seed)
    print_table(spec, raw, result, prov, bool(args.trace))
    append_trajectory(args.trajectory or build_root() / "trajectory.jsonl",
                      prov, args, raw, result)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
