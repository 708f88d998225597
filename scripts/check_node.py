#!/usr/bin/env python3
"""End-to-end validation of the live node runtime.

Three layers of checks:

  1. Loopback cluster (icollect_cluster): a 8-peer/2-server collection
     must complete with every injected segment decoded, twice with the
     same seed producing an identical summary (determinism), and the
     metrics JSONL must parse with sane, nondecreasing time.
  2. Real TCP (icollect_node): one server + two peer processes on
     127.0.0.1 must finish a collection — every peer exits 0 once all
     its segments are ACKed, the server exits 0 once it decoded them.
  3. CLI contract: malformed invocations (unknown flag, missing role,
     no endpoints, malformed numbers, impossible cluster shapes, the
     retired poller-choice flag) must exit 2 with a diagnostic, not start
     or abort.

Usage: check_node.py /path/to/icollect_cluster /path/to/icollect_node
Exits nonzero with a message on the first failed check.
"""

import json
import os
import subprocess
import sys
import tempfile

from checklib import (fail, free_port, parse_jsonl, require, run, usage,
                      usage_error)


def check_cluster(cluster_bin, tmp):
    metrics = os.path.join(tmp, "cluster_metrics.jsonl")
    cmd = [
        cluster_bin,
        "--peers", "8", "--servers", "2", "--segments-per-peer", "3",
        "--lambda", "6", "--mu", "4", "--gamma", "1",
        "--server-rate", "24", "--max-time", "300", "--seed", "5",
        "--metrics-out", metrics, "--metrics-interval", "0.5",
    ]

    def run_cluster():
        out = run(cmd, timeout=240)
        try:
            return json.loads(out)
        except json.JSONDecodeError as e:
            fail(f"cluster summary is not JSON: {e}\n{out}")

    summary = run_cluster()
    require(summary["complete"] is True, "cluster did not complete")
    require(summary["segments_injected"] == 8 * 3,
            f"expected 24 injected, got {summary['segments_injected']}")
    require(summary["segments_decoded"] == summary["segments_injected"],
            "decoded != injected")
    require(summary["innovative_pulls"] >= summary["segments_injected"],
            "implausibly few innovative pulls")

    rows = parse_jsonl(metrics, "cluster metrics JSONL")
    times = [r["t"] for r in rows]
    require(times == sorted(times), "metrics time column not nondecreasing")
    require("cluster.segments_decoded" in rows[-1],
            "metrics rows missing cluster.* gauges")
    require(rows[-1]["cluster.segments_decoded"] == 24,
            "final metrics row disagrees with the summary")

    # Same seed, same run — the loopback cluster is deterministic.
    require(run_cluster() == summary, "identical seeds produced different summaries")
    print("check_node: loopback cluster OK "
          f"(t={summary['t']:.2f}, decoded={summary['segments_decoded']})")


def check_tcp(node_bin, tmp):
    server_port = free_port()
    peer_port = free_port()
    server_metrics = os.path.join(tmp, "server_metrics.jsonl")
    common = ["--segment-size", "4", "--payload-bytes", "32",
              "--gamma", "0.2", "--seed", "9", "--duration", "60"]
    server = subprocess.Popen(
        [node_bin, "--role", "server",
         "--listen", f"127.0.0.1:{server_port}",
         "--expect-segments", "4", "--pull-rate", "50",
         "--metrics-out", server_metrics] + common,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    peer1 = subprocess.Popen(
        [node_bin, "--role", "peer",
         "--listen", f"127.0.0.1:{peer_port}",
         "--connect", f"127.0.0.1:{server_port}",
         "--segments", "2", "--lambda", "8", "--mu", "6"] + common,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    peer2 = subprocess.Popen(
        [node_bin, "--role", "peer",
         "--connect", f"127.0.0.1:{server_port}",
         "--connect", f"127.0.0.1:{peer_port}",
         "--segments", "2", "--lambda", "8", "--mu", "6"] + common,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)

    procs = {"server": server, "peer1": peer1, "peer2": peer2}
    for name, proc in procs.items():
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            for p in procs.values():
                p.kill()
            fail(f"{name} did not finish within the wall-clock budget")
        require(proc.returncode == 0,
                f"{name} exited {proc.returncode}: {err}")

    rows = parse_jsonl(server_metrics, "server metrics JSONL")
    require(any(r.get("node.segments_decoded", 0) >= 4 for r in rows),
            "server metrics never reached 4 decoded segments")
    print("check_node: real-TCP collection OK (4 segments over "
          f"port {server_port})")


def check_cli_errors(cluster_bin, node_bin):
    cases = [
        ([cluster_bin, "--bogus-flag"], "unknown cluster flag"),
        ([cluster_bin, "--peers"], "missing cluster flag value"),
        ([cluster_bin, "--segments-per-peer", "0"], "zero budget"),
        ([cluster_bin, "--peers", "abc"], "non-numeric peer count"),
        ([cluster_bin, "--peers", "8x"], "trailing garbage in peer count"),
        ([cluster_bin, "--peers", "1"], "single-peer cluster"),
        ([cluster_bin, "--servers", "0"], "serverless cluster"),
        ([node_bin], "missing role"),
        ([node_bin, "--role", "superserver"], "bad role"),
        ([node_bin, "--role", "peer"], "no endpoints"),
        ([node_bin, "--role", "peer", "--listen", "nonsense"],
         "unparseable listen address"),
    ]
    for cmd, what in cases:
        usage_error(cmd, what)
    # One poller, no choice: the old poller-choice flag is gone, not
    # ignored.
    err = usage_error([node_bin, "--role", "server", "--listen",
                       "127.0.0.1:1", "--backend", "epoll"],
                      "retired poller flag")
    require("unknown flag" in err,
            f"poller flag: expected an unknown-flag diagnostic, got {err!r}")
    print(f"check_node: CLI rejects {len(cases) + 1} malformed invocations")


def main():
    if len(sys.argv) != 3:
        usage("usage: check_node.py <icollect_cluster> <icollect_node>")
    cluster_bin, node_bin = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory(prefix="icollect_node_check_") as tmp:
        check_cluster(cluster_bin, tmp)
        check_tcp(node_bin, tmp)
        check_cli_errors(cluster_bin, node_bin)
    print("check_node: all checks passed")


if __name__ == "__main__":
    main()
