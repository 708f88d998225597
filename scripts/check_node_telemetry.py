#!/usr/bin/env python3
"""End-to-end validation of live-runtime telemetry.

Four layers of checks:

  1. Loopback cluster (icollect_cluster): a run with --metrics-out and
     --trace-out must emit schema-valid JSONL (monotonic time column,
     nonzero transport/wire/node counters, pull-RTT quantile columns),
     a `stats` block in the JSON summary with plausible latency
     quantiles, and an identical summary with telemetry off — proving
     instrumentation never perturbs the seeded run.
  2. Trace JSONL: every row parses, kinds come from the protocol event
     vocabulary, timestamps are nondecreasing, and inject/decode counts
     reconcile with the summary.
  3. Real TCP (icollect_node): a server + two peer processes finish a
     collection with --metrics-out on the server; the server's JSONL
     must show nonzero tcp.* and node.* counters, and a SIGUSR1 sent
     while the server is alive must produce a parseable one-line stats
     dump on stderr.
  4. CLI contract: bad --metrics-interval and unwritable --metrics-out
     or --trace-out paths must exit 2 before any run starts.

Usage: check_node_telemetry.py /path/to/icollect_cluster /path/to/icollect_node
Exits nonzero with a message on the first failed check.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

from checklib import (fail, free_port, parse_jsonl, require, run, usage,
                      usage_error)

TRACE_KINDS = {"inject", "gossip", "ttl", "pull", "decode",
               "lost", "depart", "gossip-lost"}


def check_latency_block(block, what):
    for key in ("count", "p50", "p90", "p99", "max"):
        require(key in block, f"{what} missing '{key}'")
    require(block["count"] > 0, f"{what} recorded no samples")
    require(0.0 < block["p50"] <= block["p90"] <= block["p99"] <=
            block["max"], f"{what} quantiles not ordered: {block}")


def check_cluster(cluster_bin, tmp):
    metrics = os.path.join(tmp, "cluster_metrics.jsonl")
    trace = os.path.join(tmp, "cluster_trace.jsonl")
    base = [
        cluster_bin,
        "--peers", "6", "--servers", "2", "--segments-per-peer", "3",
        "--lambda", "6", "--mu", "4", "--gamma", "1",
        "--server-rate", "24", "--max-time", "300", "--seed", "5",
    ]

    def run_cluster(extra):
        out = run(base + extra, timeout=240)
        try:
            return json.loads(out)
        except json.JSONDecodeError as e:
            fail(f"cluster summary is not JSON: {e}\n{out}")

    summary = run_cluster(["--metrics-out", metrics, "--metrics-interval", "0.5",
                   "--trace-out", trace])
    require(summary["complete"] is True, "cluster did not complete")

    # --- the stats block -------------------------------------------------
    require("stats" in summary, "summary has no stats block")
    stats = summary["stats"]
    for key in ("frames_sent", "frames_received", "handshakes_ok",
                "loopback_deliveries", "loopback_bytes_out"):
        require(stats.get(key, 0) > 0, f"stats.{key} is zero")
    require(stats["wire_decode_errors"] == 0,
            "clean loopback run reported wire decode errors")
    check_latency_block(stats["pull_rtt"], "stats.pull_rtt")
    check_latency_block(stats["decode_latency"], "stats.decode_latency")
    require(stats["pull_rtt"]["max"] <= summary["t"],
            "pull RTT exceeds the whole run's duration")

    # --- the metrics JSONL -----------------------------------------------
    rows = parse_jsonl(metrics, "cluster metrics JSONL")
    times = [r["t"] for r in rows]
    require(times == sorted(times), "metrics time column not nondecreasing")
    last = rows[-1]
    for col in ("loopback.sends", "loopback.bytes_out", "loopback.bytes_in",
                "peer1.frames_sent", "peer1.frames_received",
                "peer1.handshakes_ok", "server0.pulls_sent",
                "server0.pull_rtt.count", "cluster.segments_decoded"):
        require(col in last, f"metrics rows missing column {col}")
        require(last[col] > 0, f"final metrics row has {col} == 0")
    require(last["server0.pull_rtt.p50"] > 0,
            "pull-RTT p50 column is zero despite recorded samples")
    require(last["peer1.wire_err.bad-crc"] == 0,
            "per-status wire error column nonzero on a clean run")

    # --- the trace JSONL -------------------------------------------------
    events = parse_jsonl(trace, "cluster trace JSONL")
    prev = 0.0
    injects = decodes = 0
    for e in events:
        require(e["kind"] in TRACE_KINDS, f"unknown trace kind {e['kind']}")
        require(e["t"] >= prev, "trace timestamps not nondecreasing")
        prev = e["t"]
        injects += e["kind"] == "inject"
        decodes += e["kind"] == "decode"
    require(injects == summary["segments_injected"],
            f"{injects} inject events vs "
            f"{summary['segments_injected']} injected segments")
    require(decodes == summary["segments_injected"] * 2,
            "each of 2 servers should trace each segment's decode")

    # --- telemetry must not perturb the run ------------------------------
    require(run_cluster([]) == summary,
            "summary differs between telemetry-on and telemetry-off runs")
    print("check_node_telemetry: loopback cluster telemetry OK "
          f"({len(rows)} metric rows, {len(events)} trace events)")


def wait_listening(port, deadline=10.0):
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.5):
                return True
        except OSError:
            time.sleep(0.05)
    return False


def check_tcp(node_bin, tmp):
    server_port = free_port()
    peer_port = free_port()
    server_metrics = os.path.join(tmp, "server_metrics.jsonl")
    common = ["--segment-size", "4", "--payload-bytes", "32",
              "--gamma", "0.2", "--duration", "60"]
    server = subprocess.Popen(
        [node_bin, "--role", "server",
         "--listen", f"127.0.0.1:{server_port}",
         "--expect-segments", "4", "--pull-rate", "50", "--seed", "9",
         "--metrics-out", server_metrics, "--metrics-interval", "0.2"]
        + common,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)

    # Poke the server while it is certainly alive (idle, pre-peers): the
    # poll loop must service the flag and print one stats line.
    require(wait_listening(server_port), "server never started listening")
    server.send_signal(signal.SIGUSR1)
    time.sleep(0.3)

    peer1 = subprocess.Popen(
        [node_bin, "--role", "peer",
         "--listen", f"127.0.0.1:{peer_port}",
         "--connect", f"127.0.0.1:{server_port}",
         "--segments", "2", "--lambda", "8", "--mu", "6", "--seed", "9"]
        + common,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    peer2 = subprocess.Popen(
        [node_bin, "--role", "peer",
         "--connect", f"127.0.0.1:{server_port}",
         "--connect", f"127.0.0.1:{peer_port}",
         "--segments", "2", "--lambda", "8", "--mu", "6", "--seed", "10"]
        + common,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)

    procs = {"server": server, "peer1": peer1, "peer2": peer2}
    errs = {}
    for name, proc in procs.items():
        try:
            _, errs[name] = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            for p in procs.values():
                p.kill()
            fail(f"{name} did not finish within the wall-clock budget")
        require(proc.returncode == 0,
                f"{name} exited {proc.returncode}: {errs[name]}")

    # --- the SIGUSR1 dump ------------------------------------------------
    dumps = [line for line in errs["server"].splitlines()
             if line.startswith("SIGUSR1 stats ")]
    require(dumps, "server stderr has no SIGUSR1 stats line")
    try:
        dump = json.loads(dumps[0][len("SIGUSR1 stats "):])
    except json.JSONDecodeError as e:
        fail(f"SIGUSR1 dump is not JSON: {e}\n{dumps[0]}")
    require("t" in dump and "tcp.accepts" in dump and
            "node.frames_sent" in dump,
            f"SIGUSR1 dump missing expected columns: {sorted(dump)[:8]}")

    # --- the wall-clock metrics JSONL ------------------------------------
    rows = parse_jsonl(server_metrics, "server metrics JSONL")
    times = [r["t"] for r in rows]
    require(times == sorted(times),
            "server metrics time column not nondecreasing")
    last = rows[-1]
    for col in ("tcp.accepts", "tcp.bytes_in", "tcp.bytes_out",
                "node.frames_sent", "node.frames_received",
                "node.handshakes_ok", "node.pulls_sent",
                "node.pull_rtt.count"):
        require(col in last, f"server metrics missing column {col}")
        require(last[col] > 0, f"final server metrics row has {col} == 0")
    require(last["node.segments_decoded"] >= 4,
            "server metrics never reached 4 decoded segments")
    # RTT is stamped off the node's timer wheel, so a localhost reply
    # faster than one tick legitimately records 0 — require presence and
    # ordering here; the loopback check above asserts nonzero quantiles.
    require(last["node.pull_rtt.p50"] <= last["node.pull_rtt.max"],
            "wall-clock pull-RTT quantiles not ordered")
    print("check_node_telemetry: real-TCP telemetry OK "
          f"({len(rows)} metric rows, SIGUSR1 dump verified)")


def check_cli_errors(cluster_bin, node_bin, tmp):
    unwritable = os.path.join(tmp, "no-such-dir", "out.jsonl")
    cases = [
        ([cluster_bin, "--peers", "4", "--metrics-interval", "0"],
         "cluster zero metrics interval"),
        ([cluster_bin, "--peers", "4", "--metrics-interval", "-1"],
         "cluster negative metrics interval"),
        ([cluster_bin, "--peers", "4", "--metrics-out", unwritable],
         "cluster unwritable metrics path"),
        ([cluster_bin, "--peers", "4", "--trace-out", unwritable],
         "cluster unwritable trace path"),
        ([node_bin, "--role", "server",
          "--listen", f"127.0.0.1:{free_port()}",
          "--metrics-interval", "0"],
         "node zero metrics interval"),
        ([node_bin, "--role", "server",
          "--listen", f"127.0.0.1:{free_port()}",
          "--metrics-out", unwritable],
         "node unwritable metrics path"),
        ([node_bin, "--role", "server",
          "--listen", f"127.0.0.1:{free_port()}",
          "--trace-out", unwritable],
         "node unwritable trace path"),
    ]
    for cmd, what in cases:
        usage_error(cmd, what)
    print(f"check_node_telemetry: CLI rejects {len(cases)} bad "
          "telemetry invocations with exit 2")


def main():
    if len(sys.argv) != 3:
        usage("usage: check_node_telemetry.py <icollect_cluster> "
              "<icollect_node>")
    cluster_bin, node_bin = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory(
            prefix="icollect_node_telemetry_") as tmp:
        check_cluster(cluster_bin, tmp)
        check_tcp(node_bin, tmp)
        check_cli_errors(cluster_bin, node_bin, tmp)
    print("check_node_telemetry: all checks passed")


if __name__ == "__main__":
    main()
