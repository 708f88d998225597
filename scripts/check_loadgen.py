#!/usr/bin/env python3
"""End-to-end validation of the socket transport under loadgen fan-in.

One icollect_node server faces ~200 synthetic peers multiplexed by
icollect_loadgen over a single epoll transport. Checks:

  1. The run reaches its goal: every synthetic segment ACKed back to
     the loadgen, all handshakes completed, loadgen exits 0.
  2. The loadgen's JSON report conforms to the icollect-node-bench/1
     schema and its counters are self-consistent (nonzero frames both
     ways, nonzero pull round-trips, no decode errors, no refusals).
  3. The transport's tcp.* gauges agree: epoll wakeups and ready events
     were counted, and every established connection is still open.

Finally, the CLI contract: malformed loadgen invocations exit 2 with a
diagnostic, not a hang or a crash; that includes the retired
poller-choice flag.

Usage: check_loadgen.py /path/to/icollect_node /path/to/icollect_loadgen
Exits nonzero with a message on the first failed check.
"""

import json
import os
import subprocess
import sys

from checklib import fail, free_port, require, usage, usage_error

SCHEMA = "icollect-node-bench/1"

REQUIRED_FIELDS = [
    "schema", "conns_target", "conns_established",
    "handshakes_ok", "frames_sent", "frames_received", "pulls_answered",
    "acks_received", "send_refusals", "decode_errors", "segments_total",
    "segments_acked", "goal_reached", "measure_window_s", "frames_per_s",
    "pull_round_trips_per_s", "duration_s", "transport",
]


def run_loadgen(node_bin, loadgen_bin):
    port = free_port()
    peers = 200
    server = subprocess.Popen(
        [node_bin, "--role", "server", "--listen", f"127.0.0.1:{port}",
         "--pull-rate", "2000", "--segment-size", "4",
         "--duration", "120", "--seed", "3"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        proc = subprocess.run(
            [loadgen_bin, "--target", f"127.0.0.1:{port}",
             "--peers", str(peers), "--segments", "32",
             "--segment-size", "4", "--ramp", "1000",
             "--duration", "60", "--measure", "3", "--seed", "2"],
            capture_output=True, text=True, timeout=180)
    finally:
        server.kill()
        server.wait()
    require(proc.returncode == 0,
            f"loadgen exited {proc.returncode}: {proc.stderr}")
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"loadgen report is not JSON: {e}\n{proc.stdout}")
    return report, peers


def check_report(report, peers):
    for field in REQUIRED_FIELDS:
        require(field in report, f"report missing field {field!r}")
    require(report["schema"] == SCHEMA,
            f"schema {report['schema']!r}, expected {SCHEMA!r}")
    require(report["goal_reached"] is True, "collection goal not reached")
    require(report["conns_established"] == peers,
            f"established {report['conns_established']}/{peers}")
    require(report["handshakes_ok"] == peers,
            f"handshakes {report['handshakes_ok']}/{peers}")
    require(report["segments_acked"] == report["segments_total"],
            "not every segment ACKed")
    require(report["frames_sent"] > 0 and report["frames_received"] > 0,
            "no frame traffic recorded")
    require(report["pulls_answered"] > 0, "server never pulled")
    require(report["decode_errors"] == 0, "frame decode errors on the wire")
    require(report["send_refusals"] == 0, "loadgen hit its own send cap")
    require(report["pull_round_trips_per_s"] > 0,
            "measurement window recorded no pull round-trips")
    print(f"check_loadgen: goal reached with {peers} peers "
          f"(rt/s={report['pull_round_trips_per_s']:.0f}, "
          f"frames/s={report['frames_per_s']:.0f})")


def check_transport_counters(report):
    t = report["transport"]

    def counter(name):
        key = f"tcp.{name}"
        require(key in t, f"transport counters missing {key}")
        return t[key]

    require(counter("connects_ok") == report["conns_established"],
            "transport connects_ok disagrees with established count")
    require(counter("conns") == report["conns_established"],
            f"transport reports {counter('conns')} open conns, "
            f"expected {report['conns_established']}")
    require(counter("bytes_in") > 0 and counter("bytes_out") > 0,
            "transport byte counters are zero")
    require(counter("wakeups") > 0, "no epoll wakeups recorded")
    require(counter("events") > 0, "no ready events recorded")
    print("check_loadgen: tcp transport counters OK")


def check_cli_errors(loadgen_bin):
    cases = [
        ([loadgen_bin], "missing --target"),
        ([loadgen_bin, "--target", "nonsense"], "unparseable target"),
        ([loadgen_bin, "--target", "127.0.0.1:1x"], "trailing port garbage"),
        ([loadgen_bin, "--target", "127.0.0.1:1", "--peers", "0"],
         "zero peers"),
        ([loadgen_bin, "--target", "127.0.0.1:1", "--bogus"],
         "unknown flag"),
    ]
    for cmd, what in cases:
        usage_error(cmd, what)
    # One poller, no choice: the old poller-choice flag is gone, not
    # ignored.
    err = usage_error([loadgen_bin, "--target", "127.0.0.1:1",
                       "--backend", "epoll"], "retired poller flag")
    require("unknown flag" in err,
            f"poller flag: expected an unknown-flag diagnostic, got {err!r}")
    print(f"check_loadgen: CLI rejects {len(cases) + 1} malformed "
          "invocations")


def main():
    if len(sys.argv) != 3:
        usage("usage: check_loadgen.py <icollect_node> <icollect_loadgen>")
    node_bin, loadgen_bin = sys.argv[1], sys.argv[2]
    require(os.path.exists(node_bin), f"no such binary: {node_bin}")
    require(os.path.exists(loadgen_bin), f"no such binary: {loadgen_bin}")
    report, peers = run_loadgen(node_bin, loadgen_bin)
    check_report(report, peers)
    check_transport_counters(report)
    check_cli_errors(loadgen_bin)
    print("check_loadgen: all checks passed")


if __name__ == "__main__":
    main()
