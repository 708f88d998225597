"""Shared scaffolding of the scripts/check_*.py end-to-end checks.

The check scripts import this module from their own directory (Python
puts a script's directory on sys.path). Every script keeps one exit
contract: a failed assertion prints `<script>: FAIL: <what>` on stderr
and exits 1; a usage error prints the usage on stderr and exits 2.
"""

import difflib
import json
import os
import socket
import subprocess
import sys
import tempfile


def _script() -> str:
    return os.path.splitext(os.path.basename(sys.argv[0]))[0]


def fail(msg: str) -> None:
    print(f"{_script()}: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(cond, what: str) -> None:
    """Assert `what` (a property that holds) and print an ok: line."""
    if not cond:
        fail(what)
    print(f"  ok: {what}")


def require(cond, msg: str) -> None:
    """Assert silently; `msg` describes the failure."""
    if not cond:
        fail(msg)


def usage(text: str) -> None:
    print(text.strip(), file=sys.stderr)
    sys.exit(2)


def run(cmd: list[str], expect_exit: int = 0, timeout=None) -> str:
    """Run `cmd`, require exit status `expect_exit`, return its stdout."""
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != expect_exit:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"exit {proc.returncode} (expected {expect_exit}): "
             f"{' '.join(cmd)}")
    return proc.stdout


def usage_error(cmd: list[str], what: str) -> str:
    """Require `cmd` to exit 2 with a diagnostic; return its stderr."""
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          check=False)
    require(proc.returncode == 2,
            f"{what}: expected exit 2, got {proc.returncode}")
    require(proc.stderr.strip() != "",
            f"{what}: expected a diagnostic on stderr")
    return proc.stderr


def check_regenerates(path: str, cmd: list[str]) -> None:
    """Require `cmd`'s stdout to equal the committed file `path` byte for
    byte, so a committed table cannot drift from the code that makes it."""
    with open(path, "rb") as f:
        committed = f.read()
    proc = subprocess.run(cmd, capture_output=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    if proc.stdout != committed:
        diff = difflib.unified_diff(
            committed.decode().splitlines(), proc.stdout.decode().splitlines(),
            fromfile=path, tofile="regenerated", lineterm="", n=1)
        sys.stderr.write("\n".join(list(diff)[:60]) + "\n")
        fail(f"{path} differs from a fresh run of {' '.join(cmd)}; "
             f"re-capture it with --out")
    print(f"  ok: {os.path.basename(path)} equals a fresh full run")


def check_bad_out_fails_fast(tool: str, arm_prefixes: tuple[str, ...]) -> None:
    """Require a bench-table tool given an unwritable `--out` path to exit
    2 before any replica runs: a diagnostic, and no arm line (the
    per-point progress lines starting with `arm_prefixes`) on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "missing", "table.json")
        err = usage_error([tool, "--out", bad], "unwritable --out path")
    arms = [ln for ln in err.splitlines() if ln.startswith(arm_prefixes)]
    require(not arms, f"unwritable --out ran replicas first: {arms[:2]}")
    print("  ok: unwritable --out exits 2 before any replica runs")


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def parse_jsonl(path: str, what: str) -> list[dict]:
    """The rows of a JSONL file, which must exist and hold at least one."""
    require(os.path.exists(path), f"missing {what} at {path}")
    rows = []
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as e:
                fail(f"{what} line {i + 1} is not JSON: {e}")
    require(rows, f"{what} is empty")
    return rows


def last_json_line(out: str, what: str) -> dict:
    """The last stdout line that is a JSON object (a tool's report)."""
    for line in reversed(out.splitlines()):
        if line.strip().startswith("{"):
            return json.loads(line)
    fail(f"{what} has no JSON report line")
    raise AssertionError  # unreachable


def json_after(out: str, banner: str) -> dict | None:
    """The JSON object on the line after `banner`, or None if absent."""
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line.strip() == banner:
            return json.loads(lines[i + 1])
    return None
