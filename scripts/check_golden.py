#!/usr/bin/env python3
"""Byte-identical determinism gate for the protocol-core refactor.

Runs a tool with a fixed seeded command line and compares its combined
stdout+stderr byte for byte against a golden capture taken before the
Sec. 2 state machine was extracted into src/proto/. Any drift — one
extra RNG draw, a reordered event, a changed counter — shows up as a
diff here, which is exactly the failure mode a shared-core refactor
must guard against.

Usage: check_golden.py [--expect-exit N] [--any-kernel] <golden-file>
                       <tool> [args...]
The tool's exit code must equal N (default 0) — the drop-on-ack
cluster golden intentionally captures an incomplete run that exits 1.
--any-kernel masks the one `gf-kernel=<name>` token a simulator run
prints, on both sides: a golden captured under --gf-kernel=scalar then
pins a --gf-kernel=auto run, whose kernel name depends on the CPU, to
every other byte.
Exits 0 on a byte-identical match, 1 with a unified diff otherwise.
"""

import difflib
import re
import subprocess
import sys
from pathlib import Path


def main() -> int:
    argv = sys.argv[1:]
    expect_exit = 0
    if argv and argv[0] == "--expect-exit":
        expect_exit = int(argv[1])
        argv = argv[2:]
    any_kernel = False
    if argv and argv[0] == "--any-kernel":
        any_kernel = True
        argv = argv[1:]
    if len(argv) < 2:
        print(f"usage: {sys.argv[0]} [--expect-exit N] [--any-kernel] "
              f"<golden-file> <tool> [args...]", file=sys.stderr)
        return 2
    golden_path = Path(argv[0])
    cmd = argv[1:]

    expected = golden_path.read_bytes()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, check=False)
    if proc.returncode != expect_exit:
        print(f"tool exited {proc.returncode} "
              f"(expected {expect_exit}): {' '.join(cmd)}",
              file=sys.stderr)
        sys.stdout.buffer.write(proc.stdout)
        return 1
    actual = proc.stdout
    if any_kernel:
        def mask(text: bytes) -> bytes:
            return re.sub(rb"gf-kernel=\S+", b"gf-kernel=*", text, count=1)
        expected, actual = mask(expected), mask(actual)
    if actual == expected:
        scope = " apart from the kernel name" if any_kernel else ""
        print(f"golden OK: {golden_path.name} "
              f"({len(expected)} bytes, byte-identical{scope})")
        return 0

    print(f"golden MISMATCH: {golden_path.name}", file=sys.stderr)
    diff = difflib.unified_diff(
        expected.decode(errors="replace").splitlines(keepends=True),
        actual.decode(errors="replace").splitlines(keepends=True),
        fromfile=str(golden_path), tofile="actual")
    sys.stderr.writelines(list(diff)[:200])
    return 1


if __name__ == "__main__":
    sys.exit(main())
