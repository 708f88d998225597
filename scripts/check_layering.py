#!/usr/bin/env python3
"""Layering gate for the protocol core and the pull scheduler.

src/proto/ is the transport- and clock-agnostic Sec. 2 state machine,
and src/sched/ holds the want and feed rules both drivers run under the
feedback pull policies. Each may depend on the pure foundations only:

    proto -> {proto, coding, common, gf, obs}
    sched -> {sched, proto, coding, common, gf, obs}

and must never reach — directly or transitively — into any driver
layer: net/, node/, p2p/, sim/, wire/ (nor the orchestration layers
core/, ode/, runner/, stats/, workload/). A single include from a
driver layer would let transport or event-loop concerns leak back into
the shared rules, silently undoing the refactor this gate protects.

The check resolves quoted project includes transitively: every header
reachable from any file under a checked layer must itself live in one
of that layer's allowed layers. System/angle includes are ignored.

Usage: check_layering.py <repo-root>
Exits 0 when every closure is clean, 1 with a report otherwise.
"""

import re
import sys
from pathlib import Path

FOUNDATIONS = {"proto", "coding", "common", "gf", "obs"}
ALLOWED_LAYERS = {
    "proto": FOUNDATIONS,
    "sched": FOUNDATIONS | {"sched"},
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def project_includes(path: Path) -> list[str]:
    includes = []
    for line in path.read_text(encoding="utf-8").splitlines():
        m = INCLUDE_RE.match(line)
        if m:
            includes.append(m.group(1))
    return includes


def check_layer(src: Path, layer: str, allowed: set[str]) -> int:
    layer_dir = src / layer
    roots = sorted(
        p for p in layer_dir.iterdir() if p.suffix in {".h", ".cpp"}
    )
    if not roots:
        print(f"no sources found under {layer_dir}", file=sys.stderr)
        return 2

    violations = []
    seen = set()
    # Work items are (file, include-chain-that-reached-it) so a
    # violation report shows the full path from the layer to the
    # offending header.
    stack = [(p, [p.relative_to(src).as_posix()]) for p in roots]
    while stack:
        path, chain = stack.pop()
        if path in seen:
            continue
        seen.add(path)
        for inc in project_includes(path):
            target = src / inc
            if not target.is_file():
                # Quoted include that is not a project header (e.g. a
                # same-directory relative include). Try relative to the
                # including file before giving up.
                target = path.parent / inc
                if not target.is_file():
                    continue
            rel = target.relative_to(src).as_posix()
            if rel.split("/", 1)[0] not in allowed:
                violations.append(" -> ".join(chain + [rel]))
            else:
                stack.append((target, chain + [rel]))

    names = ", ".join(sorted(allowed))
    if violations:
        print(f"{layer} layering violations (include chains from "
              f"src/{layer}/):")
        for v in sorted(violations):
            print(f"  {v}")
        print(f"\nsrc/{layer}/ may only include layers: {names}")
        return 1

    print(f"{layer} layering OK: {len(seen)} files in closure, "
          f"all within {{{names}}}")
    return 0


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <repo-root>", file=sys.stderr)
        return 2
    src = Path(sys.argv[1]) / "src"
    return max(check_layer(src, layer, allowed)
               for layer, allowed in ALLOWED_LAYERS.items())


if __name__ == "__main__":
    sys.exit(main())
