"""Compare two ``report.json`` files field by field, to show how far a change moves a report.

Usage:

    python3 tools/report_diff.py A B

Both reports are read without their ``generated_at`` timestamp and their
``version``, as ``tools/preset_digests.py`` hashes them.  Leaves are paired
by their full path.  For every field path with list indices folded (so
``checks/watson_relation/per_irrep/traces`` stands for all its entries),
one line gives the largest absolute and relative gap between paired float
leaves, the relative gap scaled by the larger side.  Every other leaf
(string, integer, bool, null) that differs is printed with both values, and
so is every path that only one report has.

Exit code 0 when the two reports have the same paths and the same non-float
leaves, whatever their float gaps; 1 otherwise; 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def leaves(node, path=()) -> dict:
    """Every leaf of a JSON tree, keyed by its full path (keys and list indices)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path: node}
    out = {}
    for key, child in items:
        out.update(leaves(child, path + (key,)))
    return out


def _read(path: str) -> dict:
    report = json.loads(Path(path).read_text())
    report.pop("generated_at", None)
    report.pop("version", None)
    return leaves(report)


def _name(path) -> str:
    return "/".join(str(p) for p in path)


def _folded(path) -> str:
    return "/".join(p for p in path if isinstance(p, str))


def _gaps(a: float, b: float) -> tuple[float, float]:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    gap = abs(a - b)
    if not math.isfinite(gap):  # a NaN or an infinity on one side only
        return math.inf, math.inf
    return gap, gap / max(abs(a), abs(b))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/report_diff.py A B", file=sys.stderr)
        return 2
    a, b = (_read(p) for p in argv)
    differ = False
    for path in sorted(a.keys() ^ b.keys(), key=_name):
        print(f"only in {'A' if path in a else 'B'}: {_name(path)}")
        differ = True
    worst: dict = {}
    for path in sorted(a.keys() & b.keys(), key=_name):
        x, y = a[path], b[path]
        if type(x) is float and type(y) is float:
            gap, rel = _gaps(x, y)
            old = worst.get(_folded(path), (0.0, 0.0))
            worst[_folded(path)] = (max(old[0], gap), max(old[1], rel))
        elif x != y or type(x) is not type(y):
            print(f"differs: {_name(path)}: {x!r} != {y!r}")
            differ = True
    for field in sorted(worst):
        gap, rel = worst[field]
        print(f"{field}: max abs gap {gap:.3g}, max rel gap {rel:.3g}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
