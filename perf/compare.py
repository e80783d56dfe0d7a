#!/usr/bin/env python3
"""Compare two results files of ``perf/run.py``, row by row.

``python perf/compare.py A.json B.json`` prints, per (workload, metric),
both medians, the ratio B/A with its base, and a verdict from the bounds
in ``BENCHMARK.json``: ``within-bound``, ``regressed``, ``improved``, or
``unresolved`` when the spread between repeats (quartile distance over
median, from ``run.py --repeat N``) is wider than the bound.  Per-layer
metrics have no bound and are listed with their ratio only.  Exits 1 if
any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spread(cell: dict) -> float:
    return abs(cell["q3"] - cell["q1"]) / abs(cell["median"]) \
        if cell["median"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float | None) -> str:
    """Judge B against A for one metric of one workload."""
    if bound is None:
        return "no-bound"
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    base = abs(a["median"])
    change = (b["median"] - a["median"]) / base if base else 0.0
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "regressed"
    if worsening < -bound:
        return "improved"
    return "within-bound"


def compare(a: dict, b: dict, benchmark: dict) -> list[tuple]:
    """Rows ``(workload, metric, a_median, b_median, unit, verdict)``."""
    specs = {m["name"]: m for m in
             benchmark["end_to_end"] + benchmark["per_layer"]}
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric, cell_a in entry_a["metrics"].items():
            cell_b = entry_b["metrics"].get(metric)
            if cell_b is None or metric not in specs:
                continue
            spec = specs[metric]
            rows.append((workload, metric, cell_a["median"],
                         cell_b["median"], cell_a["unit"],
                         verdict(cell_a, cell_b, spec["better"],
                                 spec.get("bound"))))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, benchmark)
    for workload, metric, va, vb, unit, judged in rows:
        ratio = f"{vb / va:.4f}x of {va:.6g}" if va else "base 0"
        print(f"{workload:18s} {metric:28s} {va:14.6g} {vb:14.6g} {unit:6s} "
              f"{ratio:28s} {judged}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
