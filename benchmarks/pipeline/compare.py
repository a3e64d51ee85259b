#!/usr/bin/env python
"""Compare pipeline-benchmark runs of a parent commit and a change.

Usage::

    python benchmarks/pipeline/compare.py PARENT.json... -- CHANGE.json...

Each file is a report written by ``run.py -o`` (one or more workloads).
For every (workload, end-to-end metric) pair the verdict is:

* ``unresolved`` — the run-to-run spread (quartile distance over the
  median) of either side is wider than the metric's bound, unless every
  change run reads better than every parent run;
* ``regressed`` — the change's median is worse than the parent's by
  more than the bound;
* ``improved`` — a claim holds: at least 10 pairs, the change wins at
  least 9 in 10 of them (ties count for neither), and the medians differ
  by more than the parent's own quartile distance;
* ``unchanged`` — otherwise.

Bounds and directions come from ``BENCHMARK.json``.  Pairs are formed
in the order the files are given, so alternate which side runs first.
Exits 1 when any pair is regressed or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _values(paths: list[str]) -> dict:
    """``(workload, metric) -> [value per file]``."""
    out: dict = {}
    for path in paths:
        report = json.loads(Path(path).read_text())
        for workload, result in report["workloads"].items():
            for name, metric in result["end_to_end"].items():
                out.setdefault((workload, name), []).append(metric["value"])
    return out


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list[float], change: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, dict]:
    """Classify one (workload, metric) pair; returns (verdict, numbers)."""
    sign = 1.0 if lower_is_better else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = _quartiles(parent)
    c_q1, c_q3 = _quartiles(change)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    numbers = {"parent": [p_med, p_q1, p_q3], "change": [c_med, c_q1, c_q3],
               "worse_by": worse, "spread": spread, "pairs": len(pairs),
               "wins": wins}
    if spread > bound and not all_better:
        return "unresolved", numbers
    if worse > bound:
        return "regressed", numbers
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and \
            worse < 0 and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved", numbers
    return "unchanged", numbers


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent_files, change_files = argv[:cut], argv[cut + 1:]
    if not parent_files or not change_files:
        print("compare.py: need reports on both sides of --", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = _values(parent_files), _values(change_files)
    def quartet(q) -> str:
        return f"{q[0]:.4g} [{q[1]:.4g}, {q[2]:.4g}]"

    bad = 0
    print(f"{'workload':<15} {'metric':<17} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'worse':>8} {'bound':>6}  verdict")
    for key in sorted(parent):
        workload, name = key
        if key not in change or name not in metrics:
            continue
        m = metrics[name]
        result, n = verdict(parent[key], change[key], m["bound"],
                            m["better"] == "lower")
        bad += result in ("regressed", "unresolved")
        print(f"{workload:<15} {name:<17} {quartet(n['parent']):>30} "
              f"{quartet(n['change']):>30} {100 * n['worse_by']:>7.2f}% "
              f"{100 * m['bound']:>5.0f}%  {result} (wins "
              f"{n['wins']}/{n['pairs']}, spread {100 * n['spread']:.1f}%)")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
