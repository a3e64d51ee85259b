#!/usr/bin/env python
"""Record the trace layer's numbers in ``BENCH_trace.json``.

One measurement with its budgets enforced *in the run* so they cannot
silently regress: **windowed read latency vs window width** on a
~100k-event time-partitioned store.

Eight ranks of a rank-imbalanced uniform call tree run in trace mode
with fine slicing (~100k timestamped events), land in a chunked
``.rpstore`` with 64 time partitions, and a fresh subprocess opens the
store and times, over windows of increasing width — 1%, 5%, 25% and
100% of the trace span — three reads: the same composed query
(match-all + sort + limit), the flame slab of the last rank (the
slowest: its events span the whole trace, so every window holds some),
and the 16-bin idleness series, reporting per-width median latency over repeated runs.

Budgets:

* every width's median, for each of the three reads, must stay under
  ``WINDOW_BUDGET_S`` (250 ms) — partition pruning plus pre-aggregated
  chunk slabs make narrow windows cheap and the full window no worse
  than the untimed query, and the array-at-a-time kernels keep the
  flame slab and the series within the same budget;
* narrow windows (< 25% of the span) must touch **fewer chunks than
  the store holds** — the pruning guarantee, asserted from the store's
  own ``chunks_touched`` counter;
* peak RSS after the whole battery may exceed the RSS right after
  open by at most ``RSS_RATIO_BUDGET`` — chunks are mmap-opened and
  never accumulated on the heap, so memory stays flat no matter how
  many windows are answered.

Usage::

    python benchmarks/run_trace_bench.py [-o BENCH_trace.json]
        [--repeats 15]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.sim.scale import scale_program  # noqa: E402
from repro.sim.spmd import trace_spmd  # noqa: E402
from repro.trace import create_trace_store  # noqa: E402

WINDOW_BUDGET_S = 0.25     # per-width median latency
RSS_RATIO_BUDGET = 1.5     # peak RSS after battery vs right after open
N_CHUNKS = 64              # time partitions in the benchmark store

#: window widths as fractions of the trace span
WIDTHS = (0.01, 0.05, 0.25, 1.0)

_CHILD = r"""
import json, resource, statistics, sys, time
from repro.query import query, run_query
from repro.trace import flame_slab, idleness_series, open_trace


def median_s(fn, repeats):
    fn()  # warm
    samples = []
    for _ in range(repeats):
        s = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - s)
    return statistics.median(samples), max(samples)


store_path, widths_json, repeats = sys.argv[1], sys.argv[2], int(sys.argv[3])
widths = json.loads(widths_json)

store = open_trace(store_path)
metric = store.metrics.by_id(0).name
t0, t1 = store.t_begin, store.t_end
span = t1 - t0
# fault in the skeleton + one full answer before timing anything
run_query(query("**/*").window(None, None).sort(metric).limit(50), store)
rss_open = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

rank = store.nranks - 1
out = {"n_events": store.n_events, "chunks_total": store.chunks_total,
       "nranks": store.nranks, "flame_rank": rank, "widths": {}}
for width in widths:
    lo = t0 if width >= 1.0 else t0 + 0.4 * span
    hi = min(t1, lo + width * span)
    if width >= 1.0:
        hi = t1
    q = query("**/*").window(lo, hi).sort(metric).limit(50)
    store.reset_counters()
    result = run_query(q, store)
    touched = store.chunks_touched
    query_s, query_max_s = median_s(lambda: run_query(q, store), repeats)
    slab = flame_slab(store, rank=rank, t0=lo, t1=hi)
    flame_s, _ = median_s(
        lambda: flame_slab(store, rank=rank, t0=lo, t1=hi), repeats)
    series_s, _ = median_s(
        lambda: idleness_series(store, lo, hi, bins=16), repeats)
    out["widths"][str(width)] = {
        "window_s": hi - lo,
        "rows": result.row_count,
        "chunks_touched": touched,
        "median_s": query_s,
        "max_s": query_max_s,
        "flame_spans": slab["span_count"],
        "flame_median_s": flame_s,
        "series_median_s": series_s,
    }
out["rss_open_kib"] = rss_open
out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
store.close()
print(json.dumps(out))
"""


def _run_child(code: str, *argv: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def build_store(workdir: str) -> tuple[str, float]:
    """~100k events: 8 imbalanced ranks, 48 slices per attribution."""
    t0 = time.perf_counter()
    traces = trace_spmd(scale_program(fanout=6, depth=3), nranks=8,
                        seed=7, trace_slices=48, name="bench-trace")
    span = traces.t_end - traces.t_begin
    path = os.path.join(workdir, "bench-trace.rpstore")
    store = create_trace_store(traces, path, chunk_duration=span / N_CHUNKS)
    store.close()
    return path, time.perf_counter() - t0


def bench_windows(workdir: str, repeats: int) -> dict:
    path, build_s = build_store(workdir)
    out = _run_child(_CHILD, path, json.dumps(list(WIDTHS)), str(repeats))
    out["build_s"] = round(build_s, 3)
    out["repeats"] = repeats
    out["budget_s"] = WINDOW_BUDGET_S

    failures = [
        f"width {width}: {read} median {stats[key] * 1e3:.1f} ms "
        f"> budget {WINDOW_BUDGET_S * 1e3:.0f} ms"
        for width, stats in out["widths"].items()
        for read, key in (("query", "median_s"), ("flame", "flame_median_s"),
                          ("series", "series_median_s"))
        if stats[key] > WINDOW_BUDGET_S
    ]
    if failures:
        raise SystemExit("window latency budget blown:\n  "
                         + "\n  ".join(failures))

    for width, stats in out["widths"].items():
        if float(width) < 0.25 and \
                stats["chunks_touched"] >= out["chunks_total"]:
            raise SystemExit(
                f"no pruning at width {width}: touched "
                f"{stats['chunks_touched']}/{out['chunks_total']} chunks")

    rss_ratio = out["peak_rss_kib"] / out["rss_open_kib"]
    out["rss_ratio"] = round(rss_ratio, 3)
    out["rss_ratio_budget"] = RSS_RATIO_BUDGET
    if rss_ratio > RSS_RATIO_BUDGET:
        raise SystemExit(
            f"RSS not flat: the window battery peaked at "
            f"{rss_ratio:.2f}x the post-open RSS "
            f"(budget {RSS_RATIO_BUDGET}x)")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="BENCH_trace.json",
                        help="output path, relative to the repository root")
    parser.add_argument("--repeats", type=int, default=15,
                        help="latency samples per width (default 15)")
    args = parser.parse_args(argv)

    report = {"benchmark": "time-dimension trace store",
              "python": platform.python_version()}
    with tempfile.TemporaryDirectory(prefix="trace-bench-") as tmp:
        report["windows"] = bench_windows(tmp, args.repeats)

    out = (REPO / args.output).resolve()
    out.write_text(json.dumps(report, indent=2) + "\n")

    w = report["windows"]
    print(f"\nwindowed read latency on the {w['n_events']}-event "
          f"{w['chunks_total']}-chunk store, medians "
          f"(budget {WINDOW_BUDGET_S * 1e3:.0f} ms each):")
    for width, stats in w["widths"].items():
        print(f"  {float(width) * 100:5.0f}% span "
              f"query {stats['median_s'] * 1e3:7.2f} ms  "
              f"flame {stats['flame_median_s'] * 1e3:7.2f} ms  "
              f"series {stats['series_median_s'] * 1e3:7.2f} ms  "
              f"{stats['chunks_touched']:3d}/{w['chunks_total']} chunks  "
              f"{stats['rows']:5d} rows")
    print(f"RSS {w['rss_ratio']}x post-open "
          f"(budget {RSS_RATIO_BUDGET}x); store built in {w['build_s']} s")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
