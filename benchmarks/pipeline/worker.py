#!/usr/bin/env python
"""Run one pipeline-benchmark workload in this (fresh) process.

Started by ``run.py``, once per workload; prints one JSON object as the
last line of standard output.  Set-up runs several times, each into a
fresh directory, and ``setup_s`` is their median.  The untraced phase
gives the end-to-end numbers; with ``--trace 1`` a traced phase of one
third of the untraced op count follows and gives the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from harness import (  # noqa: E402
    NullRecorder,
    SpanRecorder,
    closed_loop,
    export_spans,
    layer_breakdown,
    log,
    merge_spans,
    peak_rss_mib,
    percentile,
    quieter_half,
)

#: set-ups per run: at least the first number, and more, up to the
#: second, while the set-ups so far took under SETUP_BUDGET_S
SETUP_REPEATS = (3, 7)
SETUP_BUDGET_S = 2.0
#: share of --seconds the untraced phase gets in a traced run
UNTRACED_SHARE = 0.75
#: share of --seconds of serve's closed-loop capacity phase
CAPACITY_SHARE = 0.2
#: p90 needs ten samples beyond it
MIN_OPS = 100


def _setups(factory, args) -> tuple[object, list[float]]:
    """Set up several times (``SETUP_REPEATS``); keep the last, time all."""
    least, most = (1, 1) if args.smoke else SETUP_REPEATS
    samples, workload = [], None
    while len(samples) < least or \
            (len(samples) < most and sum(samples) < SETUP_BUDGET_S):
        if workload is not None:
            workload.close()
        workdir = tempfile.mkdtemp(prefix=f"setup{len(samples)}-",
                                   dir=args.workdir)
        start = time.perf_counter()
        workload = factory()
        workload.setup(workdir)
        samples.append(time.perf_counter() - start)
    return workload, samples


def _end_to_end(setup_samples, latencies_s, throughput, rss) -> dict:
    lat_ms = [x * 1e3 for x in latencies_s]
    if len(lat_ms) < MIN_OPS:
        log(f"warning: only {len(lat_ms)} ops counted; p90 has fewer than "
            f"ten samples beyond it")
    return {
        "setup_s": statistics.median(setup_samples),
        "latency_ms.p50": percentile(lat_ms, 50),
        "latency_ms.p90": percentile(lat_ms, 90),
        "throughput_ops_s": throughput,
        "peak_rss_mib": rss,
    }


def _per_layer(spans, counters, untraced_tput, traced_tput, artifacts,
               name) -> dict:
    breakdown = layer_breakdown(spans)
    export = export_spans(spans, os.path.join(artifacts, name), name)
    uncovered = 100.0 * (1.0 - breakdown["covered_seconds"]
                         / breakdown["op_seconds"])
    per_layer = {f"{call}.pct": v for call, v in breakdown["pct"].items()}
    per_layer.update(counters)
    per_layer["obs.trace_overhead_pct"] = \
        100.0 * (untraced_tput - traced_tput) / untraced_tput
    per_layer["obs.uncovered_pct"] = uncovered
    return {
        "per_layer": per_layer,
        "layer_ms": {f"{call}.ms": v for call, v in breakdown["ms"].items()},
        "trace": {**export, "traced_ops": breakdown["ops"],
                  "traced_throughput_ops_s": traced_tput,
                  "coverage_pct": 100.0 - uncovered},
    }


def run_inprocess(factory, args) -> dict:
    workload, setup_samples = _setups(factory, args)
    try:
        untraced_s = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
        workload.begin_phase()
        phase = closed_loop(workload, NullRecorder(), seconds=untraced_s)
        counters = workload.counters()
        kept = quieter_half(phase.starts, phase.latencies)
        result = {
            "attempted": phase.attempted, "failed": phase.failed,
            "problems": phase.problems,
            "end_to_end": _end_to_end(setup_samples, kept,
                                      len(kept) / sum(kept), peak_rss_mib()),
            "extra": {"setup_samples_s": setup_samples, **counters},
        }
        # tracing overhead compares whole phases, traced and untraced
        tput = phase.attempted / sum(phase.latencies)
        if args.trace:
            ops = max(3, round(phase.attempted / UNTRACED_SHARE / 3))
            recorder = SpanRecorder()
            workload.begin_phase()
            traced = closed_loop(workload, recorder, ops=ops,
                                 first_op=phase.attempted)
            result["attempted"] += traced.attempted
            result["failed"] += traced.failed
            result["problems"] += traced.problems
            traced_tput = traced.attempted / sum(traced.latencies)
            result.update(_per_layer(merge_spans([recorder]),
                                     workload.counters(), tput, traced_tput,
                                     args.artifacts, workload.name))
        return result
    finally:
        workload.close()


def run_serve(args) -> dict:
    from serve_workload import (
        CYCLE, REFERENCE_RPS, ServeWorkload, latency_summary, rate_sweep,
        traced_breakdown)

    workload, setup_samples = _setups(
        lambda: ServeWorkload(args.seed, args.smoke), args)
    try:
        seconds = args.seconds
        # a traced run also leaves room for the sweep and the traced phase
        reference_s = 0.3 if args.trace else 1.0 - CAPACITY_SHARE
        capacity = workload.drive(seconds=CAPACITY_SHARE * seconds)
        # start on a mix cycle, so each BLOCK_S of requests is one cycle
        reference = workload.drive(rate=REFERENCE_RPS,
                                   seconds=reference_s * seconds,
                                   first=-(-capacity["next"] // CYCLE) * CYCLE)
        tput = len(capacity["samples"]) / capacity["wall"]
        runs = [capacity, reference]
        extra = {
            "setup_samples_s": setup_samples,
            "loadgen.lateness_ms.p90":
                latency_summary(reference)["lateness_p90"],
        }
        result = {}
        if args.trace:
            max_rate, per_rate, sweep = rate_sweep(
                workload, max(0.04 * seconds, 0.2), 4 if args.smoke else 30,
                first=reference["next"])
            runs += sweep
            extra.update({f"serve.rate.{r}.latency_ms.p90": s["p90"]
                          for r, s in per_rate.items()})
            rss = workload.server.vm_hwm_mib()
            profile = os.path.join(args.artifacts, "serve",
                                   "server-self-profile.rpdb")
            # a third of the capacity phase's requests, and at least two
            # mix cycles, so every request kind occurs
            count = max(2 * CYCLE, round(tput * CAPACITY_SHARE * seconds / 3))
            traced, counters, traced_extra = traced_breakdown(
                workload, count, sweep[-1]["next"], profile)
            runs.append(traced)
            counters["max_rate_rps"] = max_rate
            extra.update(traced_extra)
            traced_tput = len(traced["samples"]) / traced["wall"]
            result.update(_per_layer(merge_spans(traced["recorders"]),
                                     counters, tput, traced_tput,
                                     args.artifacts, "serve"))
            result["trace"]["server_self_profile"] = profile
        else:
            rss = workload.server.vm_hwm_mib()
        samples = [s for run in runs for s in run["samples"]]
        problems = [s[4] for s in samples if s[4] is not None]
        kinds, starts, _sent, ends, _problems = zip(*reference["samples"])
        result.update({
            "attempted": len(samples), "failed": len(problems),
            "problems": problems[:5],
            "end_to_end": _end_to_end(
                setup_samples,
                quieter_half(starts, [e - s for s, e in zip(starts, ends)],
                             kinds),
                tput, rss),
            "extra": extra,
        })
        return result
    finally:
        workload.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True,
                        help="scratch directory for inputs and stores")
    parser.add_argument("--artifacts", required=True,
                        help="directory for spans.json and self-profiles")
    args = parser.parse_args(argv)

    if args.workload == "ingest":
        from ingest_workload import IngestWorkload

        result = run_inprocess(lambda: IngestWorkload(args.seed, args.smoke),
                               args)
    elif args.workload in ("explore-paper", "explore-scaled"):
        from explore_workload import ExploreWorkload

        result = run_inprocess(
            lambda: ExploreWorkload(args.workload, args.seed, args.smoke),
            args)
    elif args.workload == "serve":
        result = run_serve(args)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    result["workload"] = args.workload
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
