#!/usr/bin/env python
"""The pipeline benchmark: rank profiles to served tables, end to end.

Runs each workload (``ingest``, ``explore-paper``, ``explore-scaled``,
``serve``; see README.md) in a fresh child process, prints every metric
by name with its unit, checks every output, and prints one JSON object
as the last line::

    python benchmarks/pipeline/run.py --workload ingest --seed 1 \
        --seconds 20 --trace 0
    python benchmarks/pipeline/run.py --seed 1 [--traced] -o out.json

``--trace 0`` reports the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` (or ``--traced``) adds a traced phase
and reports the per-layer metrics, writing ``spans.json`` and a
self-profile ``.rpdb`` per workload under ``.pipeline-bench/artifacts``.
Without ``--workload`` all four run.  ``--smoke`` shrinks every size so
the whole set runs in seconds.  Exits non-zero, without a result line,
when a workload cannot run, and non-zero with ``"correct": false`` when
an output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("ingest", "explore-paper", "explore-scaled", "serve")
#: a run must end within 180 s; leave room to clean up
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 0.6
#: share of op time the layer spans of an in-process workload must cover
MIN_COVERAGE_PCT = 90.0


def _run_child(workload: str, args, workdir: str, artifacts: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--artifacts", artifacts]
    if args.smoke:
        cmd.append("--smoke")
    # own process group: a timeout also takes down a server it started;
    # temporary files stay inside the checkout's scratch directory
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            env={**os.environ, "TMPDIR": workdir})
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def _select(result: dict, declared: list[dict], key: str) -> dict:
    """The declared metrics, with units, from a worker result.

    A per-layer metric the workload never touches reads 0 (no time in
    that call, no requests of that kind).  A reported name that
    ``BENCHMARK.json`` does not declare is an error, so a renamed span
    cannot silently turn into a zero.
    """
    reported = result.get(key, {})
    names = {m["name"] for m in declared}
    unknown = sorted(set(reported) - names)
    if unknown:
        raise RuntimeError(f"{result['workload']}: undeclared {key} "
                           f"metrics {unknown}")
    if key == "end_to_end":
        missing = sorted(names - set(reported))
        if missing:
            raise RuntimeError(f"{result['workload']}: missing {missing}")
    return {m["name"]: {"value": float(reported.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in declared}


def _show(workload: str, result: dict) -> None:
    """Human-readable lines; per-layer metrics that read 0 are left out."""
    print(f"== {workload}: {result['attempted']} ops, "
          f"{result['failed']} failed ==")
    per_layer = {k: m for k, m in result.get("per_layer", {}).items()
                 if m["value"]}
    for name, m in {**result["end_to_end"], **per_layer}.items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    for name, value in sorted(result.get("layer_ms", {}).items()):
        print(f"  {name:<42} {value:>14.6g} ms (median per op)")
    for name, value in sorted(result.get("extra", {}).items()):
        if isinstance(value, (int, float)):
            print(f"  {name:<42} {value:>14.6g}")
    trace = result.get("trace")
    if trace:
        print(f"  spans: {trace['spans']} -> {trace['spans_json']}")
        print(f"  self-profile: {trace['self_profile']} "
              f"(repro-view --view flat)")
        print(f"  Eq. 1 root {trace['root_inclusive_s']:.9f} s vs ops "
              f"{trace['op_total_s']:.9f} s, rel err "
              f"{trace['eq1_rel_err']:.2e} -> "
              f"{'ok' if trace['eq1_ok'] else 'FAILED'}")
        print(f"  span coverage {trace['coverage_pct']:.2f}% of op time")
    for problem in result.get("problems", []):
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; a quick check that it all runs")
    parser.add_argument("-o", "--output", default=None,
                        help="write the full report (JSON) here")
    args = parser.parse_args(argv)
    # terminated from outside: unwind, so the child's group is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"run.py: no repro sources or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    selected = [args.workload] if args.workload else list(WORKLOADS)

    base = ROOT / ".pipeline-bench"
    base.mkdir(exist_ok=True)
    artifacts = str(base / "artifacts")
    run_dir = tempfile.mkdtemp(prefix="run-", dir=base)
    report = {"benchmark": "pipeline", "seed": args.seed,
              "seconds": args.seconds, "trace": bool(args.trace),
              "smoke": args.smoke, "cpu_count": os.cpu_count(),
              "python": platform.python_version(), "workloads": {}}
    try:
        for workload in selected:
            workdir = os.path.join(run_dir, workload)
            os.makedirs(workdir)
            result = _run_child(workload, args, workdir, artifacts)
            shutil.rmtree(workdir, ignore_errors=True)
            result["end_to_end"] = _select(result, spec["end_to_end"],
                                           "end_to_end")
            if args.trace:
                result["per_layer_reported"] = sorted(result["per_layer"])
                result["per_layer"] = _select(result, spec["per_layer"],
                                              "per_layer")
            trace = result.get("trace")
            result["correct"] = result["failed"] == 0 and \
                (trace is None or trace["eq1_ok"])
            if trace and workload != "serve" and \
                    trace["coverage_pct"] < MIN_COVERAGE_PCT:
                print(f"warning: {workload} spans cover only "
                      f"{trace['coverage_pct']:.1f}% of op time",
                      file=sys.stderr)
            report["workloads"][workload] = result
            _show(workload, result)
    except (RuntimeError, ValueError, OSError,
            subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    results = report["workloads"]
    key = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = next(iter(results.values()))[key]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items()
                   for name, m in r[key].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
