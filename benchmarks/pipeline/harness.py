"""Shared machinery of the pipeline benchmark: timing, spans, statistics.

Everything here runs inside the worker child (``worker.py``).  The
workload modules call into the toolkit's public functions and wrap each
call in a span named after the layer and call (``corpus.compact``,
``viewer.render.flat``); this module records those spans, turns them
into per-layer numbers, and exports them through the toolkit's own
self-profile path so ``repro-view`` shows the breakdown.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from repro.core.views import ViewKind
from repro.hpcprof import database
from repro.obs import SpanTracer, save_self_profile
from repro.viewer.session import ViewerSession

REPO = Path(__file__).resolve().parents[2]

#: the op root span; its children are the layer calls
OP_SPAN = "bench.op"

#: length of the stretches :func:`quieter_half` ranks; at the serve
#: workload's 20 req/s, one stretch holds one 20-request mix cycle
BLOCK_S = 1.0

#: the paper's three views, with the slug their spans are named by
VIEWS = ((ViewKind.CALLING_CONTEXT, "cct"), (ViewKind.CALLERS, "callers"),
         (ViewKind.FLAT, "flat"))

_clock = time.perf_counter


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The untraced recorder: op boundaries are timed, spans are no-ops."""

    def span(self, name: str):
        return _NULL_SPAN

    def begin_op(self, op_id: int, start: float | None = None) -> float:
        return _clock() if start is None else start

    def end_op(self) -> float:
        return _clock()


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec: "SpanRecorder", name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.idx = len(rec.spans)
        parent = rec.stack[-1] if rec.stack else None
        rec.spans.append([self.name, 0.0, 0.0, parent, rec.op_id])
        rec.stack.append(self.idx)
        rec.spans[self.idx][1] = _clock()
        return self

    def __exit__(self, *exc):
        end = _clock()
        rec = self.rec
        rec.stack.pop()
        rec.spans[self.idx][2] = end
        return False


class SpanRecorder:
    """Records ``[name, start, end, parent, op]`` spans in memory.

    One recorder per thread: the stack that links a span to its parent
    is not shared.  Spans are written out only when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def begin_op(self, op_id: int, start: float | None = None) -> float:
        """Open the op's root span; an open-loop op starts when it was due."""
        self.op_id = op_id
        self.stack.append(len(self.spans))
        start = _clock() if start is None else start
        self.spans.append([OP_SPAN, start, 0.0, None, op_id])
        return start

    def end_op(self) -> float:
        end = _clock()
        self.spans[self.stack.pop()][2] = end
        self.op_id = None
        return end


def merge_spans(recorders) -> list[dict]:
    """All recorders' spans as dicts with globally unique ids."""
    out: list[dict] = []
    for rec in recorders:
        base = len(out)
        for name, start, end, parent, op in rec.spans:
            out.append({
                "id": len(out),
                "name": name,
                "start": start,
                "end": end,
                "parent": None if parent is None else base + parent,
                "op": op,
            })
    return out


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span never overlap (one thread, one stack), so the
    covered part is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[s["id"]] for s in spans]


def layer_breakdown(spans: list[dict]) -> dict:
    """Per-layer numbers from the recorded spans.

    Returns ``{"ms": {call: median of the summed self time per op, over
    the ops that made the call}, "pct": {call: share of all op time},
    "op_seconds": total op time, "covered_seconds": time inside layer
    spans, "ops": op count}``.
    """
    selfs = self_times(spans)
    per_op: dict[str, dict[int, float]] = {}
    total_by_call: dict[str, float] = {}
    op_seconds = 0.0
    ops = set()
    for s, self_s in zip(spans, selfs):
        if s["name"] == OP_SPAN:
            op_seconds += s["end"] - s["start"]
            ops.add(s["op"])
            continue
        per_op.setdefault(s["name"], {}).setdefault(s["op"], 0.0)
        per_op[s["name"]][s["op"]] += self_s
        total_by_call[s["name"]] = total_by_call.get(s["name"], 0.0) + self_s
    ms = {call: statistics.median(by_op.values()) * 1e3
          for call, by_op in per_op.items()}
    pct = {
        call: 100.0 * total / op_seconds if op_seconds > 0 else 0.0
        for call, total in total_by_call.items()
    }
    covered = sum(total_by_call.values())
    return {"ms": ms, "pct": pct, "op_seconds": op_seconds,
            "covered_seconds": covered, "ops": len(ops)}


class RecordedSpans(SpanTracer):
    """A private, never-installed tracer holding the recorded spans.

    Its trie (span-name path -> calls, self seconds) is derived from the
    same clock readings as the span list, so the exported profile's root
    inclusive time can be checked against the summed op durations
    exactly.
    """

    def __init__(self, spans: list[dict]) -> None:
        super().__init__()
        self._recorded = spans

    def snapshot(self):
        paths: list[tuple] = []
        trie: dict[tuple, list] = {}
        for s, self_s in zip(self._recorded, self_times(self._recorded)):
            parent = s["parent"]
            path = (s["name"],) if parent is None \
                else paths[parent] + (s["name"],)
            paths.append(path)
            slot = trie.setdefault(path, [0, 0.0])
            slot[0] += 1
            slot[1] += self_s
        return {p: (calls, self_s) for p, (calls, self_s) in trie.items()}


def export_spans(spans: list[dict], out_dir: str, workload: str) -> dict:
    """Write ``spans.json`` and the self-profile ``.rpdb``; check Eq. 1.

    The exported experiment's root inclusive wall time is the sum of
    every span's self time, attributed by Eq. 1; it must equal the
    summed op durations to 1e-9 relative.
    """
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "spans.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "clock": "perf_counter seconds",
                   "spans": spans}, fh)
    db_path = os.path.join(out_dir, "self-profile.rpdb")
    save_self_profile(RecordedSpans(spans), db_path,
                      name=f"pipeline benchmark {workload}")
    loaded = database.load(db_path)
    mid = loaded.metrics.by_name("wall time (s)").mid
    root_inclusive = loaded.cct.root.inclusive.get(mid, 0.0)
    op_total = math.fsum(s["end"] - s["start"] for s in spans
                         if s["parent"] is None)
    rel_err = abs(root_inclusive - op_total) / op_total if op_total else 0.0
    flat = ViewerSession(loaded).render(ViewKind.FLAT, expand_depth=2)
    with open(os.path.join(out_dir, "self-profile.flat.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(flat + "\n")
    return {"spans_json": spans_path, "self_profile": db_path,
            "spans": len(spans), "root_inclusive_s": root_inclusive,
            "op_total_s": op_total, "eq1_rel_err": rel_err,
            "eq1_ok": rel_err <= 1e-9}


# --------------------------------------------------------------------- #
# closed loop for the in-process workloads
# --------------------------------------------------------------------- #
class Phase:
    """Latencies and failures of one measured phase."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def closed_loop(workload, recorder, *, seconds: float | None = None,
                ops: int | None = None, first_op: int = 0) -> Phase:
    """One caller, next op after the previous one (and its check) ends.

    Runs for *seconds* of wall time or exactly *ops* ops.  Each op's
    output is checked outside its timed interval; an op that raises or
    fails its check counts as failed.
    """
    phase = Phase()
    deadline = _clock() + seconds if seconds is not None else math.inf
    i = first_op
    while (ops is None and _clock() < deadline) or \
            (ops is not None and phase.attempted < ops):
        start = recorder.begin_op(i)
        try:
            output = workload.op(i, recorder)
            error = None
        except Exception:  # one broken op must not end the run
            output, error = None, traceback.format_exc(limit=4)
        end = recorder.end_op()
        phase.starts.append(start)
        phase.latencies.append(end - start)
        if error is not None:
            phase.fail(f"op {i} raised:\n{error}")
        else:
            for problem in workload.check(i, output):
                phase.fail(f"op {i}: {problem}")
                break
        i += 1
    return phase


# --------------------------------------------------------------------- #
# statistics and fingerprints
# --------------------------------------------------------------------- #
def quieter_half(starts: list[float], latencies: list[float],
                 kinds: list[str] | None = None) -> list[float]:
    """Latencies of the ops in the quieter half of a phase's time.

    The phase is cut into ``BLOCK_S`` stretches by op start, and the
    half of the stretches whose ops ran slowest is dropped.  An op's
    slowness is its latency over the median latency of its kind (all
    ops are one kind when *kinds* is not given), and a stretch ranks by
    the median slowness of its ops.  The host is shared: other tenants
    slow it by up to 1.7x for seconds at a time, and that only ever
    adds time.  A stretch's median moves only when most of its ops are
    slow, so a slow op the code causes now and then stays in the kept
    half at its own rate.
    """
    kinds = kinds or [""] * len(latencies)
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(latency)
    typical = {kind: statistics.median(v) for kind, v in by_kind.items()}
    t0 = starts[0]
    by_block: dict[int, list[tuple[float, float]]] = {}
    for start, latency, kind in zip(starts, latencies, kinds):
        by_block.setdefault(int((start - t0) / BLOCK_S), []).append(
            (latency / typical[kind], latency))
    blocks = sorted(by_block.values(),
                    key=lambda b: statistics.median(s for s, _ in b))
    return [x for b in blocks[:max(1, len(blocks) // 2)] for _, x in b]


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def digest(data) -> str:
    """Short content hash of text, bytes, or a JSON-able value."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    elif not isinstance(data, (bytes, bytearray)):
        data = json.dumps(data, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def query_fingerprint(result) -> tuple:
    """Row count, row names and every value as ``float.hex``."""
    import numpy as np

    values = np.asarray(result.values, dtype=np.float64).ravel()
    return (result.row_count, digest(list(result.names)),
            digest(" ".join(float(v).hex() for v in values)))


def peak_rss_mib() -> float:
    """This process's peak resident set (``ru_maxrss``), MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
