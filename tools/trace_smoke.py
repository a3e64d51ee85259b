#!/usr/bin/env python
"""Fast tier-1 smoke of the time-dimension trace pipeline, end to end.

One run proves, in a couple of seconds, that the whole trace path
works on this machine:

1. the simulator executes Figure 1 in trace mode on two ranks and the
   unbounded window reproduces the untimed scope set;
2. the trace lands in a time-partitioned ``.rpstore`` whose windowed
   query answers are **bit-identical** to the in-memory trace, and a
   narrow window provably touches fewer chunks than the store holds;
   the store's full and half windows equal, ``float.hex`` by
   ``float.hex`` on every node, the per-rank reference (each rank
   correlated and attributed on its own, then ``merge_ccts``);
3. killing the store writer before the manifest commit leaves nothing
   that opens as a store (manifest-last crash safety);
4. ``POST /v1/trace`` serves a flame slab over the store, the columnar
   wire form decodes to exactly the JSON rows, and the idleness series
   has the requested bins.

The exhaustive batteries live in ``tests/trace/``,
``tests/props/test_trace_props.py``, and
``tests/server/test_trace_endpoint.py``; this script only proves the
pipeline is alive inside the tier-1 gate.
"""

from __future__ import annotations

import base64
import json
import math
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.attribution import attribute  # noqa: E402
from repro.hpcprof.correlate import correlate  # noqa: E402
from repro.hpcprof.merge import merge_ccts  # noqa: E402
from repro.query import query, run_query  # noqa: E402
from repro.server import AnalysisApp  # noqa: E402
from repro.server.wire import COLUMNAR_CONTENT_TYPE, decode_columnar  # noqa: E402
from repro.sim.spmd import spmd_experiment, trace_spmd  # noqa: E402
from repro.sim.workloads import fig1  # noqa: E402
from repro.testing.faults import CrashPointHit, crashing_at  # noqa: E402
from repro.trace import create_trace_store, is_trace_path  # noqa: E402
from repro.trace.model import materialize_profile  # noqa: E402


def build_traces():
    traces = trace_spmd(fig1.build(), nranks=2, seed=7, trace_slices=3,
                        name="smoke-trace")
    windowed = traces.window_experiment(None, None)
    untimed = spmd_experiment(fig1.build(), nranks=2, seed=7)
    names = lambda exp: sorted(  # noqa: E731
        n.name for n in exp.cct.walk() if n.name)
    assert names(windowed) == names(untimed), (
        "window(None, None) diverged from the untimed experiment")
    return traces


def check_store(traces, tmp: str):
    span = traces.t_end - traces.t_begin
    path = os.path.join(tmp, "smoke-trace.rpstore")
    store = create_trace_store(traces, path,
                               chunk_duration=max(span / 5, 1e-6))
    metric = traces.metrics.by_id(0).name
    t0 = traces.t_begin + 0.25 * span
    t1 = traces.t_begin + 0.75 * span
    q = query("**/*").window(t0, t1).sort(metric)
    want = run_query(q, traces).to_rows()
    assert want, "smoke window query matched nothing"
    store.reset_counters()
    assert run_query(q, store).to_rows() == want, (
        "chunked store window diverged from in-memory trace")
    assert 0 < store.chunks_touched < store.chunks_total, (
        f"mid-half window should prune chunks "
        f"(touched {store.chunks_touched}/{store.chunks_total})")
    touched, total = store.chunks_touched, store.chunks_total
    for lo, hi in ((None, None), (t0, t1)):
        check_window_tree(store, lo, hi)
    store.close()
    return path, len(want), touched, total


def _signature(cct):
    def hexed(values):
        return [(mid, float(v).hex()) for mid, v in values.items()]

    return [(n.key, [c.key for c in n.children], hexed(n.raw),
             hexed(n.inclusive), hexed(n.exclusive)) for n in cct.walk()]


def check_window_tree(store, t0, t1) -> None:
    """The store's window tree equals the per-rank merge reference."""
    metrics, structure = store.skeleton_basis()
    ticks = store.window_ticks(t0, t1)
    ranks = []
    for r in range(store.nranks):
        cct = correlate(materialize_profile(ticks[r], store.contexts,
                                            metrics, store.resolutions),
                        structure)
        attribute(cct)
        ranks.append(cct)
    exp = store.window_experiment(t0, t1)
    assert _signature(exp.cct) == _signature(merge_ccts(ranks)), (
        f"window [{t0}, {t1}) tree diverged from the per-rank merge")
    assert [_signature(c) for c in exp.rank_ccts] == \
        [_signature(c) for c in ranks], (
        f"window [{t0}, {t1}) rank trees diverged from per-rank correlation")


def check_crash_safety(traces, tmp: str) -> None:
    doomed = os.path.join(tmp, "doomed.rpstore")
    try:
        with crashing_at("trace.write.manifest-staged"):
            create_trace_store(traces, doomed, chunk_duration=2.0)
    except CrashPointHit:
        pass
    else:  # pragma: no cover - would be a faults-layer bug
        raise AssertionError("crash point did not fire")
    assert not is_trace_path(doomed), (
        "a pre-commit crash left a readable (phantom) trace store")


def check_endpoint(store_path: str, tmp: str) -> None:
    app = AnalysisApp(corpus_root=os.path.join(tmp, "corpus"))
    try:
        body = json.dumps({"path": store_path, "rank": 0}).encode()
        status, as_json = app.handle("POST", "/v1/trace", body)
        assert status == 200, as_json
        assert as_json["span_count"] == len(as_json["rows"]) > 0

        status, blob, _h = app.handle_full(
            "POST", "/v1/trace", body,
            request_headers={"Accept": COLUMNAR_CONTENT_TYPE})
        assert status == 200 and blob.content_type == COLUMNAR_CONTENT_TYPE
        assert decode_columnar(blob.data)["rows"] == as_json["rows"], (
            "columnar flame slab diverged from JSON")

        series_body = json.dumps({"path": store_path, "view": "series",
                                  "bins": 6}).encode()
        status, series = app.handle("POST", "/v1/trace", series_body)
        assert status == 200, series
        assert len(series["idleness"]) == 6
        assert all(0.0 <= v <= 1.0 and math.isfinite(v)
                   for v in series["idleness"])
    finally:
        app.close()


def main() -> int:
    traces = build_traces()
    with tempfile.TemporaryDirectory(prefix="trace-smoke-") as tmp:
        store_path, rows, touched, total = check_store(traces, tmp)
        check_crash_safety(traces, tmp)
        check_endpoint(store_path, tmp)
    print(f"trace smoke OK: {traces.n_events} events on "
          f"{traces.nranks} ranks, {rows} windowed rows bit-identical "
          f"in-memory vs chunked ({touched}/{total} chunks touched), "
          f"full and half window trees == per-rank merge, "
          f"pre-commit crash leaves no store, /v1/trace JSON == columnar")
    return 0


if __name__ == "__main__":
    sys.exit(main())
