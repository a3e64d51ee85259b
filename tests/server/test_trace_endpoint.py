"""``/v1/trace`` endpoint tests: flame slabs, idleness series, columnar
negotiation, chunk-pruning visibility, and the structured error surface."""

from __future__ import annotations

import base64
import json

import pytest

from repro.server import AnalysisApp
from repro.server.wire import COLUMNAR_CONTENT_TYPE, decode_columnar

_ERROR_FIELDS = {"status", "code", "message", "retry_after", "trace_id"}


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory) -> str:
    from repro.sim.spmd import trace_spmd
    from repro.sim.workloads import fig1
    from repro.trace import create_trace_store

    traces = trace_spmd(fig1.build(), nranks=2, seed=7, trace_slices=3,
                        name="ep-trace")
    path = str(tmp_path_factory.mktemp("trace") / "t.rpstore")
    span = traces.t_end - traces.t_begin
    create_trace_store(traces, path,
                       chunk_duration=max(span / 5, 1e-6)).close()
    return path


@pytest.fixture()
def app(tmp_path):
    app = AnalysisApp(corpus_root=str(tmp_path / "corpus"))
    yield app
    app.close()


def call(app, body, headers=None):
    raw = json.dumps(body).encode()
    return app.handle("POST", "/v1/trace", raw,
                      request_headers=headers or {})


def assert_error(out, status, code):
    http, payload = out
    assert http == status
    assert _ERROR_FIELDS - {"retry_after"} <= set(payload["error"])
    assert payload["error"]["code"] == code


def test_flame_view_json(app, trace_path):
    status, out = call(app, {"path": trace_path, "rank": 0})
    assert status == 200
    assert out["path"] == trace_path
    assert out["span_count"] == len(out["rows"])
    assert out["labels"][:2] == ["begin", "end"]
    assert out["chunks_total"] >= 2
    assert out["chunks_touched"] == out["chunks_total"]  # whole trace


def test_flame_view_windowed_prunes_chunks(app, trace_path):
    whole_status, whole = call(app, {"path": trace_path})
    t0 = 0.25 * 9.0
    status, out = call(app, {"path": trace_path, "t0": t0,
                             "t1": t0 + 0.5})
    assert status == 200
    assert out["chunks_touched"] < out["chunks_total"]
    assert out["span_count"] <= whole["span_count"]


def test_flame_view_columnar_negotiation(app, trace_path):
    body = {"path": trace_path, "rank": 1}
    _status, js = call(app, body)
    status, out = call(app, body,
                       headers={"accept": COLUMNAR_CONTENT_TYPE})
    assert status == 200
    assert out["content_type"] == COLUMNAR_CONTENT_TYPE
    decoded = decode_columnar(base64.b64decode(out["base64"]))
    assert decoded["rows"] == js["rows"]
    assert decoded["view"] == "trace-flame"
    names = [c["name"] for c in decoded["columns"]]
    assert set(js["labels"]) <= set(names)


def test_series_view(app, trace_path):
    status, out = call(app, {"path": trace_path, "view": "series",
                             "bins": 4})
    assert status == 200
    assert out["bins"] == 4
    assert len(out["idleness"]) == 4
    assert out["nranks"] == 2
    assert out["chunks_total"] >= 2


def test_series_view_counts_each_chunk_once(app, trace_path):
    """``chunks_touched`` counts chunks, not chunk-rank pairs: the whole
    trace touches every chunk exactly once, a narrow window fewer."""
    _status, whole = call(app, {"path": trace_path, "view": "series",
                                "bins": 4})
    assert whole["chunks_touched"] == whole["chunks_total"]
    t0 = 0.25 * 9.0
    _status, narrow = call(app, {"path": trace_path, "view": "series",
                                 "t0": t0, "t1": t0 + 0.5, "bins": 4})
    assert 0 < narrow["chunks_touched"] < narrow["chunks_total"]


def test_series_view_via_get(app, trace_path):
    status, out = app.handle(
        "GET",
        f"/v1/trace?path={trace_path}&view=series&bins=2", b"")
    assert status == 200
    assert out["bins"] == 2


def test_unknown_trace_404(app, tmp_path):
    out = call(app, {"path": str(tmp_path / "nope")})
    assert_error(out, 404, "unknown-trace")


def test_unknown_metric_404(app, trace_path):
    out = call(app, {"path": trace_path, "metric": "nope"})
    assert_error(out, 404, "unknown-metric")


def test_bad_view_400(app, trace_path):
    out = call(app, {"path": trace_path, "view": "pie"})
    assert_error(out, 400, "bad-trace-view")


def test_rank_out_of_range_400(app, trace_path):
    out = call(app, {"path": trace_path, "rank": 99})
    assert_error(out, 400, "trace-error")


def test_missing_path_400(app):
    out = call(app, {"rank": 0})
    assert_error(out, 400, "missing-field")


def test_corrupt_store_is_structured(app, trace_path, tmp_path):
    import os
    import shutil

    broken = str(tmp_path / "broken.rpstore")
    shutil.copytree(trace_path, broken)
    with open(os.path.join(broken, "manifest.json"), "w") as fh:
        fh.write("{not json")
    status, payload = call(app, {"path": broken})
    assert status in (400, 422, 500, 409)
    assert payload["error"]["code"] == "trace-corrupt"


def test_trace_endpoint_is_declared():
    from repro.server.schema import ENDPOINTS

    trace = next(e for e in ENDPOINTS if e.path == "/trace")
    assert sorted(op.method for op in trace.ops) == ["GET", "POST"]
    errors = {code for op in trace.ops for code in op.errors}
    assert {"unknown-trace", "trace-corrupt", "bad-trace-view"} <= errors
