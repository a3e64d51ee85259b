"""Endpoint-level coverage of the analysis service core.

Drives :class:`AnalysisApp` in-process (no sockets): session lifecycle,
each paper operation, the cache-key/invalDation contract, the error
taxonomy, and the stats surface.
"""

from __future__ import annotations

import json

import pytest

from repro.core.metrics import MetricFlavor
from repro.core.views import ViewKind
from repro.hpcprof import database
from repro.hpcprof.experiment import Experiment
from repro.server import AnalysisApp
from repro.server.sessions import render_snapshot
from repro.sim.workloads import fig1
from repro.viewer.session import ViewerSession


def post(app, path, body=None):
    raw = json.dumps(body).encode() if body is not None else b""
    return app.handle("POST", path, raw)


@pytest.fixture()
def app():
    return AnalysisApp()


@pytest.fixture()
def sid(app):
    status, payload = post(app, "/sessions", {"workload": "fig1"})
    assert status == 201
    return payload["session"]["id"]


# --------------------------------------------------------------------- #
# session lifecycle
# --------------------------------------------------------------------- #
class TestSessions:
    def test_open_from_database_file(self, app, tmp_path):
        path = tmp_path / "fig1.rpdb"
        database.save(Experiment.from_program(fig1.build()), str(path))
        status, payload = post(app, "/sessions", {"database": str(path)})
        assert status == 201
        info = payload["session"]
        assert info["experiment"] == "fig1"
        assert info["scopes"] == 19
        assert info["loaded_views"] == 0  # lazy until first render

    def test_open_missing_database_404(self, app, tmp_path):
        status, payload = post(
            app, "/sessions", {"database": str(tmp_path / "nope.rpdb")}
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown-database"

    def test_open_unknown_workload_404(self, app):
        status, payload = post(app, "/sessions", {"workload": "linpack"})
        assert status == 404
        assert payload["error"]["code"] == "unknown-workload"

    def test_open_needs_exactly_one_source(self, app):
        for body in ({}, {"workload": "fig1", "database": "x.rpdb"}):
            status, payload = post(app, "/sessions", body)
            assert status == 400
            assert payload["error"]["code"] == "bad-session-source"

    def test_list_info_close(self, app, sid):
        status, payload = app.handle("GET", "/sessions")
        assert status == 200
        assert [s["id"] for s in payload["sessions"]] == [sid]
        status, payload = app.handle("GET", f"/sessions/{sid}")
        assert payload["session"]["generation"] == 0
        status, payload = app.handle("DELETE", f"/sessions/{sid}")
        assert (status, payload["closed"]) == (200, sid)
        status, payload = app.handle("GET", f"/sessions/{sid}")
        assert status == 404
        assert payload["error"]["code"] == "unknown-session"

    def test_session_ids_are_distinct(self, app):
        ids = {
            post(app, "/sessions", {"workload": "fig1"})[1]["session"]["id"]
            for _ in range(3)
        }
        assert len(ids) == 3


# --------------------------------------------------------------------- #
# the paper operations
# --------------------------------------------------------------------- #
class TestOperations:
    def test_render_matches_viewer_session(self, app, sid):
        """The served render equals a direct uncached ViewerSession render."""
        status, payload = post(app, f"/sessions/{sid}/render",
                               {"view": "cct", "depth": 3})
        assert status == 200
        fresh = ViewerSession(Experiment.from_program(fig1.build()))
        expected = render_snapshot(fresh, ViewKind.CALLING_CONTEXT, depth=3)
        assert payload["text"] == expected["text"]

    def test_render_all_kinds(self, app, sid):
        for kind in ("cct", "callers", "flat"):
            status, payload = post(app, f"/sessions/{sid}/render",
                                   {"view": kind})
            assert status == 200
            assert payload["view"] in (kind, "calling-context")

    def test_sort_sets_default_column(self, app, sid):
        status, _ = post(app, f"/sessions/{sid}/sort",
                         {"metric": "cycles", "flavor": "exclusive",
                          "descending": False})
        assert status == 200
        _, payload = post(app, f"/sessions/{sid}/render", {"view": "cct"})
        fresh = ViewerSession(Experiment.from_program(fig1.build()))
        expected = render_snapshot(
            fresh, ViewKind.CALLING_CONTEXT, metric="cycles",
            flavor=MetricFlavor.EXCLUSIVE, descending=False,
        )
        assert payload["text"] == expected["text"]

    def test_hotpath(self, app, sid):
        status, payload = post(app, f"/sessions/{sid}/hotpath",
                               {"threshold": 0.5})
        assert status == 200
        assert payload["path"][0] == "m"
        assert payload["hotspot"] == payload["path"][-1]
        assert len(payload["values"]) == len(payload["path"])

    def test_hotpath_bad_threshold(self, app, sid):
        status, payload = post(app, f"/sessions/{sid}/hotpath",
                               {"threshold": 1.5})
        assert status == 400
        assert payload["error"]["code"] == "bad-view-operation"

    def test_render_hot_path_inline(self, app, sid):
        status, payload = post(app, f"/sessions/{sid}/render",
                               {"view": "cct", "hot_path": True})
        assert status == 200
        assert payload["hot_path"]["path"][0] == "m"
        assert "*" in payload["text"]  # flame marker on the rendered rows

    def test_flatten_unflatten(self, app, sid):
        status, payload = post(app, f"/sessions/{sid}/flatten")
        assert (status, payload["flatten_depth"]) == (200, 1)
        _, flat = post(app, f"/sessions/{sid}/render", {"view": "flat"})
        status, payload = post(app, f"/sessions/{sid}/unflatten")
        assert (status, payload["flatten_depth"]) == (200, 0)
        _, unflat = post(app, f"/sessions/{sid}/render", {"view": "flat"})
        assert flat["text"] != unflat["text"]

    def test_derived_metric_appears_in_renders(self, app, sid):
        status, payload = post(app, f"/sessions/{sid}/metrics",
                               {"name": "half", "formula": "$0 / 2"})
        assert status == 201
        assert payload["metric"]["id"] == 1
        _, listing = app.handle("GET", f"/sessions/{sid}/metrics")
        assert [m["name"] for m in listing["metrics"]] == ["cycles", "half"]
        _, rendered = post(app, f"/sessions/{sid}/render", {"view": "cct"})
        assert "half (I)" in rendered["text"]

    def test_derived_metric_bad_formula(self, app, sid):
        status, payload = post(app, f"/sessions/{sid}/metrics",
                               {"name": "bad", "formula": "$0 +"})
        assert status == 400
        assert payload["error"]["code"] == "bad-formula"

    def test_duplicate_metric_400(self, app, sid):
        post(app, f"/sessions/{sid}/metrics", {"name": "d", "formula": "$0"})
        status, payload = post(app, f"/sessions/{sid}/metrics",
                               {"name": "d", "formula": "$0"})
        assert status == 400
        assert payload["error"]["code"] == "bad-metric"

    def test_unknown_metric_404(self, app, sid):
        for path, body in (
            (f"/sessions/{sid}/sort", {"metric": "watts"}),
            (f"/sessions/{sid}/render", {"metric": "watts"}),
            (f"/sessions/{sid}/hotpath", {"metric": "watts"}),
        ):
            status, payload = post(app, path, body)
            assert status == 404
            assert payload["error"]["code"] == "unknown-metric"


# --------------------------------------------------------------------- #
# cache behaviour
# --------------------------------------------------------------------- #
class TestCache:
    def test_repeat_render_hits_cache(self, app, sid):
        body = {"view": "cct", "depth": 2}
        first = post(app, f"/sessions/{sid}/render", body)[1]
        assert app.cache.stats()["hits"] == 0
        second = post(app, f"/sessions/{sid}/render", body)[1]
        assert app.cache.stats()["hits"] == 1
        assert first["text"] == second["text"]

    def test_mutation_invalidates(self, app, sid):
        body = {"view": "cct", "depth": 2}
        post(app, f"/sessions/{sid}/render", body)
        post(app, f"/sessions/{sid}/metrics",
             {"name": "dbl", "formula": "2 * $0"})
        assert app.cache.stats()["entries"] == 0  # eagerly dropped
        payload = post(app, f"/sessions/{sid}/render", body)[1]
        assert "dbl (I)" in payload["text"]  # not the stale pre-mutation render

    def test_distinct_keys_do_not_collide(self, app, sid):
        a = post(app, f"/sessions/{sid}/render", {"view": "cct", "depth": 1})[1]
        b = post(app, f"/sessions/{sid}/render", {"view": "cct", "depth": 3})[1]
        c = post(app, f"/sessions/{sid}/render",
                 {"view": "cct", "depth": 1, "descending": False})[1]
        assert a["text"] != b["text"]
        assert a["text"] != c["text"]

    def test_cache_disabled(self):
        app = AnalysisApp(cache_size=0)
        sid = post(app, "/sessions", {"workload": "fig1"})[1]["session"]["id"]
        body = {"view": "cct", "depth": 2}
        first = post(app, f"/sessions/{sid}/render", body)[1]
        second = post(app, f"/sessions/{sid}/render", body)[1]
        assert first["text"] == second["text"]
        assert app.cache.stats()["hits"] == 0

    def test_per_operation_counters(self, app, sid):
        """Hits, misses and fills are counted per cached operation in
        /v1/stats and in the Prometheus exposition."""
        body = {"view": "cct", "depth": 2}
        post(app, f"/sessions/{sid}/render", body)
        post(app, f"/sessions/{sid}/render", body)
        app.handle("GET", f"/v1/sessions/{sid}/hotpath")
        ops = app.handle("GET", "/v1/stats")[1]["cache"]["operations"]
        assert ops == {
            "hotpath": {"hits": 0, "misses": 1, "fills": 1},
            "render": {"hits": 1, "misses": 1, "fills": 1},
        }
        text = app.prometheus_text()
        assert ('repro_server_response_cache_hits_total'
                '{operation="render"} 1') in text
        assert ('repro_server_response_cache_fills_total'
                '{operation="hotpath"} 1') in text

    def test_per_operation_counters_sum_across_states(self):
        """A pool's exposition sums the per-operation counters of its
        workers' states."""
        from repro.server.app import prometheus_from_states

        states = []
        for hits in (2, 3):
            app = AnalysisApp()
            opened = post(app, "/sessions", {"workload": "fig1"})[1]
            sid = opened["session"]["id"]
            for _ in range(hits + 1):
                post(app, f"/sessions/{sid}/render", {"view": "flat"})
            states.append(app.metrics_state())
        text = prometheus_from_states(states)
        assert ('repro_server_response_cache_hits_total'
                '{operation="render"} 5') in text
        assert ('repro_server_response_cache_misses_total'
                '{operation="render"} 2') in text

    def test_close_purges_session_entries(self, app, sid):
        post(app, f"/sessions/{sid}/render", {"view": "cct"})
        assert app.cache.stats()["entries"] == 1
        app.handle("DELETE", f"/sessions/{sid}")
        assert app.cache.stats()["entries"] == 0


# --------------------------------------------------------------------- #
# error taxonomy and stats
# --------------------------------------------------------------------- #
class TestErrorsAndStats:
    def test_unknown_endpoint_404(self, app):
        status, payload = app.handle("GET", "/frobnicate")
        assert status == 404
        assert payload["error"]["code"] == "unknown-endpoint"

    def test_method_not_allowed_405(self, app, sid):
        status, payload = app.handle("DELETE", f"/sessions/{sid}/render")
        assert status == 405
        assert "GET" in payload["error"]["message"]

    def test_bad_field_types_400(self, app, sid):
        cases = [
            ({"view": 7}, "bad-field-type"),
            ({"view": "sideways"}, "bad-view-kind"),
            ({"depth": "three"}, "bad-field-type"),
            ({"depth": -1}, "bad-field-value"),
            ({"hot_path": "yes"}, "bad-field-type"),
            ({"max_rows": 0}, "bad-field-value"),
            ({"flavor": "diagonal"}, "bad-flavor"),
        ]
        for body, code in cases:
            status, payload = post(app, f"/sessions/{sid}/render", body)
            assert status == 400, body
            assert payload["error"]["code"] == code

    def test_missing_required_field(self, app, sid):
        status, payload = post(app, f"/sessions/{sid}/metrics", {"name": "x"})
        assert status == 400
        assert payload["error"]["code"] == "missing-field"

    def test_non_object_body_400(self, app, sid):
        status, payload = app.handle(
            "POST", f"/sessions/{sid}/render", b'["view", "cct"]'
        )
        assert status == 400
        assert payload["error"]["code"] == "bad-request-shape"

    def test_oversized_body_413(self, sid):
        app413 = AnalysisApp(max_body=64)
        status, payload = app413.handle("POST", "/sessions", b"x" * 65)
        assert status == 413
        assert payload["error"]["code"] == "payload-too-large"

    def test_help_listing(self, app):
        status, payload = app.handle("GET", "/")
        assert status == 200
        assert any("/render" in line for line in payload["endpoints"])

    def test_stats_counts_and_latency(self, app, sid):
        post(app, f"/sessions/{sid}/render", {"view": "cct"})
        post(app, f"/sessions/{sid}/render", {"view": "flat"})
        app.handle("GET", "/bogus")
        status, payload = app.handle("GET", "/stats")
        assert status == 200
        by_ep = payload["endpoints"]
        render = by_ep["/sessions/<sid>/render"]
        assert render["count"] == 2
        assert render["latency_ms"]["max"] >= render["latency_ms"]["min"] > 0
        assert by_ep["unmatched"]["errors"] == 1
        # +1: opening the session; the in-flight /stats request is only
        # recorded after its payload is built, so it is not yet counted
        assert payload["requests"]["total"] == 4
        assert payload["cache"]["misses"] == 2
