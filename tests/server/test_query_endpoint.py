"""``/v1/query`` endpoint tests: session mode, corpus modes, columnar
negotiation, structured errors, and the sid-claim routing contract."""

from __future__ import annotations

import base64
import json

import pytest

from repro.hpcprof import binio
from repro.hpcprof.experiment import Experiment
from repro.server import AnalysisApp
from repro.server.wire import COLUMNAR_CONTENT_TYPE, decode_columnar
from repro.sim.workloads import fig1

_ERROR_FIELDS = {"status", "code", "message", "retry_after", "trace_id"}


@pytest.fixture(scope="module")
def payload() -> bytes:
    return binio.dumps_binary(Experiment.from_program(fig1.build()))


@pytest.fixture()
def app(tmp_path):
    app = AnalysisApp(corpus_root=str(tmp_path / "corpus"))
    yield app
    app.close()


def call(app, method, path, body=None):
    raw = json.dumps(body).encode() if body is not None else b""
    return app.handle(method, path, raw)


def upload(app, tenant, payload, name, **extra):
    body = {"name": name, "data": base64.b64encode(payload).decode()}
    body.update(extra)
    status, out = call(app, "POST", f"/v1/corpus/{tenant}/profiles", body)
    assert status == 201, out
    return out["profile"]


def open_session(app):
    status, out = call(app, "POST", "/v1/sessions", {"workload": "fig1"})
    assert status == 201
    return out["session"]["id"]


def assert_error(status, payload, code):
    assert status >= 400
    error = payload["error"]
    assert error["code"] == code
    assert set(error) <= _ERROR_FIELDS and error["trace_id"]


class TestSessionMode:
    def test_post_query(self, app):
        sid = open_session(app)
        status, out = call(app, "POST", "/v1/query", {
            "session": sid,
            "query": {"pattern": "m / ** / *", "sort": {"metric": "cycles"},
                      "limit": 5},
        })
        assert status == 200
        assert out["session"] == sid
        assert out["row_count"] == 5
        assert len(out["rows"]) == 5
        assert "cycles (I)" in [c["name"] for c in out["columns"]]

    def test_bare_pattern_string(self, app):
        sid = open_session(app)
        status, out = call(app, "POST", "/v1/query",
                           {"session": sid, "query": "m"})
        assert status == 200
        assert [r[0] for r in out["rows"]] == ["m"]

    def test_get_with_query_params(self, app):
        sid = open_session(app)
        spec = json.dumps({"pattern": "m"})
        status, out = call(app, "GET",
                           f"/v1/query?session={sid}&query={spec}")
        assert status == 200
        assert [r[0] for r in out["rows"]] == ["m"]

    def test_columnar_negotiation_matches_json(self, app):
        sid = open_session(app)
        body = {"session": sid, "query": {"pattern": "**/*"}}
        raw = json.dumps(body).encode()
        _s, as_json, _h = app.handle_full("POST", "/v1/query", raw)
        status, blob, _h2 = app.handle_full(
            "POST", "/v1/query", raw,
            request_headers={"Accept": COLUMNAR_CONTENT_TYPE},
        )
        assert status == 200
        assert blob.content_type == COLUMNAR_CONTENT_TYPE
        decoded = decode_columnar(blob.data)
        assert decoded["rows"] == as_json["rows"]

    def test_generation_is_stamped_in_both_encodings(self, app):
        """Both encodings report the generation the query ran at: after
        one derived metric, JSON and columnar both say 1."""
        sid = open_session(app)
        status, _ = call(app, "POST", f"/v1/sessions/{sid}/metrics",
                         {"name": "dbl", "formula": "2 * $0"})
        assert status == 201
        raw = json.dumps({"session": sid, "query": "**/*"}).encode()
        _s, as_json, _h = app.handle_full("POST", "/v1/query", raw)
        _s, blob, _h = app.handle_full(
            "POST", "/v1/query", raw,
            request_headers={"Accept": COLUMNAR_CONTENT_TYPE},
        )
        assert as_json["generation"] == 1
        assert decode_columnar(blob.data)["generation"] == 1
        assert "dbl (I)" in [c["name"] for c in as_json["columns"]]

    def test_repeat_is_a_cache_hit_until_a_mutation(self, app):
        sid = open_session(app)
        raw = json.dumps({"session": sid, "query": "m / *"}).encode()
        _s, first, _h = app.handle_full("POST", "/v1/query", raw)
        _s, second, _h = app.handle_full("POST", "/v1/query", raw)
        counts = app.cache.stats()["operations"]["query"]
        assert counts == {"hits": 1, "misses": 1, "fills": 1}
        assert second.data == first.data
        # the bare-string and object spellings share one canonical key
        call(app, "POST", "/v1/query",
             {"session": sid, "query": {"pattern": "m / *"}})
        assert app.cache.stats()["operations"]["query"]["hits"] == 2
        call(app, "POST", f"/v1/sessions/{sid}/flatten")
        _s, third, _h = app.handle_full("POST", "/v1/query", raw)
        assert app.cache.stats()["operations"]["query"]["misses"] == 2
        assert third["generation"] == 1

    def test_spans_split_compile_evaluate_encode(self, app):
        """A miss runs all three query stages under the request span; a
        cache hit only compiles (the compiled query is the key)."""
        from repro.obs import SpanTracer, install, uninstall

        sid = open_session(app)
        raw = json.dumps({"session": sid, "query": "**/*"}).encode()
        stages = ("query.compile", "query.evaluate", "query.encode")
        seen = []
        for _ in range(2):
            tracer = install(SpanTracer())
            try:
                status, _out = app.handle("POST", "/v1/query", raw)
            finally:
                uninstall()
            assert status == 200
            seen.append({path[-1] for path in tracer.snapshot()
                         if path[0] == "server.request /query"
                         and path[-1] in stages})
        assert seen == [set(stages), {"query.compile"}]

    def test_unknown_session(self, app):
        status, out = call(app, "POST", "/v1/query",
                           {"session": "nope", "query": "m"})
        assert_error(status, out, "unknown-session")

    def test_bad_pattern_is_bad_query(self, app):
        sid = open_session(app)
        status, out = call(app, "POST", "/v1/query",
                           {"session": sid, "query": "m //"})
        assert_error(status, out, "bad-query")

    def test_unknown_metric(self, app):
        sid = open_session(app)
        status, out = call(app, "POST", "/v1/query", {
            "session": sid,
            "query": {"pattern": "m", "sort": {"metric": "bogus"}},
        })
        assert_error(status, out, "unknown-metric")

    def test_unhashable_sort_selector_is_bad_query(self, app):
        """A spec the parser accepts but cannot key (a list as the sort
        metric) is still a structured 400, never a cache-key crash."""
        sid = open_session(app)
        status, out = call(app, "POST", "/v1/query", {
            "session": sid,
            "query": {"pattern": "m", "sort": {"metric": ["cycles"]}},
        })
        assert_error(status, out, "bad-query")

    def test_session_and_tenant_conflict(self, app):
        sid = open_session(app)
        status, out = call(app, "POST", "/v1/query",
                           {"session": sid, "tenant": "t", "query": "m"})
        assert_error(status, out, "bad-query")

    def test_query_required(self, app):
        sid = open_session(app)
        status, out = call(app, "POST", "/v1/query", {"session": sid})
        assert_error(status, out, "bad-query")


class TestCorpusModes:
    def test_single_profile(self, app, payload):
        profile = upload(app, "t", payload, "run.rpdb")
        status, out = call(app, "POST", "/v1/query", {
            "tenant": "t", "profile": profile["id"], "query": "m",
        })
        assert status == 200
        assert out["tenant"] == "t"
        assert out["profile"] == profile["id"]
        assert [r[0] for r in out["rows"]] == ["m"]

    def test_sweep_over_tenant(self, app, payload):
        for i in range(3):
            upload(app, "t", payload, f"r{i}.rpdb", group="nightly")
        status, out = call(app, "POST", "/v1/query",
                           {"tenant": "t", "query": "m"})
        assert status == 200
        assert len(out["profiles"]) == 3
        for table in out["profiles"]:
            assert table["group"] == "nightly"
            assert [r[0] for r in table["rows"]] == ["m"]

    def test_diagnose(self, app, payload):
        upload(app, "t", payload, "r0.rpdb", group="nightly")
        upload(app, "t", payload, "r1.rpdb", group="nightly")
        status, out = call(app, "POST", "/v1/query",
                           {"tenant": "t", "diagnose": True})
        assert status == 200
        assert out["tenant"] == "t"
        assert out["metric"] == "cycles"
        assert out["profiles_examined"] == 2
        assert out["findings"] == []

    def test_unknown_profile(self, app, payload):
        upload(app, "t", payload, "run.rpdb")
        status, out = call(app, "POST", "/v1/query", {
            "tenant": "t", "profile": "p999999", "query": "m",
        })
        assert_error(status, out, "unknown-profile")

    def test_no_corpus_configured(self):
        app = AnalysisApp()
        try:
            status, out = call(app, "POST", "/v1/query",
                               {"tenant": "t", "query": "m"})
            assert_error(status, out, "no-corpus")
        finally:
            app.close()

    def test_diagnose_requires_tenant(self, app):
        sid = open_session(app)
        status, out = call(app, "POST", "/v1/query",
                           {"session": sid, "diagnose": True})
        assert_error(status, out, "bad-query")


class TestSidClaimRouting:
    """Corpus open-by-id can carry ``?sid=`` so the pool parent routes
    the open to the worker that will own the session by affinity."""

    def test_open_with_requested_sid(self, app, payload):
        profile = upload(app, "t", payload, "run.rpdb")
        status, out = call(
            app, "POST",
            f"/v1/corpus/t/profiles/{profile['id']}/open?sid=client-1", {},
        )
        assert status == 201
        assert out["session"]["id"] == "client-1"
        status, _ = call(app, "GET", "/v1/sessions/client-1")
        assert status == 200

    def test_sid_collision_conflicts(self, app, payload):
        profile = upload(app, "t", payload, "run.rpdb")
        path = f"/v1/corpus/t/profiles/{profile['id']}/open?sid=dup"
        status, _ = call(app, "POST", path, {})
        assert status == 201
        status, out = call(app, "POST", path, {})
        assert_error(status, out, "session-exists")

    def test_invalid_sid_rejected(self, app, payload):
        profile = upload(app, "t", payload, "run.rpdb")
        status, out = call(
            app, "POST",
            f"/v1/corpus/t/profiles/{profile['id']}/open?sid=bad%20sid", {},
        )
        assert_error(status, out, "bad-sid")
