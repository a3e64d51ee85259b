"""The /v1 surface: every endpoint lives under it, nothing outside it.

A bare path such as ``/stats`` is not an endpoint: it answers the same
structured 404 (``unknown-endpoint``, with the request's trace id) as
any unknown route — in process, over HTTP, and through a pre-forked
pool, whose parent answers only the versioned monitoring paths itself.
The scenario below touches every endpoint in the registry, so the rule
is checked for each of them.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro.server.app import AnalysisApp
from repro.server.http import build_server
from repro.server.pool import ServerPool
from repro.server.schema import ENDPOINTS
from tests.server.conftest import scaled

#: one scenario touching every non-monitoring endpoint; {sid} is
#: substituted after the open call (deterministically "s1" on a fresh app)
SCENARIO = [
    ("GET", "/", None),
    ("GET", "/sessions", None),
    ("POST", "/sessions", {"workload": "fig1"}),
    ("GET", "/sessions/{sid}", None),
    ("GET", "/sessions/{sid}/metrics", None),
    ("POST", "/sessions/{sid}/metrics",
     {"name": "cpi", "formula": "$0 / $1", "unit": "cyc/ins"}),
    ("POST", "/sessions/{sid}/sort",
     {"metric": "cycles", "flavor": "exclusive", "descending": True}),
    ("GET", "/sessions/{sid}/hotpath", None),
    ("POST", "/sessions/{sid}/hotpath", {"view": "callers"}),
    ("GET", "/sessions/{sid}/render?view=flat&depth=2", None),
    ("POST", "/sessions/{sid}/render",
     {"view": "cct", "hot_path": True, "max_rows": 30}),
    ("GET", "/sessions/{sid}/table?view=callers&depth=2", None),
    ("POST", "/sessions/{sid}/table",
     {"view": "cct", "depth": 3, "max_rows": 40}),
    ("POST", "/sessions/{sid}/flatten", None),
    ("POST", "/sessions/{sid}/unflatten", None),
    # call-path queries: session mode on both verbs, plus a corpus-mode
    # attempt (no --corpus here, so a structured 404)
    ("POST", "/query",
     {"session": "s1", "query": {"pattern": "** / *", "limit": 5}}),
    ("GET", '/query?session=s1&query={{"pattern": "m"}}', None),
    ("POST", "/query", {"tenant": "t", "diagnose": True}),
    # stateless ensemble surface: a self-diff of the open session
    ("POST", "/diff", {"sessions": ["s1", "s1"], "depth": 1}),
    ("GET", '/diff?sessions=["s1","s1"]&max_rows=5', None),
    # trace views: no trace store on disk at this path, so both verbs
    # answer a structured 404 of their own
    ("POST", "/trace", {"path": "no-such.rpstore", "view": "flame"}),
    ("GET", "/trace?path=no-such.rpstore&view=series", None),
    # error paths
    ("GET", "/ensemble", None),
    ("POST", "/ensemble", {"databases": ["solo"]}),
    # corpus endpoints: these apps run without --corpus, so every call
    # answers a structured 404 of its own
    ("GET", "/corpus", None),
    ("GET", "/corpus/{tenant}/profiles", None),
    ("POST", "/corpus/{tenant}/profiles", {"name": "x", "data": "AA=="}),
    ("GET", "/corpus/{tenant}/profiles/{pid}", None),
    ("POST", "/corpus/{tenant}/profiles/{pid}/open", None),
    ("POST", "/corpus/{tenant}/compact", None),
    ("GET", "/corpus/{tenant}/policy", None),
    ("POST", "/corpus/{tenant}/policy", {"max_profiles": 1}),
    ("DELETE", "/corpus/{tenant}/profiles/{pid}", None),
    ("GET", "/sessions/nope", None),
    ("POST", "/sessions/{sid}/render", {"view": "bogus"}),
    ("PUT", "/sessions/{sid}/render", None),
    ("GET", "/definitely/not/an/endpoint", None),
    ("DELETE", "/sessions/{sid}", None),
]



BARE_MONITORING = ("/stats", "/sessions", "/metrics")


def drive(app: AnalysisApp, prefix: str):
    """Run SCENARIO against *app* under *prefix*: [(status, payload)]."""
    out = []
    for method, path, body in SCENARIO:
        path = prefix + path.format(sid="s1", tenant="t", pid="p000001")
        raw = json.dumps(body).encode() if body is not None else b""
        out.append(app.handle(method, path, raw))
    return out


def assert_unknown_route(status: int, payload: dict, trace_id: str = ""):
    assert status == 404
    error = payload["error"]
    assert error["code"] == "unknown-endpoint"
    assert error["status"] == 404
    assert error["trace_id"]
    if trace_id:
        assert error["trace_id"] == trace_id


class TestVersionedSurface:
    def test_scenario_bare_paths_are_unknown_routes(self):
        """Every endpoint answers under /v1; its bare path is a 404."""
        for step, (_status, payload) in zip(SCENARIO,
                                            drive(AnalysisApp(), "/v1")):
            error = payload.get("error") or {}
            unknown = error.get("code") == "unknown-endpoint"
            assert unknown == (step[1] == "/definitely/not/an/endpoint"), (
                f"/v1 routing broke at {step[:2]}")
        for status, payload in drive(AnalysisApp(), ""):
            assert_unknown_route(status, payload)

    def test_registry_coverage(self):
        """SCENARIO exercises every (method, path) in the registry except
        the three monitoring endpoints, tested on their own below."""
        covered = set()
        for method, path, _ in SCENARIO:
            covered.add((method, path.split("?")[0].replace("s1", "<sid>")))
        for endpoint in ENDPOINTS:
            if endpoint.path in ("/healthz", "/stats", "/metrics"):
                continue
            for op in endpoint.ops:
                pattern = (
                    endpoint.path.replace("<sid>", "{sid}")
                    .replace("<tenant>", "{tenant}")
                    .replace("<pid>", "{pid}")
                ) or "/"
                assert (op.method, pattern) in covered, (
                    f"{op.method} {endpoint.path} not covered by SCENARIO"
                )

    def test_bare_monitoring_paths_are_structured_404s(self):
        app = AnalysisApp()
        for path in BARE_MONITORING:
            status, payload, headers = app.handle_full("GET", path)
            assert_unknown_route(status, payload, headers["X-Trace-Id"])
            assert app.handle("GET", "/v1" + path)[0] == 200

        pool = ServerPool(workers=2, config={
            "workload": "fig1", "nranks": 2, "seed": 7,
            "max_body": 1 << 20}).start()
        try:
            host, port = pool.address
            for path in BARE_MONITORING:
                conn = http.client.HTTPConnection(host, port,
                                                  timeout=scaled(30))
                try:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                    assert_unknown_route(
                        response.status, payload,
                        response.getheader("X-Trace-Id"))
                finally:
                    conn.close()
        finally:
            pool.close()


class TestDeprecationSignals:
    def test_versioned_path_clean(self):
        app = AnalysisApp()
        status, _payload, headers = app.handle_full("GET", "/v1/sessions")
        assert status == 200
        assert "Deprecation" not in headers and "Link" not in headers
        assert headers["X-Trace-Id"]

    def test_trace_id_header_matches_error_payload(self):
        app = AnalysisApp()
        status, payload, headers = app.handle_full("GET", "/v1/sessions/nope")
        assert status == 404
        assert payload["error"]["trace_id"] == headers["X-Trace-Id"]


class TestOverHttp:
    """The headers and raw body survive the real HTTP shell."""

    @pytest.fixture()
    def server(self):
        srv = build_server(workload="fig1")
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            yield srv
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=scaled(10))

    def _get(self, server, path):
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=scaled(10)) as sock:
            sock.settimeout(scaled(10))
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: t\r\n"
                "Connection: close\r\n\r\n".encode()
            )
            buf = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                buf += chunk
        head, _, body = buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        return status, headers, body

    def test_metrics_prometheus_over_http(self, server):
        self._get(server, "/v1/sessions")  # record at least one request
        status, headers, body = self._get(server, "/v1/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        assert body.startswith(b"# HELP repro_server_requests_total")
        assert b"repro_server_request_duration_seconds_bucket" in body
