"""Benchmarks for the concurrent analysis service.

Measures the request pipeline at two levels: the transport-independent
app core (decode → route → lock → cache → render) and the full HTTP
round trip through ``ThreadingHTTPServer``.  The cached-render benchmark
is the tier-1 ``bench_smoke`` sentinel for this subsystem: it keeps the
server importable and its hot path passing on every run.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.obs import span, uninstall
from repro.server import AnalysisApp, build_server

RENDER = json.dumps({"view": "cct", "depth": 3}).encode()


@pytest.fixture(scope="module")
def app():
    instance = AnalysisApp()
    status, _ = instance.handle("POST", "/v1/sessions", b'{"workload": "fig1"}')
    assert status == 201
    return instance


@pytest.fixture(scope="module")
def cold_app():
    instance = AnalysisApp(cache_size=0)
    status, _ = instance.handle("POST", "/v1/sessions", b'{"workload": "fig1"}')
    assert status == 201
    return instance


@pytest.fixture(scope="module")
def server():
    srv = build_server(workload="fig1", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


@pytest.mark.bench_smoke
def test_bench_server_cached_render(benchmark, app):
    """App-core latency of a cache-hit render (the steady-state path)."""

    def hit():
        status, payload = app.handle("POST", "/v1/sessions/s1/render", RENDER)
        assert status == 200
        return payload

    hit()  # warm: populate the cache so the measured path is the hit
    payload = benchmark(hit)
    assert payload["text"].startswith("== Calling Context View: fig1 ==")
    assert app.cache.stats()["hits"] >= 1


def test_bench_server_uncached_render(benchmark, cold_app):
    """Full render cost per request when caching is disabled."""

    def miss():
        status, payload = cold_app.handle(
            "POST", "/v1/sessions/s1/render", RENDER
        )
        assert status == 200
        return payload

    payload = benchmark(miss)
    assert "cycles (I)" in payload["text"]


def test_bench_server_hotpath(benchmark, cold_app):
    def run():
        status, payload = cold_app.handle(
            "POST", "/v1/sessions/s1/hotpath", b'{"threshold": 0.5}'
        )
        assert status == 200
        return payload

    payload = benchmark(run)
    assert payload["hotspot"]


@pytest.mark.bench_smoke
def test_bench_disabled_span_is_noop(benchmark):
    """Cost of one *disabled* span hook site — what every untraced
    deployment pays at each instrumentation point.  Must stay within
    nanoseconds: one global read plus a shared no-op context manager."""
    uninstall()  # ensure the disabled fast path is the one measured

    def hook():
        with span("bench.noop"):
            pass

    benchmark(hook)


def test_bench_server_http_roundtrip(benchmark, server):
    """Socket-to-socket latency of one cached render over real HTTP."""
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}/sessions/s1/render"

    def roundtrip():
        req = urllib.request.Request(url, data=RENDER, method="POST")
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.status == 200
            return json.loads(resp.read())

    payload = benchmark(roundtrip)
    assert payload["view"] == "calling-context"
