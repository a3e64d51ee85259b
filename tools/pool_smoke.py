#!/usr/bin/env python
"""Fast tier-1 smoke of the multi-worker pool.

Starts a 2-worker :class:`~repro.server.pool.ServerPool`, serves one
JSON render, one columnar table (decoded and checked against the JSON
table), 20 back-to-back hot paths on one keep-alive connection (which
must not stall on delayed ACKs), and one aggregated ``/stats``, then
shuts down cleanly.  The
deep lifecycle coverage (crash restart, adoption, chaos) lives in
``tests/server/test_pool.py``; this script only proves the forked
serving path works at all on this machine, in a few seconds, inside the
tier-1 gate.

All timeouts honor ``REPRO_TEST_TIMEOUT_SCALE``.
"""

from __future__ import annotations

import http.client
import os
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.server.client import RetryingClient  # noqa: E402
from repro.server.pool import ServerPool  # noqa: E402
from repro.server.wire import COLUMNAR_CONTENT_TYPE  # noqa: E402

#: back-to-back requests of the keep-alive probe
KEEPALIVE_REQUESTS = 20


def scaled(seconds: float) -> float:
    try:
        scale = float(os.environ.get("REPRO_TEST_TIMEOUT_SCALE", "1"))
    except ValueError:
        scale = 1.0
    return seconds * (scale if scale > 0 else 1.0)


def keepalive_probe(host: str, port: int) -> float:
    """Seconds for back-to-back small requests on one connection.

    The connection reaches its worker as a passed fd; with Nagle on
    there, each response body waits out the client's delayed ACK
    (~40 ms), so the bound below fails.
    """
    conn = http.client.HTTPConnection(host, port, timeout=scaled(30))
    path = "/v1/sessions/s1/hotpath"
    try:
        conn.request("GET", path)  # routes the connection, fills the cache
        first = conn.getresponse()
        first.read()
        assert first.status == 200, first.status
        t0 = time.perf_counter()
        for _ in range(KEEPALIVE_REQUESTS):
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            assert response.status == 200, response.status
            assert not response.will_close, "worker closed the connection"
        elapsed = time.perf_counter() - t0
    finally:
        conn.close()
    assert elapsed < scaled(0.5), (
        f"{KEEPALIVE_REQUESTS} keep-alive requests took {elapsed:.2f} s")
    return elapsed


def main() -> int:
    pool = ServerPool(
        workers=2,
        config={"workload": "fig1", "nranks": 2, "seed": 7,
                "max_body": 1 << 20},
    ).start()
    try:
        host, port = pool.address
        client = RetryingClient(base_url=f"http://{host}:{port}",
                                timeout=scaled(30))

        health = client.get("/v1/healthz").payload
        assert health["status"] == "ok", health
        assert len(health["workers"]) == 2, health

        render = client.post("/v1/sessions/s1/render",
                             {"view": "cct", "depth": 3})
        assert render.status == 200 and "text" in render.payload, render

        as_json = client.get_table("s1", columnar=False, view="cct", depth=3)
        as_cols = client.get_table("s1", columnar=True, view="cct", depth=3)
        assert as_cols.content_type == COLUMNAR_CONTENT_TYPE, as_cols
        reference = {k: v for k, v in as_json.payload.items()
                     if k != "session"}
        assert as_cols.payload == reference, "columnar/JSON table mismatch"

        stall_s = keepalive_probe(host, port)

        stats = client.get("/v1/stats").payload
        # the render, both table fetches and the probe (healthz/stats are
        # answered by the pool parent and do not count against workers)
        assert stats["requests"]["total"] >= 3 + KEEPALIVE_REQUESTS, stats
        assert all(w["alive"] for w in stats["pool"]["workers"]), stats
        rows = as_cols.payload["row_count"]
        print(f"pool smoke OK: 2 workers at {host}:{port}, "
              f"{rows}-row table served as JSON and columnar, "
              f"{KEEPALIVE_REQUESTS} keep-alive requests in "
              f"{stall_s * 1e3:.0f} ms, "
              f"{stats['requests']['total']} requests aggregated")
        return 0
    finally:
        pool.close()


if __name__ == "__main__":
    sys.exit(main())
