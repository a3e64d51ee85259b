"""Concurrency stress: many clients, one server, shared + private state.

The battery the tentpole asks for: N client threads fire mixed reads
and mutations over real sockets at one ``ThreadingHTTPServer``; the
assertions are

* no deadlock / no hang (every request completes within its timeout);
* no cross-session state bleed — each thread's private session ends up
  with exactly the derived metrics *it* defined, and the shared
  read-only session's metric table never changes;
* ``/stats`` counters sum to exactly the number of requests issued;
* every response to a well-formed request is a 2xx with the documented
  shape — concurrency never surfaces as a 4xx/5xx.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.server import build_server
from tests.server.conftest import scaled

N_THREADS = 12
REQUESTS_PER_THREAD = 25
TIMEOUT = scaled(30)


@pytest.fixture()
def server():
    srv = build_server(workload="fig1", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=scaled(10))


def request(server, method, path, body=None):
    host, port = server.server_address[:2]
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=TIMEOUT) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_stress_mixed_readers_and_mutators(server):
    shared_sid = "s1"  # the preloaded fig1 workload session
    failures: list[str] = []
    counts = [0] * N_THREADS
    barrier = threading.Barrier(N_THREADS)

    def client(tid: int) -> None:
        def call(method, path, body=None, want=(200, 201)):
            counts[tid] += 1
            status, payload = request(server, method, path, body)
            if status not in want:
                failures.append(
                    f"t{tid}: {method} {path} -> {status}: {payload}"
                )
            return payload

        # a private session per thread, mutated freely
        private = call("POST", "/v1/sessions",
                       {"workload": "fig1"})["session"]["id"]
        barrier.wait()
        for i in range(REQUESTS_PER_THREAD):
            op = i % 5
            if op == 0:  # cached shared read
                call("POST", f"/v1/sessions/{shared_sid}/render",
                     {"view": "cct", "depth": 2})
            elif op == 1:  # shared hot path
                call("GET", f"/v1/sessions/{shared_sid}/hotpath")
            elif op == 2:  # private mutation: derived metric
                call("POST", f"/v1/sessions/{private}/metrics",
                     {"name": f"d{tid}_{i}", "formula": "2 * $0"})
            elif op == 3:  # private mutation: flatten, then render it
                call("POST", f"/v1/sessions/{private}/flatten")
                call("POST", f"/v1/sessions/{private}/render", {"view": "flat"})
            else:  # private sort + render
                call("POST", f"/v1/sessions/{private}/sort",
                     {"metric": "cycles", "descending": bool(i % 2)})
                call("POST", f"/v1/sessions/{private}/render", {"view": "cct"})

        # ---- no cross-session bleed ----------------------------------- #
        mine = call("GET", f"/v1/sessions/{private}/metrics")["metrics"]
        derived = [m["name"] for m in mine if m["kind"] == "derived"]
        expected = [f"d{tid}_{i}" for i in range(REQUESTS_PER_THREAD)
                    if i % 5 == 2]
        if derived != expected:
            failures.append(f"t{tid}: bleed into private session: {derived}")
        shared = call("GET", f"/v1/sessions/{shared_sid}/metrics")["metrics"]
        if [m["name"] for m in shared] != ["cycles"]:
            failures.append(f"t{tid}: shared session mutated: {shared}")

    threads = [threading.Thread(target=client, args=(t,))
               for t in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=TIMEOUT * 4)
    hung = [i for i, t in enumerate(threads) if t.is_alive()]
    assert not hung, f"client threads hung (deadlock?): {hung}"
    assert not failures, "\n".join(failures[:20])

    # ---- /stats accounting ------------------------------------------- #
    status, stats = request(server, "GET", "/v1/stats")
    assert status == 200
    total_issued = sum(counts)
    assert stats["requests"]["total"] == total_issued
    per_endpoint = sum(e["count"] for e in stats["endpoints"].values())
    assert per_endpoint == total_issued
    assert stats["requests"]["errors"] == 0
    assert stats["sessions"] == 1 + N_THREADS
    # the shared render is identical every time, so the cache must have
    # served the overwhelming majority of the shared reads
    assert stats["cache"]["hits"] >= N_THREADS * (REQUESTS_PER_THREAD // 5) - 2


def test_shared_session_serialized_mutations_stay_consistent(server):
    """Hammer one shared session with flatten/unflatten + renders.

    Interleaving is arbitrary, but the invariant holds: every response
    succeeds, and the final flatten depth equals flattens minus
    unflattens actually applied (clamped at zero by the view)."""
    sid = "s1"
    errors: list[str] = []
    barrier = threading.Barrier(8)

    def client(tid: int) -> None:
        barrier.wait()
        for i in range(10):
            if tid % 2 == 0:
                op = "flatten" if i % 2 == 0 else "unflatten"
                status, payload = request(server, "POST",
                                          f"/v1/sessions/{sid}/{op}")
                if status != 200 or payload["flatten_depth"] < 0:
                    errors.append(f"t{tid}: {op} -> {status} {payload}")
            else:
                status, payload = request(server, "POST",
                                          f"/v1/sessions/{sid}/render",
                                          {"view": "flat", "depth": 1})
                if status != 200 or "Flat View" not in payload["text"]:
                    errors.append(f"t{tid}: render -> {status}")

    threads = [threading.Thread(target=client, args=(t,)) for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=TIMEOUT * 2)
    assert not any(t.is_alive() for t in threads), "hung"
    assert not errors, "\n".join(errors[:10])
    # balanced flatten/unflatten pairs: depth returns to 0
    status, payload = request(server, "GET", f"/v1/sessions/{sid}")
    assert status == 200
    assert payload["session"]["flatten_depth"] == 0
