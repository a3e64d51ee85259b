"""Worker-pool lifecycle: routing, aggregation, crash recovery, chaos.

These tests fork real worker processes and talk to them over real
sockets.  Every wall-clock bound goes through :func:`conftest.scaled`
so a loaded CI box can stretch them uniformly via
``REPRO_TEST_TIMEOUT_SCALE``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import threading
import time
import zlib

import pytest

from repro.errors import NotFound
from repro.server.client import RetryingClient, RetryPolicy
from repro.server.pool import (
    ServerPool,
    _ctrl_recv,
    _ctrl_send,
    merge_stats_payloads,
)
from repro.server.sessions import SessionRegistry
from repro.server.wire import COLUMNAR_CONTENT_TYPE, decode_columnar

from .conftest import scaled

POOL_CONFIG = {"workload": "fig1", "nranks": 2, "seed": 7,
               "max_body": 1 << 20}


@pytest.fixture
def pool():
    instance = ServerPool(workers=2, config=dict(POOL_CONFIG)).start()
    try:
        yield instance
    finally:
        instance.close()


def _get(pool: ServerPool, path: str, headers: dict | None = None,
         method: str = "GET", body: bytes | None = None):
    host, port = pool.address
    conn = http.client.HTTPConnection(host, port, timeout=scaled(30))
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        content_type = response.getheader("Content-Type", "")
        return response.status, content_type, data
    finally:
        conn.close()


def _get_json(pool: ServerPool, path: str, **kwargs) -> tuple[int, dict]:
    status, _ctype, data = _get(pool, path, **kwargs)
    return status, json.loads(data)


def _wait_for(predicate, timeout_s: float, message: str):
    deadline = time.monotonic() + scaled(timeout_s)
    while time.monotonic() < deadline:
        result = predicate()
        if result:
            return result
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {message}")


# --------------------------------------------------------------------- #
# serving both encodings through the pool
# --------------------------------------------------------------------- #
class TestPoolServing:
    def test_serves_json_and_columnar(self, pool: ServerPool) -> None:
        status, ctype, body = _get(
            pool, "/v1/sessions/s1/table?view=cct&depth=3"
        )
        assert (status, ctype) == (200, "application/json")
        as_json = json.loads(body)

        status, ctype, frame = _get(
            pool, "/v1/sessions/s1/table?view=cct&depth=3",
            headers={"Accept": COLUMNAR_CONTENT_TYPE},
        )
        assert (status, ctype) == (200, COLUMNAR_CONTENT_TYPE)
        reference = {k: v for k, v in as_json.items() if k != "session"}
        assert decode_columnar(frame) == reference

    def test_healthz_reports_every_worker(self, pool: ServerPool) -> None:
        status, payload = _get_json(pool, "/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert [w["slot"] for w in payload["workers"]] == [0, 1]
        assert all(w["alive"] for w in payload["workers"])
        live_pids = {w.pid for w in pool.workers}
        assert {w["pid"] for w in payload["workers"]} == live_pids

    def test_stats_aggregate_across_workers(self, pool: ServerPool) -> None:
        """N requests spread over sessions count exactly N pool-wide."""
        host, port = pool.address
        client = RetryingClient(base_url=f"http://{host}:{port}")
        created = [
            client.post("/v1/sessions", {"workload": "s3d"}).payload
            ["session"]["id"]
            for _ in range(3)
        ]
        before = _get_json(pool, "/v1/stats")[1]
        per_sid = 4
        for sid in ["s1", *created]:
            for _ in range(per_sid):
                status, _payload = _get_json(
                    pool, f"/v1/sessions/{sid}/table?view=flat"
                )
                assert status == 200
        after = _get_json(pool, "/v1/stats")[1]
        table = "/sessions/<sid>/table"
        counted = (
            after["endpoints"][table]["count"]
            - before["endpoints"].get(table, {}).get("count", 0)
        )
        assert counted == per_sid * (1 + len(created))
        assert after["requests"]["total"] > before["requests"]["total"]
        assert [w["alive"] for w in after["pool"]["workers"]] == [True, True]

    def test_metrics_aggregate_is_valid_exposition(self,
                                                   pool: ServerPool) -> None:
        _get_json(pool, "/v1/sessions/s1/table?view=cct")
        status, ctype, body = _get(pool, "/v1/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        text = body.decode("utf-8")
        assert "# TYPE repro_server_requests_total counter" in text
        assert "repro_server_sessions" in text

    def test_session_created_on_one_worker_readable_everywhere(
        self, pool: ServerPool
    ) -> None:
        """POST /sessions lands round-robin; the affinity owner adopts
        the session from the shared manifest on first use."""
        host, port = pool.address
        client = RetryingClient(base_url=f"http://{host}:{port}")
        for _ in range(4):  # cover both round-robin creators
            sid = client.post("/v1/sessions", {"workload": "s3d"}) \
                .payload["session"]["id"]
            response = client.get_table(sid, columnar=True, view="cct")
            assert response.status == 200
            assert response.payload["row_count"] > 0
            assert client.delete(f"/v1/sessions/{sid}").status == 200
            assert client.get(f"/v1/sessions/{sid}").status == 404


# --------------------------------------------------------------------- #
# per-connection routing: keep-alive must not bypass affinity
# --------------------------------------------------------------------- #
class TestConnectionRouting:
    def test_same_session_keepalive_stays_open(self, pool: ServerPool) -> None:
        """A connection sticking to one session stays alive — the
        pool's steady state pays the routing cost once."""
        host, port = pool.address
        conn = http.client.HTTPConnection(host, port, timeout=scaled(30))
        try:
            for _ in range(3):
                conn.request("GET", "/v1/sessions/s1/table?view=cct")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert not response.will_close
        finally:
            conn.close()

    def test_unowned_first_request_served_once_then_closed(
        self, pool: ServerPool
    ) -> None:
        """Requests without a session id round-robin; the worker serves
        the one request the parent sent it and closes, so the next
        request re-enters the parent's router."""
        host, port = pool.address
        conn = http.client.HTTPConnection(host, port, timeout=scaled(30))
        try:
            conn.request(
                "POST", "/v1/sessions",
                body=json.dumps({"workload": "fig1"}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 201
            assert response.will_close
        finally:
            conn.close()

    def _sid_per_slot(self, pool: ServerPool) -> dict[int, str]:
        host, port = pool.address
        client = RetryingClient(base_url=f"http://{host}:{port}")
        sids: dict[int, str] = {}
        while len(sids) < 2:  # one session owned by each slot
            sid = client.post("/v1/sessions", {"workload": "fig1"}) \
                .payload["session"]["id"]
            sids.setdefault(zlib.crc32(sid.encode()) % 2, sid)
        return sids

    def test_switching_sessions_on_a_connection_is_refused(
        self, pool: ServerPool
    ) -> None:
        """A kept-alive connection reused for a session another worker
        owns draws a structured 421 — never a silently forked session —
        and the transparent reconnect lands on the right worker."""
        host, port = pool.address
        sids = self._sid_per_slot(pool)
        first, second = sids[0], sids[1]
        conn = http.client.HTTPConnection(host, port, timeout=scaled(30))
        try:
            conn.request("GET", f"/v1/sessions/{first}/table?view=cct")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert not response.will_close
            # same connection, different session: refused, not misserved
            conn.request("GET", f"/v1/sessions/{second}/table?view=cct")
            response = conn.getresponse()
            error = json.loads(response.read())["error"]
            assert response.status == 421
            assert error["code"] == "misrouted"
            assert len(error["trace_id"]) == 16
            assert response.will_close
            # http.client reconnects; the fresh connection is re-routed
            conn.request("GET", f"/v1/sessions/{second}/table?view=cct")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        finally:
            conn.close()

    def test_keepalive_mutation_cannot_fork_session_state(
        self, pool: ServerPool
    ) -> None:
        """The high-severity review case: a mutation for session B sent
        down a connection routed to session A's worker must not be
        adopted there (diverging from B's owner and losing updates)."""
        host, port = pool.address
        client = RetryingClient(base_url=f"http://{host}:{port}")
        sids = self._sid_per_slot(pool)
        first, second = sids[0], sids[1]
        conn = http.client.HTTPConnection(host, port, timeout=scaled(30))
        try:
            conn.request("GET", f"/v1/sessions/{first}/table?view=cct")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            conn.request(
                "POST", f"/v1/sessions/{second}/flatten", body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 421  # refused on the wrong worker
            # retried on a fresh connection, it reaches the owner
            conn.request(
                "POST", f"/v1/sessions/{second}/flatten", body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert payload["generation"] == 1
        finally:
            conn.close()
        # the flatten is visible where affinity routes all later reads
        info = client.get(f"/v1/sessions/{second}").payload["session"]
        assert info["generation"] == 1
        assert info["flatten_depth"] == 1

    def test_create_then_immediate_delete(self, pool: ServerPool) -> None:
        """DELETE routes by affinity while POST round-robins; closing a
        session no worker has adopted yet must still succeed."""
        host, port = pool.address
        client = RetryingClient(base_url=f"http://{host}:{port}")
        for _ in range(4):  # cover both creator/owner alignments
            sid = client.post("/v1/sessions", {"workload": "fig1"}) \
                .payload["session"]["id"]
            assert client.delete(f"/v1/sessions/{sid}").status == 200
            assert client.get(f"/v1/sessions/{sid}").status == 404


class TestCloseBeforeAdoption:
    def test_close_unlinks_unadopted_manifest(self, tmp_path) -> None:
        creator = SessionRegistry(manifest_dir=str(tmp_path))
        sibling = SessionRegistry(manifest_dir=str(tmp_path))
        handle = creator.open_workload("fig1")
        manifest = tmp_path / f"{handle.sid}.json"
        assert manifest.exists()
        # the sibling never adopted the session; the manifest is the
        # authoritative record, and closing it must succeed
        assert sibling.close(handle.sid) is None
        assert not manifest.exists()
        with pytest.raises(NotFound):  # no longer adoptable anywhere
            sibling.get(handle.sid)
        with pytest.raises(NotFound):  # second close is genuinely unknown
            sibling.close(handle.sid)


# --------------------------------------------------------------------- #
# control-channel framing and request-line peeking
# --------------------------------------------------------------------- #
class TestControlChannel:
    def test_reply_larger_than_a_datagram_roundtrips(self) -> None:
        """A 1 MiB reply crosses the SEQPACKET channel in chunks — a
        single datagram that size would fail with EMSGSIZE."""
        parent, child = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_SEQPACKET
        )
        payload = bytes(range(256)) * 4096  # 1 MiB
        failures: list = []

        def send() -> None:
            try:
                _ctrl_send(child, payload)
            except OSError as exc:
                failures.append(exc)

        thread = threading.Thread(target=send)
        thread.start()
        try:
            received = _ctrl_recv(parent)
        finally:
            thread.join(timeout=scaled(10))
            parent.close()
            child.close()
        assert failures == []
        assert received == payload

    def test_small_reply_roundtrips(self) -> None:
        parent, child = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_SEQPACKET
        )
        try:
            _ctrl_send(child, b'{"pid": 1}')
            assert _ctrl_recv(parent) == b'{"pid": 1}'
        finally:
            parent.close()
            child.close()


class TestPeekRouting:
    def test_split_request_line_waits_for_full_sid(self) -> None:
        """A request line arriving in two TCP segments routes on the
        complete sid, not a truncated prefix ('s12' != 's1')."""
        instance = ServerPool(workers=2, config=dict(POOL_CONFIG))
        left, right = socket.socketpair()

        def trickle() -> None:
            left.sendall(b"GET /v1/sessions/s12")
            time.sleep(scaled(0.1))
            left.sendall(b"/table HTTP/1.1\r\nHost: x\r\n\r\n")

        thread = threading.Thread(target=trickle)
        thread.start()
        try:
            head = instance._peek_request(right)
        finally:
            thread.join(timeout=scaled(10))
            left.close()
            right.close()
        assert head.startswith(b"GET /v1/sessions/s12/table")
        assert instance._pick_slot(head) == zlib.crc32(b"s12") % 2

    def test_incomplete_request_line_is_dropped(self, monkeypatch) -> None:
        """A line that never completes inside the budget is not routed
        on its partial prefix; the connection is dropped instead."""
        import repro.server.pool as pool_mod

        monkeypatch.setattr(pool_mod, "_PEEK_TIMEOUT_S", scaled(0.2))
        instance = ServerPool(workers=2, config=dict(POOL_CONFIG))
        left, right = socket.socketpair()
        try:
            left.sendall(b"GET /v1/sessions/s12")  # CRLF never arrives
            assert instance._peek_request(right) == b""
        finally:
            left.close()
            right.close()


# --------------------------------------------------------------------- #
# crash recovery
# --------------------------------------------------------------------- #
class TestWorkerCrash:
    def test_killed_worker_is_restarted(self, pool: ServerPool) -> None:
        victim = pool.workers[0].pid
        os.kill(victim, signal.SIGKILL)

        def recovered():
            status, payload = _get_json(pool, "/v1/healthz")
            return payload if (
                status == 200
                and all(w["alive"] for w in payload["workers"])
            ) else None

        payload = _wait_for(recovered, 15, "worker restart")
        slot0 = payload["workers"][0]
        assert slot0["pid"] != victim
        assert slot0["restarts"] == 1
        # the restarted worker serves the preloaded session again
        status, table = _get_json(
            pool, "/v1/sessions/s1/table?view=cct&depth=3"
        )
        assert status == 200 and table["row_count"] > 0

    def test_inflight_on_other_workers_unaffected(self,
                                                  pool: ServerPool) -> None:
        """kill -9 one worker while the other streams requests: every
        request on the surviving worker succeeds, no retry needed."""
        host, port = pool.address
        client = RetryingClient(base_url=f"http://{host}:{port}")
        # a session owned (by affinity) by each slot
        sids = {}
        while len(sids) < 2:
            sid = client.post("/v1/sessions", {"workload": "s3d"}) \
                .payload["session"]["id"]
            import zlib

            sids.setdefault(zlib.crc32(sid.encode()) % 2, sid)
        victim_slot = 0
        survivor_sid = sids[1 - victim_slot]
        # pin both sessions' caches hot before the crash
        for sid in sids.values():
            client.get_table(sid, columnar=True)

        errors: list = []
        stop = threading.Event()

        def hammer():
            conn = http.client.HTTPConnection(host, port,
                                              timeout=scaled(30))
            path = f"/v1/sessions/{survivor_sid}/table?view=cct"
            try:
                while not stop.is_set():
                    conn.request("GET", path)
                    response = conn.getresponse()
                    response.read()
                    if response.status != 200:
                        errors.append(response.status)
            except (OSError, http.client.HTTPException) as exc:
                errors.append(type(exc).__name__)
            finally:
                conn.close()

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            time.sleep(scaled(0.2))
            os.kill(pool.workers[victim_slot].pid, signal.SIGKILL)
            time.sleep(scaled(0.5))
        finally:
            stop.set()
            thread.join(timeout=scaled(30))
        assert not thread.is_alive()
        assert errors == []

        # and the victim's sessions come back after the refork
        def victim_serves():
            status, _payload = _get_json(
                pool, f"/v1/sessions/{sids[victim_slot]}/table?view=cct"
            )
            return status == 200

        _wait_for(victim_serves, 15, "restarted worker to adopt session")

    def test_stats_stay_consistent_after_restart(self,
                                                 pool: ServerPool) -> None:
        """Post-crash aggregation still sums cleanly (the dead worker's
        counters are gone — by design — but the merge stays coherent)."""
        os.kill(pool.workers[1].pid, signal.SIGKILL)
        _wait_for(
            lambda: _get_json(pool, "/v1/healthz")[0] == 200, 15,
            "pool to return to full strength",
        )
        for _ in range(3):
            assert _get_json(pool, "/v1/sessions/s1/render",
                             method="POST", body=b"{}")[0] == 200
        status, stats = _get_json(pool, "/v1/stats")
        assert status == 200
        total = sum(e["count"] for e in stats["endpoints"].values())
        assert stats["requests"]["total"] == total
        assert stats["requests"]["errors"] == sum(
            e["errors"] for e in stats["endpoints"].values()
        )


# --------------------------------------------------------------------- #
# structured errors under multi-worker (the chaos battery)
# --------------------------------------------------------------------- #
class TestPoolChaos:
    CASES = [
        ("GET", "/v1/sessions/nope/table", None, 404, "unknown-session"),
        ("GET", "/v1/sessions/nope/render", None, 404, "unknown-session"),
        ("GET", "/v1/sessions/s1/table?view=bogus", None, 400,
         "bad-view-kind"),
        ("GET", "/v1/sessions/s1/table?flavor=sideways", None, 400,
         "bad-flavor"),
        ("GET", "/v1/sessions/s1/table?metric=nothere", None, 404,
         "unknown-metric"),
        ("POST", "/v1/sessions/s1/render", b"{not json", 400,
         "malformed-json"),
        ("POST", "/v1/sessions/s1/render", b"[1, 2]", 400,
         "bad-request-shape"),
        ("POST", "/v1/sessions", b'{"workload": "bogus"}', 404,
         "unknown-workload"),
        ("GET", "/v1/nowhere", None, 404, "unknown-endpoint"),
        ("DELETE", "/v1/sessions/s1/table", None, 405,
         "method-not-allowed"),
    ]

    @pytest.mark.parametrize("method, path, body, status, code", CASES)
    def test_structured_errors_hold_under_pool(
        self, pool: ServerPool, method, path, body, status, code
    ) -> None:
        got_status, payload = _get_json(pool, path, method=method, body=body)
        assert got_status == status
        error = payload["error"]
        assert error["code"] == code
        assert error["status"] == status
        assert len(error["trace_id"]) == 16

    def test_errors_structured_on_every_worker(self,
                                               pool: ServerPool) -> None:
        """Fresh connections round-robin, so hitting the same bad path
        repeatedly exercises each worker; trace ids never repeat."""
        seen = set()
        for _ in range(4):
            status, payload = _get_json(pool, "/v1/sessions/nope/render")
            assert status == 404
            seen.add(payload["error"]["trace_id"])
        assert len(seen) == 4

    def test_retrying_client_columnar_survives_pool(self,
                                                    pool: ServerPool) -> None:
        """The retrying path carries the Accept header on every attempt."""
        host, port = pool.address
        client = RetryingClient(
            base_url=f"http://{host}:{port}",
            policy=RetryPolicy(max_attempts=3, base_delay=0.01),
        )
        response = client.get_table("s1", columnar=True, view="flat")
        assert response.status == 200
        assert response.content_type == COLUMNAR_CONTENT_TYPE
        reference = client.get_table("s1", columnar=False, view="flat")
        assert response.payload == {
            k: v for k, v in reference.payload.items() if k != "session"
        }


# --------------------------------------------------------------------- #
# merge arithmetic (pure function)
# --------------------------------------------------------------------- #
class TestStatsMerge:
    def test_merge_sums_counters_and_weights_latency(self) -> None:
        a = {
            "uptime_s": 5.0,
            "requests": {"total": 10, "errors": 1, "shed": 0, "inflight": 2},
            "endpoints": {"/x": {"count": 10, "errors": 1,
                                 "latency_ms": {"mean": 2.0, "min": 1.0,
                                                "max": 4.0}}},
            "cache": {"hits": 5, "misses": 5},
            "sessions": 1, "resident_scopes": 100, "evictions": 0,
        }
        b = {
            "uptime_s": 7.0,
            "requests": {"total": 30, "errors": 0, "shed": 2, "inflight": 0},
            "endpoints": {"/x": {"count": 30, "errors": 0,
                                 "latency_ms": {"mean": 4.0, "min": 0.5,
                                                "max": 9.0}}},
            "cache": {"hits": 20, "misses": 10},
            "sessions": 2, "resident_scopes": 200, "evictions": 1,
        }
        merged = merge_stats_payloads([a, b])
        assert merged["uptime_s"] == 7.0
        assert merged["requests"] == {"total": 40, "errors": 1,
                                      "shed": 2, "inflight": 2}
        endpoint = merged["endpoints"]["/x"]
        assert endpoint["count"] == 40
        assert endpoint["latency_ms"]["mean"] == pytest.approx(3.5)
        assert endpoint["latency_ms"]["min"] == 0.5
        assert endpoint["latency_ms"]["max"] == 9.0
        assert merged["cache"] == {"hits": 25, "misses": 15}
        assert merged["sessions"] == 3

    def test_merge_sums_per_operation_cache_counters(self) -> None:
        a = {"cache": {"hits": 3, "operations": {
            "query": {"hits": 2, "misses": 1, "fills": 1}}}}
        b = {"cache": {"hits": 4, "operations": {
            "query": {"hits": 3, "misses": 0, "fills": 0},
            "table": {"hits": 1, "misses": 1, "fills": 1}}}}
        merged = merge_stats_payloads([a, b])
        assert merged["cache"] == {"hits": 7, "operations": {
            "query": {"hits": 5, "misses": 1, "fills": 1},
            "table": {"hits": 1, "misses": 1, "fills": 1}}}

    def test_merge_of_nothing_is_empty(self) -> None:
        merged = merge_stats_payloads([])
        assert merged["requests"]["total"] == 0
        assert merged["endpoints"] == {}


# --------------------------------------------------------------------- #
# corpus-scoped session affinity: ?sid= routing
# --------------------------------------------------------------------- #
class TestCorpusSidRouting:
    """Corpus requests that carry ``?sid=`` must land on the worker that
    owns (or will own) that session by affinity, exactly like
    ``/v1/sessions/<sid>`` paths."""

    def _pool(self) -> ServerPool:
        return ServerPool(workers=2, config=dict(POOL_CONFIG))

    def test_open_by_id_with_sid_routes_by_affinity(self) -> None:
        instance = self._pool()
        head = (b"POST /v1/corpus/t/profiles/p000001/open?sid=s12 "
                b"HTTP/1.1\r\nHost: x\r\n\r\n")
        assert instance._pick_slot(head) == zlib.crc32(b"s12") % 2

    def test_sid_parses_among_other_params(self) -> None:
        instance = self._pool()
        head = (b"POST /v1/corpus/t/profiles/p1/open?salvage=true&sid=s7"
                b"&x=1 HTTP/1.1\r\n\r\n")
        assert instance._pick_slot(head) == zlib.crc32(b"s7") % 2

    def test_corpus_without_sid_round_robins(self) -> None:
        instance = self._pool()
        head = b"POST /v1/corpus/t/profiles HTTP/1.1\r\nHost: x\r\n\r\n"
        first = instance._pick_slot(head)
        second = instance._pick_slot(head)
        assert {first, second} == {0, 1}  # round-robin, not pinned

    def test_unversioned_path_is_not_pinned(self) -> None:
        """Outside /v1 there is no route to pin: round-robin to a worker,
        which answers the unknown-route 404."""
        instance = self._pool()
        head = (b"POST /corpus/t/profiles/p1/open?sid=s12 "
                b"HTTP/1.1\r\n\r\n")
        first = instance._pick_slot(head)
        second = instance._pick_slot(head)
        assert {first, second} == {0, 1}

    def test_worker_affinity_guard_sees_corpus_sid(self) -> None:
        from repro.server.http import _POOL_CORPUS_SID_RE

        match = _POOL_CORPUS_SID_RE.match(
            "/v1/corpus/t/profiles/p1/open?sid=s12")
        assert match is not None and match.group(1) == "s12"
        assert _POOL_CORPUS_SID_RE.match("/v1/corpus/t/profiles") is None
        assert _POOL_CORPUS_SID_RE.match(
            "/v1/sessions/s12/table") is None  # handled by _POOL_SID_RE
