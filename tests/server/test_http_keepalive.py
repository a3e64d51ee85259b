"""Keep-alive hygiene of the HTTP shell around oversized bodies.

Regression for the 413 path: the handler reads at most ``max_body + 1``
bytes of an oversized request, which used to leave the remainder on the
socket — the next request on the same keep-alive connection then parsed
the tail of the previous body as its request line, corrupting the
connection.  The fix drains a bounded remainder (connection stays
usable) or, past the drain limit, answers ``Connection: close``.

Also the keep-alive stall: back-to-back small requests on one
connection must not wait out the client's delayed ACK.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.server.http import AnalysisRequestHandler, build_server
from tests.server.conftest import scaled


@pytest.fixture()
def server():
    srv = build_server(workload="fig1", max_body=1024)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=scaled(10))


def _request_bytes(method, path, body=b"", headers=()):
    lines = [f"{method} {path} HTTP/1.1", "Host: test",
             f"Content-Length: {len(body)}"]
    lines += [f"{k}: {v}" for k, v in headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _read_response(sock):
    """Read one HTTP response off *sock*; returns (status, headers, body)."""
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError(f"connection closed mid-headers: {buf!r}")
        buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split()[1])
    headers = {}
    for line in head_lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed mid-body")
        rest += chunk
    return status, headers, rest[:length], rest[length:]


def _connect(server):
    host, port = server.server_address[:2]
    sock = socket.create_connection((host, port), timeout=scaled(10))
    sock.settimeout(scaled(10))
    return sock


class TestOversizedBodyKeepAlive:
    def test_second_request_survives_413(self, server):
        """Two requests on one connection: an oversized POST answers 413
        and the follow-up GET still parses cleanly — the drained body
        never masquerades as a request line."""
        big = b"x" * 4096  # over max_body, under the drain limit
        with _connect(server) as sock:
            sock.sendall(_request_bytes("POST", "/sessions", big))
            status, headers, body, extra = _read_response(sock)
            assert status == 413
            assert json.loads(body)["error"]["code"] == "payload-too-large"
            assert headers.get("connection") != "close"

            sock.sendall(_request_bytes("GET", "/stats"))
            status, _headers, body, _extra = _read_response(sock)
            assert status == 200
            assert "requests" in json.loads(body)

    def test_huge_body_closes_connection(self, server):
        """Past the drain limit the server refuses to swallow the body:
        it answers 413 with ``Connection: close`` and hangs up."""
        declared = AnalysisRequestHandler.DRAIN_LIMIT + 65536
        with _connect(server) as sock:
            head = (
                f"POST /sessions HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {declared}\r\n\r\n"
            ).encode()
            # send only the prefix the server actually reads (max_body+1);
            # the *declared* remainder is past the drain limit, so the
            # server must hang up rather than wait for it to arrive
            sock.sendall(head + b"y" * 1025)
            status, headers, body, _extra = _read_response(sock)
            assert status == 413
            assert json.loads(body)["error"]["code"] == "payload-too-large"
            assert headers.get("connection") == "close"
            assert sock.recv(65536) == b""  # EOF: server hung up

    def test_normal_keepalive_unaffected(self, server):
        with _connect(server) as sock:
            for _ in range(3):
                sock.sendall(_request_bytes(
                    "POST", "/sessions",
                    json.dumps({"workload": "fig1"}).encode(),
                    headers=[("Content-Type", "application/json")],
                ))
                status, _h, body, _e = _read_response(sock)
                assert status == 201

    def test_retry_after_header_on_shed(self):
        srv = build_server(workload="fig1", max_inflight=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            with _connect(srv) as sock:
                sock.sendall(_request_bytes("GET", "/sessions"))
                status, headers, body, _e = _read_response(sock)
                assert status == 429
                assert int(headers["retry-after"]) >= 1
                assert json.loads(body)["error"]["code"] == "too-many-requests"
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=scaled(10))


class TestNoDelayedAckStall:
    """The handler writes headers and body in two sends.  With Nagle on,
    the second send waits for the client's delayed ACK (~40 ms) whenever
    the client sends its next request only after reading the last
    response, so 40 back-to-back small requests took ~1.8 s."""

    def test_back_to_back_cache_hits_do_not_stall(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=scaled(10))
        path = "/v1/sessions/s1/hotpath"
        try:
            conn.request("GET", path)  # fills the render cache
            first = conn.getresponse()
            first.read()
            assert first.status == 200
            hits = server.app.cache.hits
            t0 = time.perf_counter()
            for _ in range(40):
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert not response.will_close
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        assert server.app.cache.hits == hits + 40
        assert elapsed < scaled(1.0), f"40 keep-alive requests: {elapsed:.2f} s"

    def test_accepted_socket_has_nodelay(self, server):
        seen = []

        class Probe(AnalysisRequestHandler):
            def handle(self):
                seen.append(self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY))
                super().handle()

        server.RequestHandlerClass = Probe
        with _connect(server) as sock:
            sock.sendall(_request_bytes("GET", "/v1/healthz"))
            status, _h, _body, _e = _read_response(sock)
        assert status == 200
        assert seen and all(seen), seen
