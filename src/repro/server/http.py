"""Stdlib HTTP front end: ``ThreadingHTTPServer`` over the app core.

One handler thread per connection (the stdlib threading mixin), one
:class:`~repro.server.app.AnalysisApp` shared by all of them — the app's
locks (session registry, per-session, cache, stats) are the entire
concurrency story; the HTTP layer holds no mutable state of its own.

``repro-serve`` (see :func:`main`) builds a server, preloads sessions
for any ``--db``/``--workload`` arguments, prints the session ids, and
serves until interrupted.  With ``--self-profile PATH`` the process
traces its own request stages (decode, session lookup, view
construction, engine kernels, render, encode) and writes them as a
regular experiment database on shutdown — open it with ``repro-view``
to see the server in its own three views.
"""

from __future__ import annotations

import argparse
import math
import re
import signal
import sys
import uuid
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import install, save_self_profile, uninstall
from repro.server.app import (
    DEFAULT_MAX_BODY,
    DEFAULT_MAX_INFLIGHT,
    AnalysisApp,
)
from repro.server.schema import BinaryBody, EncodedJson, RawBody, json_body
from repro.server.sessions import WORKLOADS

__all__ = ["AnalysisRequestHandler", "AnalysisServer", "build_server", "main"]

#: the session id a request path addresses, for pool-mode affinity checks
#: (must agree with the parent's routing regex in repro.server.pool)
_POOL_SID_RE = re.compile(r"^(?:/v1)?/sessions/([^/?]+)")
#: corpus open-by-id with its claimed sid in the query string — affinity
#: follows the sid, like the parent's _CORPUS_SID_RE
_POOL_CORPUS_SID_RE = re.compile(r"^(?:/v1)?/corpus/[^ ]*[?&]sid=([^&#]+)")


class AnalysisRequestHandler(BaseHTTPRequestHandler):
    """Translate HTTP requests to app calls; always answer JSON."""

    server_version = "repro-serve/1.0"

    #: speak HTTP/1.1 so connections are keep-alive by default — the
    #: premise of the bounded body-drain logic below (every response
    #: carries an explicit Content-Length, so 1.1 framing is satisfied)
    protocol_version = "HTTP/1.1"

    #: TCP_NODELAY on every connection: the stdlib writes the headers
    #: and the body in two sends, and with Nagle on the body waits for
    #: the client's delayed ACK (~40 ms) whenever a keep-alive client
    #: sends its next request only after reading the last response
    disable_nagle_algorithm = True

    #: largest unread body remainder we will drain to keep a connection
    #: reusable; anything bigger closes the connection instead
    DRAIN_LIMIT = 64 * 1024

    # ------------------------------------------------------------------ #
    def _affinity_guard(self) -> bool:
        """Pool-mode connection discipline; True when serving may proceed.

        The pool parent routes each *connection* once, by its first
        request line, but this handler speaks HTTP/1.1 keep-alive — so a
        reused connection could carry later requests for sessions whose
        state lives in a different worker.  The discipline: a connection
        stays alive while its requests name sessions this worker owns by
        affinity (the steady state — routing stays correct with zero
        per-request cost); anything else is served once (the parent sent
        the connection here on purpose, e.g. round-robin or failover)
        and then closed; and a kept-alive connection that *switches* to
        state this worker does not own is refused with ``421 Misdirected
        Request`` + close — answering it would silently fork the
        session.  Clients reconnect (or retry) and the parent re-routes.
        """
        slot = getattr(self.server, "affinity_slot", None)
        if slot is None:
            return True  # single-process server: no routing to protect
        match = (_POOL_SID_RE.match(self.path)
                 or _POOL_CORPUS_SID_RE.match(self.path))
        owned = (
            match is not None
            and zlib.crc32(match.group(1).encode("latin-1"))
            % self.server.pool_size == slot  # type: ignore[attr-defined]
        )
        served = getattr(self, "_pool_served", 0)
        self._pool_served = served + 1
        if owned:
            return True
        self.close_connection = True
        if served == 0:
            return True
        body = json_body({"error": {
            "status": 421,
            "code": "misrouted",
            "message": "this connection was routed for another session; "
                       "reconnect to reach the owning worker",
            "trace_id": uuid.uuid4().hex[:16],
        }})
        self.send_response(421)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass
        return False

    def _dispatch(self, method: str) -> None:
        app: AnalysisApp = self.server.app  # type: ignore[attr-defined]
        if not self._affinity_guard():
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        unread = 0
        extra_headers: dict[str, str] = {}
        if length < 0:
            status, payload = 400, {
                "error": {
                    "status": 400,
                    "code": "bad-content-length",
                    "message": "Content-Length is not an integer",
                }
            }
        else:
            # read at most one byte past the limit: enough for the app to
            # reject oversized bodies with 413 without buffering them
            raw = self.rfile.read(min(length, app.max_body + 1)) if length else b""
            unread = length - len(raw)
            status, payload, extra_headers = app.handle_full(
                method, self.path, raw, request_headers=self.headers
            )
        if unread > 0:
            # keep-alive hygiene: an oversized body was only partially
            # read, and the remainder would be parsed as the next request
            # on this connection.  Drain a bounded remainder; past the
            # bound, close the connection rather than buffer at will.
            if unread <= self.DRAIN_LIMIT:
                while unread > 0:
                    chunk = self.rfile.read(min(unread, 65536))
                    if not chunk:
                        break
                    unread -= len(chunk)
            if unread > 0:
                self.close_connection = True
        if isinstance(payload, BinaryBody):
            content_type = payload.content_type
            body = payload.data
        elif isinstance(payload, RawBody):
            content_type = payload.content_type
            body = payload.text.encode("utf-8")
        else:
            content_type = "application/json"
            body = (payload.data if isinstance(payload, EncodedJson)
                    else json_body(payload))
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers.items():
            self.send_header(name, value)
        retry_after = None
        if isinstance(payload, dict) and isinstance(payload.get("error"), dict):
            retry_after = payload["error"].get("retry_after")
        if isinstance(retry_after, (int, float)):
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default stderr access log (see ``/stats`` instead)."""


class AnalysisServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`AnalysisApp`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: AnalysisApp) -> None:
        super().__init__(address, AnalysisRequestHandler)
        self.app = app


# --------------------------------------------------------------------- #
def build_server(
    host: str = "127.0.0.1",
    port: int = 0,
    databases: list[str] | None = None,
    workload: str | None = None,
    nranks: int = 1,
    seed: int = 12345,
    cache_size: int = 256,
    max_body: int = DEFAULT_MAX_BODY,
    max_inflight: int | None = DEFAULT_MAX_INFLIGHT,
    request_timeout_s: float | None = None,
    session_ttl_s: float | None = None,
    max_sessions: int | None = None,
    scope_budget: int | None = None,
    slow_ms: float | None = None,
    corpus_root: str | None = None,
    corpus_compact_interval_s: float | None = None,
    diff_cache_size: int = 8,
) -> AnalysisServer:
    """An :class:`AnalysisServer` with its initial sessions registered."""
    app = AnalysisApp(
        cache_size=cache_size,
        max_body=max_body,
        max_inflight=max_inflight,
        request_timeout_s=request_timeout_s,
        session_ttl_s=session_ttl_s,
        max_sessions=max_sessions,
        scope_budget=scope_budget,
        slow_ms=slow_ms,
        corpus_root=corpus_root,
        corpus_compact_interval_s=corpus_compact_interval_s,
        diff_cache_size=diff_cache_size,
    )
    for path in databases or []:
        app.registry.open_database(path)
    if workload is not None:
        app.registry.open_workload(workload, nranks=nranks, seed=seed)
    return AnalysisServer((host, port), app)


def main(argv: list[str] | None = None) -> int:
    """``repro-serve`` — serve experiment databases over HTTP."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Concurrent JSON analysis service over experiment "
                    "databases (the hpcviewer operations as an API).",
    )
    parser.add_argument("databases", nargs="*", metavar="DB",
                        help="experiment databases (.xml / .rpdb) to open "
                             "as sessions at startup")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="also open a synthetic workload session")
    parser.add_argument("-n", "--nranks", type=int, default=1)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("-p", "--port", type=int, default=8377)
    parser.add_argument("--cache-size", type=int, default=256,
                        help="LRU render-cache capacity (0 disables)")
    parser.add_argument("--max-body", type=int, default=DEFAULT_MAX_BODY,
                        help="largest accepted request body, bytes")
    parser.add_argument("--max-inflight", type=int,
                        default=DEFAULT_MAX_INFLIGHT,
                        help="concurrent requests admitted before shedding "
                             "with 429 (0 disables the limit)")
    parser.add_argument("--request-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-request deadline; expired renders abort "
                             "with 503 deadline-exceeded")
    parser.add_argument("--session-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="evict sessions idle longer than this")
    parser.add_argument("--max-sessions", type=int, default=None,
                        help="LRU cap on resident sessions")
    parser.add_argument("--scope-budget", type=int, default=None,
                        help="total CCT scopes resident sessions may hold; "
                             "LRU eviction past the budget")
    parser.add_argument("--slow-ms", type=float, default=None,
                        metavar="MS",
                        help="log requests slower than this and keep them "
                             "in the /stats slow-request ring")
    parser.add_argument("--corpus", default=None, metavar="DIR",
                        help="serve a crash-safe multi-tenant profile "
                             "corpus rooted here (created if missing); "
                             "adds the /v1/corpus endpoints")
    parser.add_argument("--corpus-compact-interval", type=float,
                        default=None, metavar="SECONDS",
                        help="sweep corpus compaction groups in the "
                             "background this often (default: only on "
                             "explicit POST /v1/corpus/<tenant>/compact)")
    parser.add_argument("--diff-cache-size", type=int, default=8,
                        help="LRU capacity of the path-mode /v1/diff "
                             "alignment cache (0 disables)")
    parser.add_argument("--self-profile", default=None, metavar="PATH",
                        help="trace the server's own request stages and "
                             "write them as an experiment database on "
                             "shutdown (open it with repro-view)")
    parser.add_argument("-w", "--workers", type=int, default=1,
                        help="pre-forked worker processes; above 1 a "
                             "supervisor passes accepted connections to "
                             "workers by session affinity and aggregates "
                             "/stats and /metrics across the pool")
    args = parser.parse_args(argv)

    if not args.databases and args.workload is None and args.corpus is None:
        parser.error("nothing to serve: pass a database, --workload, "
                     "or --corpus")
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.workers > 1:
        if args.self_profile:
            parser.error("--self-profile traces one process; it is not "
                         "supported with --workers > 1")
        from repro.server.pool import run_pool

        return run_pool(args)
    tracer = install() if args.self_profile else None
    server = build_server(
        host=args.host,
        port=args.port,
        databases=args.databases,
        workload=args.workload,
        nranks=args.nranks,
        seed=args.seed,
        cache_size=args.cache_size,
        max_body=args.max_body,
        max_inflight=args.max_inflight or None,
        request_timeout_s=args.request_timeout,
        session_ttl_s=args.session_ttl,
        max_sessions=args.max_sessions,
        scope_budget=args.scope_budget,
        slow_ms=args.slow_ms,
        corpus_root=args.corpus,
        corpus_compact_interval_s=args.corpus_compact_interval,
        diff_cache_size=args.diff_cache_size,
    )
    host, port = server.server_address[:2]
    for info in server.app.registry.list_info():
        print(f"session {info['id']}: {info['label']} "
              f"({info['scopes']} scopes, {info['ranks']} rank(s))")
    extras = []
    if tracer is not None:
        extras.append(f"self-profiling to {args.self_profile}")
    if args.slow_ms is not None:
        extras.append(f"slow-query log at {args.slow_ms:g}ms")
    if args.corpus is not None:
        extras.append(f"corpus at {args.corpus}")
    suffix = f" [{'; '.join(extras)}]" if extras else ""
    print(f"repro-serve listening on http://{host}:{port}/ "
          f"(Ctrl-C to stop){suffix}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        server.app.close()
        if tracer is not None:
            uninstall()
            try:  # a second Ctrl-C must not lose the collected profile
                signal.signal(signal.SIGINT, signal.SIG_IGN)
            except ValueError:  # pragma: no cover - non-main thread
                pass
            _experiment, size = save_self_profile(tracer, args.self_profile)
            print(f"self-profile: {tracer.span_count()} spans -> "
                  f"{args.self_profile} ({size} bytes); inspect with "
                  f"'repro-view {args.self_profile} --view all'")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
