"""Pre-forked multi-worker serving: one listener, N analysis processes.

The single-process server (:mod:`repro.server.http`) threads requests
over one :class:`~repro.server.app.AnalysisApp`, so the GIL caps it at
roughly one core of render work.  :class:`ServerPool` removes that cap
without giving up shared state semantics:

* the **parent** binds the listening socket, accepts every connection,
  peeks at the first request line (``MSG_PEEK`` — the bytes stay in the
  kernel buffer for the worker), and passes the connection's file
  descriptor to a worker over an ``AF_UNIX``/``SOCK_SEQPACKET`` control
  channel (``socket.send_fds``);
* requests naming a session route by **affinity** —
  ``crc32(sid) % workers`` — so one worker owns each session and its
  generation-keyed render cache stays hot; everything else round-robins.
  Routing happens per *connection*, so workers enforce a keep-alive
  discipline: a connection stays alive while its requests name sessions
  the worker owns by affinity (the steady state — zero per-request
  routing cost), any other request is served once and the connection
  closed, and a kept-alive connection that *switches* to a session
  another worker owns is refused with ``421 Misdirected Request`` —
  a client cannot silently bypass affinity by reusing a connection;
* **workers** are forked analysis processes.  Each preloads the same
  databases in the same order (identical ``s1..sk`` ids everywhere) and
  then attaches a shared *session manifest directory*: ``POST
  /sessions`` claims the next id cluster-wide with an ``O_EXCL`` file
  naming how to re-open the source, and the affinity owner (or a
  restarted worker) lazily *adopts* the session from that manifest on
  first use.  Read-only ``.rpstore`` column mmaps are shared
  copy-on-write across the fork, so N workers hold one copy of the
  measured data;
* a **supervisor** thread reaps crashed workers (``waitpid``) and forks
  replacements on a fresh control channel; connections in flight on
  other workers never notice;
* the parent answers ``/v1/stats``, ``/v1/metrics`` and ``/v1/healthz``
  itself by querying every worker over its control channel and
  merging — ``/v1/metrics`` through :func:`~repro.server.app.prometheus_from_states`,
  the *same* function a single-process server renders through, so the
  two deployment shapes cannot drift.

Mutating requests without a session in the path (``POST /v1/sessions``)
round-robin; per-session mutations (derive, navigate, close) pin to the
affinity owner, so a session's generation counter lives in exactly one
process.  ``DELETE`` unlinks the manifest; stale copies elsewhere age
out via the normal TTL/LRU eviction and are unreachable anyway (affinity
never routes that sid elsewhere).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import socket
import tempfile
import threading
import time
import uuid
import zlib

from repro.server.app import (
    AnalysisApp,
    _sum_counters,
    prometheus_from_states,
)

__all__ = ["PoolWorker", "ServerPool", "merge_stats_payloads", "worker_main"]

#: largest first-request prefix the parent will peek while routing
_PEEK_LIMIT = 2048

#: request line / Host header wait before a silent connection is dropped
_PEEK_TIMEOUT_S = 5.0

#: control-channel datagram buffer (STATS replies carry full endpoint maps)
_CTRL_BUF = 4 * 1024 * 1024

#: largest single SOCK_SEQPACKET datagram a framed reply is split into —
#: must stay safely below the kernel socket buffer (~208 KiB default on
#: Linux), where a single oversized send would fail with EMSGSIZE
_CTRL_CHUNK = 60 * 1024

#: paths the parent pool answers itself, with merged worker state
_POOL_PATHS = frozenset(
    "/v1/" + name for name in ("stats", "metrics", "healthz")
)

_SID_RE = re.compile(rb"^[A-Z]+ /v1/sessions/([^/ ?]+)")
#: corpus open-by-id carrying its session id as a query parameter —
#: routed to the sid's affinity worker so the open and every follow-up
#: /sessions/<sid>/... request land on the same process (one pin owner,
#: one resident experiment, no adoption churn)
_CORPUS_SID_RE = re.compile(rb"^[A-Z]+ /v1/corpus/[^ ]*[?&]sid=([^&# ]+)")
_PATH_RE = re.compile(rb"^[A-Z]+ ([^ ?]+)")


# --------------------------------------------------------------------- #
# control-channel framing
# --------------------------------------------------------------------- #
def _ctrl_send(ctrl: socket.socket, payload: bytes) -> None:
    """Send a reply as a length header datagram followed by chunks.

    SOCK_SEQPACKET sends each buffer as one datagram, and a datagram
    larger than the socket buffer fails outright with EMSGSIZE — it is
    never split by the kernel.  STATS replies (full endpoint maps plus
    the slow-request ring) can plausibly outgrow that, so replies are
    framed: ``LEN <n>`` first, then ``ceil(n / _CTRL_CHUNK)`` chunks.
    """
    ctrl.sendall(b"LEN %d" % len(payload))
    for offset in range(0, len(payload), _CTRL_CHUNK):
        ctrl.sendall(payload[offset:offset + _CTRL_CHUNK])


def _ctrl_recv(ctrl: socket.socket) -> bytes | None:
    """Reassemble one framed reply; ``None`` on EOF or a torn frame."""
    reply = ctrl.recv(_CTRL_BUF)
    if not reply:
        return None
    if not reply.startswith(b"LEN "):
        return reply  # unframed single-datagram reply (PONG)
    try:
        total = int(reply[4:])
    except ValueError:
        return None
    parts: list[bytes] = []
    received = 0
    while received < total:
        chunk = ctrl.recv(_CTRL_BUF)
        if not chunk:
            return None
        parts.append(chunk)
        received += len(chunk)
    return b"".join(parts)


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
class _WorkerServerShim:
    """The attributes of the HTTP server a passed-fd handler touches."""

    def __init__(self, app: AnalysisApp, slot: int, workers: int) -> None:
        self.app = app
        #: this worker's affinity slot and the pool width: the request
        #: handler keeps a connection alive only while its requests name
        #: sessions that route here (crc32(sid) % pool_size == slot) and
        #: answers 421 when a kept-alive connection switches to a
        #: session another worker owns — see
        #: :meth:`~repro.server.http.AnalysisRequestHandler._affinity_guard`
        self.affinity_slot = slot
        self.pool_size = workers


def worker_main(ctrl: socket.socket, config: dict, slot: int) -> None:
    """Run one worker: build the app, then serve fds off the control channel.

    Never returns — exits the process via ``os._exit`` so a forked child
    cannot fall back into the parent's stack (atexit handlers, pytest
    internals, ...).
    """
    # the parent owns terminal signals; workers die on SIGTERM or when
    # the control channel reports EOF (parent gone)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
    exit_code = 0
    try:
        from repro.server.http import AnalysisRequestHandler

        app = AnalysisApp(
            cache_size=config.get("cache_size", 256),
            max_body=config["max_body"],
            max_inflight=config.get("max_inflight"),
            request_timeout_s=config.get("request_timeout_s"),
            session_ttl_s=config.get("session_ttl_s"),
            max_sessions=config.get("max_sessions"),
            scope_budget=config.get("scope_budget"),
            slow_ms=config.get("slow_ms"),
            # every worker opens the same catalog: mutations serialize on
            # the journal flock, reads replay the shared journal.  The
            # compaction sweep runs in worker 0 only — any worker *can*
            # compact safely, but one sweeper avoids N-way lock churn.
            corpus_root=config.get("corpus_root"),
            corpus_compact_interval_s=(
                config.get("corpus_compact_interval_s") if slot == 0
                else None
            ),
            diff_cache_size=config.get("diff_cache_size", 8),
        )
        # preloads run with a plain counter — every worker opens the same
        # sources in the same order, so ids agree by construction and no
        # manifests are written for them; only then is the manifest
        # directory attached, making dynamically created sessions (and
        # crash-restart adoption) cluster-consistent
        for path in config.get("databases") or []:
            app.registry.open_database(path)
        if config.get("workload") is not None:
            app.registry.open_workload(
                config["workload"],
                nranks=config.get("nranks", 1),
                seed=config.get("seed", 12345),
            )
        app.registry.manifest_dir = config["manifest_dir"]
        shim = _WorkerServerShim(app, slot, config.get("workers", 1))

        def _serve(fd: int) -> None:
            conn = socket.socket(fileno=fd)
            try:
                try:
                    peer = conn.getpeername()
                except OSError:
                    peer = ("", 0)
                AnalysisRequestHandler(conn, peer, shim)
            except Exception:  # noqa: BLE001 - a broken conn kills no worker
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

        while True:
            try:
                msg, fds, _flags, _addr = socket.recv_fds(ctrl, _CTRL_BUF, 8)
            except OSError:
                break
            if not msg:  # EOF: parent is gone
                break
            if msg == b"CONN" and fds:
                fd = fds[0]
                for extra in fds[1:]:  # defensive: never leak descriptors
                    os.close(extra)
                threading.Thread(
                    target=_serve, args=(fd,), daemon=True
                ).start()
            elif msg == b"STATS":
                reply = json.dumps({
                    "pid": os.getpid(),
                    "slot": slot,
                    "stats": app.stats_payload(),
                    "mstate": app.metrics_state(),
                }).encode("utf-8")
                try:
                    _ctrl_send(ctrl, reply)
                except OSError:
                    continue  # a failed scrape must not kill the worker
            elif msg == b"PING":
                try:
                    ctrl.sendall(b"PONG")
                except OSError:
                    continue  # if the parent is gone, recv reports EOF
            elif msg == b"STOP":
                break
            else:
                for fd in fds:
                    os.close(fd)
    except Exception:  # pragma: no cover - startup failure is fatal
        import traceback

        traceback.print_exc()
        exit_code = 1
    os._exit(exit_code)


# --------------------------------------------------------------------- #
# stats merging (the /stats analogue of prometheus_from_states)
# --------------------------------------------------------------------- #
def merge_stats_payloads(payloads: list[dict]) -> dict:
    """Sum per-worker ``/stats`` payloads into one pool-wide view.

    Counters (requests, errors, shed, cache hits/misses, evictions,
    resident scopes, garbage-collector counts and pauses) add;
    per-endpoint latency merges as weighted mean / min-of-min /
    max-of-max; ``uptime_s`` is the oldest worker's.
    ``sessions`` adds too: a session adopted by two workers (creator and
    affinity owner) genuinely is resident twice.
    """
    endpoints: dict[str, dict] = {}
    merged = {
        "uptime_s": 0.0,
        "requests": {"total": 0, "errors": 0, "shed": 0, "inflight": 0},
        "endpoints": endpoints,
        "cache": {},
        "sessions": 0,
        "resident_scopes": 0,
        "evictions": 0,
    }
    slow: list[dict] | None = None
    for payload in payloads:
        merged["uptime_s"] = max(merged["uptime_s"],
                                 payload.get("uptime_s", 0.0))
        for key in ("total", "errors", "shed", "inflight"):
            merged["requests"][key] += payload.get("requests", {}).get(key, 0)
        for key in ("sessions", "resident_scopes", "evictions"):
            merged[key] += payload.get(key, 0)
        _sum_counters(merged["cache"], payload.get("cache", {}))
        if "gc" in payload:
            _sum_counters(merged.setdefault("gc", {}), payload["gc"])
        for label, entry in payload.get("endpoints", {}).items():
            into = endpoints.setdefault(label, {
                "count": 0, "errors": 0,
                "latency_ms": {"mean": 0.0, "min": None, "max": 0.0},
                "_sum_ms": 0.0,
            })
            into["count"] += entry["count"]
            into["errors"] += entry["errors"]
            lat = entry.get("latency_ms", {})
            into["_sum_ms"] += lat.get("mean", 0.0) * entry["count"]
            low = lat.get("min")
            if low is not None and (into["latency_ms"]["min"] is None
                                    or low < into["latency_ms"]["min"]):
                into["latency_ms"]["min"] = low
            into["latency_ms"]["max"] = max(into["latency_ms"]["max"],
                                            lat.get("max", 0.0))
        if "slow_requests" in payload:
            slow = (slow or []) + list(payload["slow_requests"])
    for entry in endpoints.values():
        if entry["count"]:
            entry["latency_ms"]["mean"] = entry.pop("_sum_ms") / entry["count"]
        else:
            entry.pop("_sum_ms")
            entry["latency_ms"]["mean"] = 0.0
        if entry["latency_ms"]["min"] is None:
            entry["latency_ms"]["min"] = 0.0
    if slow is not None:
        merged["slow_requests"] = slow
    return merged


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
class PoolWorker:
    """Parent-side record of one worker slot."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.pid: int | None = None
        self.ctrl: socket.socket | None = None
        self.restarts = -1  # first spawn brings it to 0
        self.lock = threading.Lock()  # serializes control-channel traffic

    @property
    def alive(self) -> bool:
        return self.pid is not None

    def info(self) -> dict:
        return {
            "slot": self.slot,
            "pid": self.pid,
            "alive": self.alive,
            "restarts": max(self.restarts, 0),
        }


class ServerPool:
    """Accepting parent + N forked analysis workers on one address.

    ``start()`` binds, forks, and begins accepting in background
    threads; ``close()`` tears everything down.  Usable with
    ``workers=1`` too (same serving path, no special cases), which is
    what the benchmark's scaling curve uses as its baseline.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        config: dict | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.host = host
        self.port = port
        self.num_workers = workers
        self.config = dict(config or {})
        self.config.setdefault("max_body", 1 << 20)
        self.listener: socket.socket | None = None
        self.workers = [PoolWorker(i) for i in range(workers)]
        self._rr = 0
        self._rr_lock = threading.Lock()
        self._started = time.time()
        self._closing = threading.Event()
        self._threads: list[threading.Thread] = []
        self._manifest_dir: str | None = None
        self._owns_manifest = False

    # -- lifecycle ------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        assert self.listener is not None, "pool not started"
        return self.listener.getsockname()[:2]

    def start(self) -> "ServerPool":
        manifest = self.config.get("manifest_dir")
        if manifest is None:
            manifest = tempfile.mkdtemp(prefix="repro-pool-")
            self._owns_manifest = True
        os.makedirs(manifest, exist_ok=True)
        self._manifest_dir = self.config["manifest_dir"] = manifest
        self.config["workers"] = self.num_workers
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind((self.host, self.port))
        self.listener.listen(128)
        for worker in self.workers:
            self._spawn(worker)
        for target, name in (
            (self._accept_loop, "pool-accept"),
            (self._supervise, "pool-supervisor"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def _spawn(self, worker: PoolWorker) -> None:
        parent_sock, child_sock = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_SEQPACKET
        )
        pid = os.fork()
        if pid == 0:  # ---- child ----
            parent_sock.close()
            if self.listener is not None:
                self.listener.close()
            for other in self.workers:  # inherited siblings' channel ends
                if other.ctrl is not None:
                    other.ctrl.close()
            worker_main(child_sock, self.config, worker.slot)
            os._exit(0)  # unreachable; worker_main never returns
        # ---- parent ----
        child_sock.close()
        parent_sock.settimeout(_PEEK_TIMEOUT_S)
        worker.pid = pid
        worker.ctrl = parent_sock
        worker.restarts += 1

    def close(self) -> None:
        """Stop accepting, terminate workers, release the manifest dir."""
        self._closing.set()
        if self.listener is not None:
            try:
                self.listener.close()
            except OSError:
                pass
        for worker in self.workers:
            if worker.pid is not None:
                try:
                    os.kill(worker.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + 5.0
        for worker in self.workers:
            pid, worker.pid = worker.pid, None
            if worker.ctrl is not None:
                try:
                    worker.ctrl.close()
                except OSError:
                    pass
                worker.ctrl = None
            while pid is not None:
                try:
                    reaped, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    break
                if reaped == pid:
                    break
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                    except (ProcessLookupError, ChildProcessError):
                        pass
                    break
                time.sleep(0.02)
        if self._owns_manifest and self._manifest_dir is not None:
            shutil.rmtree(self._manifest_dir, ignore_errors=True)

    def __enter__(self) -> "ServerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- supervision ---------------------------------------------------- #
    def _supervise(self) -> None:
        """Reap crashed workers and fork replacements on fresh channels."""
        while not self._closing.is_set():
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pid = 0
            if pid:
                for worker in self.workers:
                    if worker.pid == pid:
                        if worker.ctrl is not None:
                            try:
                                worker.ctrl.close()
                            except OSError:
                                pass
                            worker.ctrl = None
                        worker.pid = None
                        if not self._closing.is_set():
                            self._spawn(worker)
                        break
                continue  # reap eagerly: there may be more corpses
            self._closing.wait(0.1)

    # -- accept + route ------------------------------------------------- #
    def _accept_loop(self) -> None:
        assert self.listener is not None
        while not self._closing.is_set():
            try:
                conn, _addr = self.listener.accept()
            except OSError:  # listener closed — shutting down
                return
            threading.Thread(
                target=self._route, args=(conn,), daemon=True
            ).start()

    def _peek_request(self, conn: socket.socket) -> bytes:
        """The first request's opening bytes, left unread in the kernel.

        Waits (within the peek budget) for the request line's CRLF: a
        line split across TCP segments must not be routed on a partial
        prefix — ``/sessions/s12/...`` truncated after ``s1`` would hash
        to the wrong affinity slot.  A connection that never completes
        its request line inside the budget is dropped, not misrouted.
        """
        deadline = time.monotonic() + _PEEK_TIMEOUT_S
        data = b""
        while b"\r\n" not in data and len(data) < _PEEK_LIMIT:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return b""
            conn.settimeout(remaining)
            chunk = conn.recv(_PEEK_LIMIT, socket.MSG_PEEK)
            if not chunk:
                return b""  # EOF before any data
            if chunk == data:
                # peeked bytes unchanged: the rest is still in flight
                time.sleep(0.005)
                continue
            data = chunk
        return data

    def _pick_slot(self, head: bytes) -> int:
        match = _SID_RE.match(head) or _CORPUS_SID_RE.match(head)
        if match:
            return zlib.crc32(match.group(1)) % self.num_workers
        with self._rr_lock:
            slot = self._rr
            self._rr = (self._rr + 1) % self.num_workers
        return slot

    def _route(self, conn: socket.socket) -> None:
        try:
            head = self._peek_request(conn)
            if not head:
                conn.close()
                return
            path_match = _PATH_RE.match(head)
            path = path_match.group(1).decode("latin-1") if path_match else ""
            if path in _POOL_PATHS:
                self._serve_pool_endpoint(conn, head, path)
                return
            slot = self._pick_slot(head)
            conn.settimeout(None)
            self._hand_off(conn, slot)
        except (OSError, ValueError):
            try:
                conn.close()
            except OSError:
                pass

    def _hand_off(self, conn: socket.socket, slot: int) -> None:
        """Pass the connection fd to a worker; fall over to live siblings."""
        for attempt in range(self.num_workers):
            worker = self.workers[(slot + attempt) % self.num_workers]
            ctrl = worker.ctrl
            if ctrl is None:
                continue
            try:
                with worker.lock:
                    socket.send_fds(ctrl, [b"CONN"], [conn.fileno()])
                conn.close()  # worker holds its own duplicate now
                return
            except OSError:
                continue  # freshly dead; supervisor will refork it
        self._respond(
            conn, 503,
            self._error_payload(503, "no-worker",
                               "no live worker to take the connection"),
        )
        conn.close()

    # -- pool endpoints ------------------------------------------------- #
    def _query_worker(self, worker: PoolWorker, message: bytes) -> dict | None:
        ctrl = worker.ctrl
        if ctrl is None:
            return None
        try:
            with worker.lock:
                ctrl.sendall(message)
                reply = _ctrl_recv(ctrl)
            if reply is None:
                return None
            return json.loads(reply.decode("utf-8"))
        except (OSError, ValueError):
            return None

    def _scrape(self) -> tuple[list[dict], list[dict]]:
        """Per-worker infos and their STATS replies (dead workers skipped)."""
        infos, replies = [], []
        for worker in self.workers:
            info = worker.info()
            reply = self._query_worker(worker, b"STATS")
            if reply is None:
                info["alive"] = False
            else:
                info["pid"] = reply["pid"]
                replies.append(reply)
            infos.append(info)
        return infos, replies

    def _pool_payload(self, path: str) -> tuple[int, bytes, str]:
        infos, replies = self._scrape()
        name = path.rsplit("/", 1)[-1]
        if name == "metrics":
            text = prometheus_from_states(
                [r["mstate"] for r in replies] or [_EMPTY_METRICS_STATE]
            )
            return 200, text.encode("utf-8"), "text/plain; version=0.0.4"
        if name == "healthz":
            alive = sum(1 for info in infos if info["alive"])
            status = 200 if alive == self.num_workers else 503
            payload = {
                "status": "ok" if status == 200 else "degraded",
                "workers": infos,
                "alive": alive,
                "expected": self.num_workers,
            }
            if status != 200:
                payload = self._error_payload(
                    503, "degraded-pool",
                    f"{alive}/{self.num_workers} workers alive",
                    workers=infos,
                )
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            return status, body, "application/json"
        merged = merge_stats_payloads([r["stats"] for r in replies])
        merged["pool"] = {
            "workers": infos,
            "uptime_s": time.time() - self._started,
        }
        return (200, json.dumps(merged, sort_keys=True).encode("utf-8"),
                "application/json")

    @staticmethod
    def _error_payload(status: int, code: str, message: str, **extra) -> dict:
        error = {
            "status": status,
            "code": code,
            "message": message,
            "trace_id": uuid.uuid4().hex[:16],
        }
        error.update(extra)
        return {"error": error}

    def _serve_pool_endpoint(
        self, conn: socket.socket, head: bytes, path: str
    ) -> None:
        """Answer a monitoring request in the parent, then close.

        The peeked bytes are still unread; consume the request's header
        block (monitoring requests carry no body) before replying, and
        always close — aggregation happens at the front door, so these
        connections are not worth keeping alive.
        """
        data = head
        conn.settimeout(_PEEK_TIMEOUT_S)  # _peek_request may have shrunk it
        try:
            conn.recv(len(head))  # consume what was peeked
            while b"\r\n\r\n" not in data and len(data) < 64 * 1024:
                chunk = conn.recv(8192)
                if not chunk:
                    break
                data += chunk
        except OSError:
            conn.close()
            return
        method = head.split(b" ", 1)[0]
        if method != b"GET":
            status, body, ctype = (
                405,
                json.dumps(self._error_payload(
                    405, "method-not-allowed",
                    f"{method.decode('latin-1')} not supported on {path}",
                ), sort_keys=True).encode("utf-8"),
                "application/json",
            )
        else:
            status, body, ctype = self._pool_payload(path)
        self._respond(conn, status, body, ctype)
        conn.close()

    @staticmethod
    def _respond(
        conn: socket.socket,
        status: int,
        body: bytes | dict,
        content_type: str = "application/json",
    ) -> None:
        if isinstance(body, dict):
            body = json.dumps(body, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 405: "Method Not Allowed",
                  503: "Service Unavailable"}.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            conn.sendall(head + body)
        except OSError:
            pass


#: what /metrics merges when every worker is momentarily unreachable
_EMPTY_METRICS_STATE = {
    "endpoints": {}, "shed": 0, "inflight": 0, "sessions": 0,
    "resident_scopes": 0, "evictions": 0,
    "cache": {"entries": 0, "hits": 0, "misses": 0},
    "uptime_s": 0.0, "slow_observed": None,
}


# --------------------------------------------------------------------- #
def run_pool(args) -> int:  # pragma: no cover - exercised via CLI/subprocess
    """Serve with ``args.workers`` forked workers until interrupted."""
    config = {
        "databases": args.databases,
        "workload": args.workload,
        "nranks": args.nranks,
        "seed": args.seed,
        "cache_size": args.cache_size,
        "max_body": args.max_body,
        "max_inflight": args.max_inflight or None,
        "request_timeout_s": args.request_timeout,
        "session_ttl_s": args.session_ttl,
        "max_sessions": args.max_sessions,
        "scope_budget": args.scope_budget,
        "slow_ms": args.slow_ms,
        "corpus_root": args.corpus,
        "corpus_compact_interval_s": args.corpus_compact_interval,
        "diff_cache_size": args.diff_cache_size,
    }
    pool = ServerPool(
        host=args.host, port=args.port, workers=args.workers, config=config
    )
    pool.start()
    host, port = pool.address
    pids = ", ".join(str(w.pid) for w in pool.workers)
    print(f"repro-serve pool listening on http://{host}:{port}/ "
          f"({args.workers} workers: pids {pids}; Ctrl-C to stop)",
          flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down pool")
    finally:
        pool.close()
    return 0
