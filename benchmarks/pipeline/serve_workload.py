"""``serve`` — one HTTP request per op against a real ``repro-serve``.

The server is a subprocess (one worker) serving two sessions: ``s1``, a
4-rank ``.rpstore`` of the scaled program, and ``s2``, the s3d model.
Load comes from this process: two threads, each with one keep-alive
connection.  The request mix, exact per 20-request cycle and shuffled
from the seed:

* 30% ``GET /table`` as JSON (CCT, depth 6) on s1;
* 25% the same table in the columnar encoding;
* 20% ``POST /render`` on s2 (three views, depths 2-4);
* 10% ``GET /hotpath`` on s2;
* 10% ``POST /v1/query`` (groupby by name) on s1;
* 5% writes on s2, alternating flatten / unflatten, each of which
  invalidates s2's render cache.

So the mix exercises wire encoding, the render cache and the session
locks, with reads beside cache-invalidating writes, and no merge,
corpus or trace work.  Phases:

* capacity: both connections send back to back (closed loop);
* reference: an open loop at ``REFERENCE_RPS``, each request timed from
  when it was due, so a stall also delays the requests queued behind it;
* rate sweep (traced runs): open loops up the ``RATE_GRID`` until the
  latency or generator-lateness limit is missed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

from harness import REPO, NullRecorder, SpanRecorder, digest, log, percentile
from repro.core.hotpath import hot_path
from repro.core.metrics import MetricFlavor
from repro.hpcprof import database
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import merge_rank_files
from repro.server.wire import decode_columnar
from repro.sim.scale import generate_rank_files
from repro.sim.workloads import s3d

REFERENCE_RPS = 20.0
RATE_GRID = (10, 14, 20, 28, 40, 56, 80, 113)
P90_LIMIT_MS = 25.0
LATENESS_LIMIT_MS = 5.0

#: request kinds per 20-request cycle
MIX = (("table_json", 6), ("table_columnar", 5), ("render", 4),
       ("hotpath", 2), ("query", 2), ("flatten", 1))
CYCLE = sum(count for _kind, count in MIX)
#: request kind -> the server's /v1/stats endpoint label(s)
STATS_LABELS = {
    "table": ("/sessions/<sid>/table",),
    "render": ("/sessions/<sid>/render",),
    "hotpath": ("/sessions/<sid>/hotpath",),
    "query": ("/query",),
    "flatten": ("/sessions/<sid>/flatten", "/sessions/<sid>/unflatten"),
}
SELF_COMPONENTS = ("server", "viewer", "engine")

TABLE_PATH = "/v1/sessions/{sid}/table?view=cct&depth=6&max_rows=100000"
COLUMNAR = {"Accept": "application/x-repro-columnar"}
GROUPBY = {"ops": [{"op": "match", "pattern": "** / *"},
                   {"op": "groupby", "key": "name"}],
           "sort": {"metric": "cycles"}}
RENDERS = [(view, depth) for view in ("cct", "callers", "flat")
           for depth in (2, 3, 4)]

_SERVE_MAIN = ("import sys; from repro.cli import main_serve; "
               "sys.exit(main_serve(sys.argv[1:]))")


class Server:
    """A ``repro-serve`` subprocess on an ephemeral port."""

    def __init__(self, databases: list[str], self_profile: str | None = None,
                 timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + \
            env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-u", "-c", _SERVE_MAIN, *databases,
               "-p", "0"]
        if self_profile:
            cmd += ["--self-profile", self_profile]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0,
                                     env=env)
        #: session ids in the order the databases were given
        self.sids: list[str] = []
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        pending = b""
        try:
            while True:
                ready, _, _ = select.select(
                    [fd], [], [], max(deadline - time.monotonic(), 0))
                chunk = os.read(fd, 65536) if ready else b""
                if not chunk:
                    raise RuntimeError("repro-serve did not start "
                                       f"(exit {self.proc.poll()})")
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for line in (raw.decode() for raw in lines):
                    if line.startswith("session "):
                        self.sids.append(line.split()[1].rstrip(":"))
                    elif "listening on http://" in line:
                        hostport = line.split("http://", 1)[1].split("/")[0]
                        host, port = hostport.rsplit(":", 1)
                        self.host, self.port = host, int(port)
                        return
        except BaseException:
            self.stop()
            raise

    def vm_hwm_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        """Interrupt the server (it writes its self-profile) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class ServeWorkload:
    name = "serve"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.server: Server | None = None

    # ------------------------------------------------------------------ #
    # set-up: inputs, server start, warm-up + fingerprints
    # ------------------------------------------------------------------ #
    def setup(self, workdir: str) -> None:
        rng = random.Random(self.seed)
        fanout, depth = (3, 3) if self.smoke else (5, 4)
        paths = generate_rank_files(os.path.join(workdir, "ranks"), 4,
                                    fanout=fanout, depth=depth)
        self.databases = [os.path.join(workdir, "scaled.rpstore"),
                          os.path.join(workdir, "s3d.rpdb")]
        merge_rank_files(paths, self.databases[0], summarize="all")
        self.s3d = Experiment.from_program(s3d.build())
        database.save(self.s3d, self.databases[1])
        # exact proportions: every 20 requests hold the whole mix, and
        # every 9 renders every (view, depth)
        self.kinds = []
        for _ in range(256):
            cycle = [kind for kind, count in MIX for _ in range(count)]
            rng.shuffle(cycle)
            self.kinds.extend(cycle)
        renders = []
        self.render_args = {}
        for i, kind in enumerate(self.kinds):
            if kind == "render":
                if not renders:
                    renders = list(RENDERS)
                    rng.shuffle(renders)
                self.render_args[i] = renders.pop()
        self.start()

    def start(self, self_profile: str | None = None) -> None:
        """Start a server on the databases, then warm and fingerprint it."""
        self.close()
        self.server = Server(self.databases, self_profile=self_profile)
        self.s1, self.s2 = self.server.sids
        self._fingerprint()

    def _fingerprint(self) -> None:
        """Warm every request kind and record what a correct answer is."""
        conn = http.client.HTTPConnection(self.server.host, self.server.port,
                                          timeout=30)
        try:
            as_json = _call(conn, "GET", TABLE_PATH.format(sid=self.s1))
            as_cols = _call(conn, "GET", TABLE_PATH.format(sid=self.s1),
                            headers=COLUMNAR)
            payload = json.loads(as_json)
            payload.pop("session", None)
            if decode_columnar(as_cols) != payload:
                raise RuntimeError("columnar /table decodes to a different "
                                   "table than the JSON encoding")
            self.response_bytes = {"json": len(as_json),
                                   "columnar": len(as_cols)}
            self.expected = {
                "table_json": {digest(as_json)},
                "table_columnar": {digest(as_cols)},
                "query": {digest(_call(conn, "POST", "/v1/query",
                                       {"session": self.s1,
                                        "query": GROUPBY}))},
            }
            hot = _call(conn, "GET", f"/v1/sessions/{self.s2}/hotpath")
            want = [n.name for n in hot_path(
                self.s3d.calling_context_view(),
                self.s3d.spec(self.s3d.metrics.by_id(0).name)).path]
            if json.loads(hot)["path"] != want:
                raise RuntimeError("served hot path differs from the "
                                   "in-process hot path")
            self.expected["hotpath"] = {digest(hot)}
            # renders in both flatten states the writes alternate between
            for flattened in (False, True):
                if flattened:
                    _call(conn, "POST", f"/v1/sessions/{self.s2}/flatten")
                for view, depth in RENDERS:
                    body = _call(conn, "POST",
                                 f"/v1/sessions/{self.s2}/render",
                                 {"view": view, "depth": depth})
                    self.expected.setdefault(("render", view, depth),
                                             set()).add(digest(body))
            _call(conn, "POST", f"/v1/sessions/{self.s2}/unflatten")
        finally:
            conn.close()
        #: s2's flatten state, which the alternating writes follow
        self.flattened = False

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # ------------------------------------------------------------------ #
    # the load generator
    # ------------------------------------------------------------------ #
    def _request(self, conn, i: int, kind: str, write_lock):
        """Send request *i* of the mix; returns ``(status, body)``."""
        if kind == "table_json":
            return conn_call(conn, "GET", TABLE_PATH.format(sid=self.s1))
        if kind == "table_columnar":
            return conn_call(conn, "GET", TABLE_PATH.format(sid=self.s1),
                             headers=COLUMNAR)
        if kind == "render":
            view, depth = self.render_args[i % len(self.kinds)]
            return conn_call(conn, "POST", f"/v1/sessions/{self.s2}/render",
                             {"view": view, "depth": depth})
        if kind == "hotpath":
            return conn_call(conn, "GET", f"/v1/sessions/{self.s2}/hotpath")
        if kind == "query":
            return conn_call(conn, "POST", "/v1/query",
                             {"session": self.s1, "query": GROUPBY})
        # writes alternate strictly, so one runs at a time
        with write_lock:
            op = "unflatten" if self.flattened else "flatten"
            status, body = conn_call(conn, "POST",
                                     f"/v1/sessions/{self.s2}/{op}")
            if status == 200:
                self.flattened = not self.flattened
            return status, body

    def _check(self, i: int, kind: str, status: int,
               body: bytes) -> str | None:
        if status != 200:
            return f"{kind}: HTTP {status} {body[:200]!r}"
        if kind == "flatten":
            try:
                depth = json.loads(body).get("flatten_depth")
            except ValueError:
                depth = None
            return None if depth in (0, 1) else f"flatten depth {depth}"
        if kind == "render":
            view, depth = self.render_args[i % len(self.kinds)]
            expected = self.expected[("render", view, depth)]
        else:
            expected = self.expected[kind]
        return None if digest(body) in expected else f"{kind}: body differs"

    def drive(self, *, rate: float | None = None, seconds: float | None = None,
              count: int | None = None, traced: bool = False,
              first: int = 0) -> dict:
        """Two keep-alive connections, one per thread (this one + one).

        With *rate*, request ``i`` is due at ``t0 + i / rate`` (open
        loop) and its latency runs from that instant; otherwise each
        connection sends its next request as soon as the last returns.
        """
        lock = threading.Lock()
        write_lock = threading.Lock()
        state = {"next": first}
        t0 = time.perf_counter() + 0.02
        stop = t0 + seconds if seconds is not None else float("inf")
        recorders = [SpanRecorder() if traced else NullRecorder()
                     for _ in range(2)]
        samples: list[list] = [[], []]
        errors: list[BaseException] = []

        def take():
            with lock:
                i = state["next"]
                if count is not None and i - first >= count:
                    return None
                due = t0 + (i - first) / rate if rate else None
                if (due if due is not None else time.perf_counter()) >= stop:
                    return None
                state["next"] = i + 1
                return i, due

        def loop(slot: int) -> None:
            rec, out = recorders[slot], samples[slot]
            conn = http.client.HTTPConnection(self.server.host,
                                              self.server.port, timeout=30)
            try:
                while (item := take()) is not None:
                    i, due = item
                    kind = self.kinds[i % len(self.kinds)]
                    if due is not None:
                        delay = due - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                    start = rec.begin_op(i, start=due)
                    sent = time.perf_counter()
                    try:
                        with rec.span(f"server.{kind}"):
                            status, body = self._request(conn, i, kind,
                                                         write_lock)
                    except (OSError, http.client.HTTPException) as exc:
                        status, body = 0, repr(exc).encode()
                        conn.close()
                        conn = http.client.HTTPConnection(
                            self.server.host, self.server.port, timeout=30)
                    end = rec.end_op()
                    out.append((kind, start, sent, end,
                                self._check(i, kind, status, body)))
            except BaseException as exc:  # surfaced in the calling thread
                errors.append(exc)
            finally:
                conn.close()

        helper = threading.Thread(target=loop, args=(1,))
        helper.start()
        loop(0)
        helper.join()
        if errors:
            raise errors[0]
        merged = sorted(samples[0] + samples[1], key=lambda s: s[1])
        wall = max(s[3] for s in merged) - t0 if merged else 0.0
        return {"samples": merged, "wall": wall, "recorders": recorders,
                "next": state["next"]}

    def stats(self) -> dict:
        conn = http.client.HTTPConnection(self.server.host, self.server.port,
                                          timeout=30)
        try:
            return json.loads(_call(conn, "GET", "/v1/stats"))
        finally:
            conn.close()


def conn_call(conn, method: str, path: str, body=None, headers=None):
    data = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=data, headers=headers or {})
    response = conn.getresponse()
    return response.status, response.read()


def _call(conn, method: str, path: str, body=None, headers=None) -> bytes:
    status, data = conn_call(conn, method, path, body, headers)
    if status not in (200, 201):
        raise RuntimeError(f"{method} {path}: HTTP {status} {data[:200]!r}")
    return data


# --------------------------------------------------------------------- #
# phase summaries
# --------------------------------------------------------------------- #
def latency_summary(run: dict) -> dict:
    samples = run["samples"]
    lat = [(end - start) * 1e3 for _k, start, _s, end, _p in samples]
    late = [(sent - start) * 1e3 for _k, start, sent, _e, _p in samples]
    failed = sum(1 for s in samples if s[4] is not None)
    return {"n": len(samples), "failed": failed,
            "p50": percentile(lat, 50) if lat else float("nan"),
            "p90": percentile(lat, 90) if lat else float("nan"),
            "lateness_p90": percentile(late, 90) if late else float("nan")}


def rate_sweep(workload: ServeWorkload, step_seconds: float,
               min_requests: int, *, first: int) -> tuple[float, dict, list]:
    """Highest grid rate whose p90 and generator lateness stay in limit.

    A failed request misses every limit.  Returns the rate (0 when even
    the lowest misses), each rate's summary, and the runs themselves.
    """
    best = 0.0
    per_rate, runs = {}, []
    for rate in RATE_GRID:
        run = workload.drive(rate=rate, first=first,
                             seconds=max(step_seconds, min_requests / rate))
        runs.append(run)
        first = run["next"]
        s = latency_summary(run)
        per_rate[rate] = s
        ok = s["failed"] == 0 and s["p90"] <= P90_LIMIT_MS and \
            s["lateness_p90"] <= LATENESS_LIMIT_MS
        log(f"serve sweep {rate:>4} req/s: p90 {s['p90']:.2f} ms, "
            f"lateness p90 {s['lateness_p90']:.2f} ms, "
            f"{s['failed']}/{s['n']} failed -> {'ok' if ok else 'miss'}")
        if not ok:
            break
        best = float(rate)
    return best, per_rate, runs


def traced_breakdown(workload: ServeWorkload, count: int, first: int,
                     profile: str) -> tuple[dict, dict, dict]:
    """*count* back-to-back requests with client spans, against a fresh
    server started with ``--self-profile``.

    Returns the run, the per-layer counters (handler share of client
    time per endpoint, cache, response sizes, self-profile shares) and
    extra numbers for the report.
    """
    os.makedirs(os.path.dirname(profile), exist_ok=True)
    workload.start(self_profile=profile)
    before = workload.stats()
    run = workload.drive(count=count, traced=True, first=first)
    after = workload.stats()
    workload.close()  # the server writes its self-profile on the way out
    delta = stats_delta(before, after)
    shares = self_profile_shares(profile)
    client_ms: dict[str, list[float]] = {}
    for kind, _start, sent, end, _p in run["samples"]:
        key = "table" if kind.startswith("table") else kind
        client_ms.setdefault(key, []).append((end - sent) * 1e3)
    counters = {
        "server.cache.hit_rate": delta["cache"]["hit_rate"],
        "server.cache.invalidations": delta["cache"]["invalidations"],
        "server.response_bytes.json": workload.response_bytes["json"],
        "server.response_bytes.columnar": workload.response_bytes["columnar"],
        "server.self.encode.pct": shares["procedures_pct"].get(
            "server.encode", 0.0),
    }
    extra = {"server_self_profile": shares}
    for kind, handler_ms in delta["handler_mean_ms"].items():
        counters[f"server.handler.{kind}.pct"] = \
            100.0 * handler_ms / statistics.fmean(client_ms[kind])
        extra[f"server.handler.{kind}.mean_ms"] = handler_ms
    for component in SELF_COMPONENTS:
        counters[f"server.self.{component}.pct"] = \
            shares["components_pct"].get(component, 0.0)
    return run, counters, extra


def stats_delta(before: dict, after: dict) -> dict:
    """Handler mean per endpoint kind and cache counters between two
    ``/v1/stats`` snapshots."""
    def totals(stats, label):
        entry = stats["endpoints"].get(label)
        if not entry:
            return 0, 0.0
        return entry["count"], entry["count"] * entry["latency_ms"]["mean"]

    handler = {}
    for kind, labels in STATS_LABELS.items():
        n = ms = 0.0
        for label in labels:
            n1, t1 = totals(after, label)
            n0, t0 = totals(before, label)
            n += n1 - n0
            ms += t1 - t0
        if n:
            handler[kind] = ms / n
    cache = {k: after["cache"][k] - before["cache"][k]
             for k in ("hits", "misses", "invalidations")}
    lookups = cache["hits"] + cache["misses"]
    cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
    return {"handler_mean_ms": handler, "cache": cache}


def self_profile_shares(path: str) -> dict:
    """Exclusive-time shares of the server's self-profile Flat View."""
    exp = database.load(path)
    flat = exp.flat_view()
    spec = exp.spec("wall time (s)", MetricFlavor.EXCLUSIVE)
    components, procedures = {}, {}
    for root in flat.current_roots():
        component = root.name.removeprefix("obs://")
        components[component] = sum(flat.value(c, spec) for c in root.children)
        for child in root.children:
            procedures[child.name] = flat.value(child, spec)
    total = sum(components.values()) or 1.0
    return {
        "components_pct": {k: 100.0 * v / total
                           for k, v in components.items()},
        "procedures_pct": {k: 100.0 * v / total for k, v in
                           sorted(procedures.items(), key=lambda kv: -kv[1])},
    }
