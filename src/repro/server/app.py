"""The transport-independent application core of the analysis service.

:class:`AnalysisApp` maps ``(method, path, raw body)`` to
``(status, payload, headers)``; the HTTP layer in
:mod:`repro.server.http` is a thin adapter over it, which is what lets
the fuzz and property suites drive the full request pipeline —
decoding, routing, validation, caching, error translation —
in-process without sockets.

Request handling contract:

* the public surface is versioned: every endpoint's canonical mount
  point is ``/v1/...``; the bare (historical) path is a deprecated
  alias that serves the byte-identical body plus a ``Deprecation``
  header and a one-time server log warning;
* the routing table, request schemas, and response shapes live in
  :mod:`repro.server.schema` (:data:`~repro.server.schema.ENDPOINTS`),
  the same registry the generated ``docs/api.md`` and the public-API
  snapshot test are built from;
* every request gets a trace id, surfaced in the ``X-Trace-Id``
  response header, in every structured error payload, and in slow-log
  lines; while handling runs it is the ambient
  :func:`repro.obs.current_trace_id`;
* every response body is a JSON object — except ``GET /metrics``,
  which serves Prometheus text (a :class:`~repro.server.schema.RawBody`
  at this layer); failures carry the :mod:`repro.errors` taxonomy and
  *never* a traceback;
* wire negotiation and response caching live in one dispatcher, driven
  by each :class:`~repro.server.schema.Operation`'s declared
  ``encodings`` and ``cache`` key: it negotiates ``Accept`` once, serves
  a session-scoped hit (tables, renders, hot paths, session queries)
  from the LRU :class:`~repro.server.cache.RenderCache` as a byte
  write, and on a miss encodes the handler's snapshot once, in the
  negotiated encoding.  Keys are ``(session, generation, operation,
  canonical request, encoding[, sort spec, flatten depth])``; handlers
  only build snapshots;
* mutations (derived metric, flatten, unflatten) bump the session
  generation and eagerly invalidate the session's cache entries;
* per-endpoint request counters, latency aggregates, and latency
  histograms are kept under a dedicated lock and surfaced at
  ``GET /stats`` (JSON) and ``GET /metrics`` (Prometheus);
* request stages run under :func:`repro.obs.span` hooks
  (``server.request <label>``, ``server.decode``, …) — no-ops unless a
  tracer is installed (``repro-serve --self-profile``).
"""

from __future__ import annotations

import base64
import binascii
import json
import logging
import os
import threading
import time
import uuid
from collections import OrderedDict
from contextlib import nullcontext
from typing import Callable
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ReproError
from repro.core.metrics import MetricFlavor
from repro.core.views import ViewKind
from repro.obs.promexport import Histogram, render_metrics
from repro.obs.slowlog import SlowLog
from repro.obs.spans import reset_trace_id, set_trace_id, span
from repro.server.cache import RenderCache
from repro.server.deadline import Deadline, deadline_scope
from repro.errors import (
    ApiError,
    BadRequest,
    MethodNotAllowed,
    NotFound,
    PayloadTooLarge,
    ServiceUnavailable,
    TooManyRequests,
    translate_domain_error,
)
from repro.server.schema import (
    API_VERSION,
    ENDPOINTS,
    BinaryBody,
    CompactionReport,
    CorpusCompactRequest,
    CorpusInfo,
    CorpusOpenRequest,
    CorpusOpened,
    CorpusPolicyRequest,
    CorpusSearchRequest,
    CorpusUploadRequest,
    DeriveMetricRequest,
    DerivedMetricCreated,
    DiffRequest,
    EncodedJson,
    EndpointDef,
    EnsembleRequest,
    HotPathRequest,
    HotPathResult,
    MetricList,
    MutationResponse,
    OpenSessionRequest,
    Operation,
    PolicyResponse,
    ProfileDeleted,
    ProfileInfo,
    ProfileIngested,
    ProfileList,
    QueryRequest,
    RawBody,
    RenderRequest,
    RenderResponse,
    SessionClosed,
    SessionInfoResponse,
    SessionList,
    SessionOpened,
    SortRequest,
    SortResponse,
    TableRequest,
    TableResult,
    TraceRequest,
)
from repro.server.sessions import (
    SessionHandle,
    SessionRegistry,
    SortSpec,
    hot_path_snapshot,
    render_snapshot,
    table_snapshot,
)
from repro.server.wire import COLUMNAR_CONTENT_TYPE, accepts_columnar

__all__ = [
    "AnalysisApp",
    "DEFAULT_MAX_BODY",
    "DEFAULT_MAX_INFLIGHT",
    "decode_json_body",
    "prometheus_from_states",
]

logger = logging.getLogger("repro.server")

#: request bodies above this are rejected with 413 (overridable per app)
DEFAULT_MAX_BODY = 1 << 20

#: concurrent in-flight requests admitted before shedding with 429
DEFAULT_MAX_INFLIGHT = 64

#: endpoints that bypass admission control — monitoring must keep
#: working while the server sheds analysis load
_ADMISSION_EXEMPT = frozenset(
    ep.segments for ep in ENDPOINTS if ep.admission_exempt
)

#: static routes (no path parameters) and parameterised ones, split once;
#: sessions keep their dedicated fast path (the hot routes), every other
#: parameterised template (the corpus tree) goes through the generic
#: segment matcher
_STATIC_ROUTES: dict[tuple[str, ...], EndpointDef] = {
    ep.segments: ep for ep in ENDPOINTS
    if not any(seg.startswith("<") for seg in ep.segments)
}
_SESSION_ROUTES: dict[tuple[str, ...], EndpointDef] = {
    ep.segments[2:]: ep for ep in ENDPOINTS if "<sid>" in ep.segments
}
_PARAM_ROUTES: tuple[EndpointDef, ...] = tuple(
    ep for ep in ENDPOINTS
    if any(seg.startswith("<") for seg in ep.segments)
    and "<sid>" not in ep.segments
)

#: request-span names, precomputed per endpoint label (hot path)
_REQUEST_SPAN_NAMES = {ep.path: f"server.request {ep.path}" for ep in ENDPOINTS}

_VIEW_KINDS = {
    "cct": ViewKind.CALLING_CONTEXT,
    "calling-context": ViewKind.CALLING_CONTEXT,
    "callers": ViewKind.CALLERS,
    "flat": ViewKind.FLAT,
}

_FLAVORS = {
    "inclusive": MetricFlavor.INCLUSIVE,
    "exclusive": MetricFlavor.EXCLUSIVE,
    "i": MetricFlavor.INCLUSIVE,
    "e": MetricFlavor.EXCLUSIVE,
}


# --------------------------------------------------------------------- #
# request decoding
# --------------------------------------------------------------------- #
def decode_json_body(raw: bytes, max_body: int = DEFAULT_MAX_BODY) -> dict:
    """Decode a request body into a dict, or raise from the taxonomy.

    Empty bodies mean "no arguments"; anything else must be a UTF-8
    JSON *object* no larger than *max_body* bytes.
    """
    if len(raw) > max_body:
        raise PayloadTooLarge(
            f"request body of {len(raw)} bytes exceeds limit of {max_body}"
        )
    if not raw:
        return {}
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadRequest(
            f"request body is not valid UTF-8: {exc.reason}",
            code="malformed-encoding",
        ) from None
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadRequest(
            f"request body is not valid JSON: {exc.msg} at offset {exc.pos}",
            code="malformed-json",
        ) from None
    if not isinstance(body, dict):
        raise BadRequest(
            f"request body must be a JSON object, got {type(body).__name__}",
            code="bad-request-shape",
        )
    return body


def _view_kind(name: str) -> ViewKind:
    try:
        return _VIEW_KINDS[name.lower()]
    except KeyError:
        raise BadRequest(
            f"unknown view {name!r} (have: cct, callers, flat)",
            code="bad-view-kind",
        ) from None


def _flavor(name: str | None, default: MetricFlavor) -> MetricFlavor:
    if name is None:
        return default
    try:
        return _FLAVORS[name.lower()]
    except KeyError:
        raise BadRequest(
            f"unknown metric flavor {name!r} (have: inclusive, exclusive)",
            code="bad-flavor",
        ) from None


def _effective_sort(
    handle: SessionHandle, req: TableRequest | RenderRequest
) -> tuple[str | None, MetricFlavor, bool]:
    """A table or render request's sort column: explicit request fields
    override the session's sort state, which overrides the defaults."""
    sort = handle.sort
    flavor = _flavor(
        req.flavor,
        sort.flavor if sort is not None and req.metric is None
        else MetricFlavor.INCLUSIVE,
    )
    metric = req.metric
    if metric is None and sort is not None:
        metric = sort.metric
    descending = req.descending
    if descending is None:
        descending = sort.descending if sort is not None else True
    return metric, flavor, descending


def _query_table(result, generation: int, session: str = "",
                 **extras) -> TableResult:
    """A query result as a table response: the ``/table`` shape plus the
    scope categories, encoded under the ``query.encode`` span."""
    if result.categories:
        extras = {"categories": list(result.categories), **extras}
    return TableResult(result.to_snapshot(generation), session=session,
                       extras=extras, encode_span="query.encode")


def _encode(result: TableResult | dict,
            columnar: bool) -> EncodedJson | BinaryBody:
    """The negotiated wire body of a shaped handler's result.

    A JSON-only result (a payload dict) answers every ``Accept``.
    """
    if not isinstance(result, TableResult):
        return EncodedJson(result)
    with (span(result.encode_span) if result.encode_span is not None
          else nullcontext()):
        return result.body(columnar)


def _query_dict(query: str) -> dict:
    """Decode a URL query string into body-equivalent typed fields.

    Values parse as JSON scalars when possible (``depth=4`` → int 4,
    ``hot_path=true`` → bool), else stay strings (``metric=cycles``).
    """
    out: dict = {}
    for key, value in parse_qsl(query, keep_blank_values=True):
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _header(headers, name: str) -> str | None:
    """Case-insensitive header lookup over a dict or a Message-alike."""
    if headers is None:
        return None
    get = getattr(headers, "get", None)
    if get is None:
        return None
    value = get(name)
    if value is None and isinstance(headers, dict):
        lowered = name.lower()
        for key, val in headers.items():
            if isinstance(key, str) and key.lower() == lowered:
                return val
    return value


def _split_version(path: str) -> tuple[str | None, str]:
    """Split the version prefix off a request path.

    ``/v1/stats`` → ``("v1", "/stats")``; the bare ``/stats`` →
    ``(None, "/stats")`` — a deprecated alias of the versioned path.
    """
    prefix = "/" + API_VERSION
    if path == prefix or path == prefix + "/":
        return API_VERSION, "/"
    if path.startswith(prefix + "/"):
        return API_VERSION, path[len(prefix):]
    return None, path


# --------------------------------------------------------------------- #
# alignment cache (path-mode /diff requests)
# --------------------------------------------------------------------- #
class _AlignCache:
    """Bounded LRU of :class:`~repro.core.ensemble.Ensemble` alignments.

    Path-mode ``/diff`` requests re-align the same member set on every
    call even though alignment dominates the request; this cache keys
    the finished ensemble on the member paths *and their stat
    fingerprints* (mtime_ns, size — for stores, the manifest's), so a
    rewritten or deleted member can never be served stale.  Entries are
    populated only after a fully successful alignment — a failing
    member never taints the cache — and corpus deletions invalidate by
    path eagerly.
    """

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = max(0, int(capacity))
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @staticmethod
    def fingerprint(paths, strict: bool) -> tuple:
        """Stat-based identity of a member set (raises ``OSError``)."""
        parts = [bool(strict)]
        for path in paths:
            full = os.path.abspath(os.fspath(path))
            st = os.stat(full)
            if os.path.isdir(full):
                # a store dir's payload files can change without the
                # directory mtime moving; the manifest is rewritten on
                # every mutation, so stat it too
                manifest = os.path.join(full, "manifest.json")
                mst = os.stat(manifest)
                parts.append((full, st.st_mtime_ns,
                              mst.st_mtime_ns, mst.st_size))
            else:
                parts.append((full, st.st_mtime_ns, st.st_size))
        return tuple(parts)

    def get(self, key: tuple):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, value) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate_path(self, path: str) -> int:
        """Drop every cached alignment that involves *path*."""
        full = os.path.abspath(os.fspath(path))
        with self._lock:
            doomed = [
                key for key in self._entries
                if any(
                    isinstance(part, tuple) and part[0] == full
                    for part in key
                )
            ]
            for key in doomed:
                del self._entries[key]
            self.invalidations += len(doomed)
            return len(doomed)

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }


# --------------------------------------------------------------------- #
# the application
# --------------------------------------------------------------------- #
class AnalysisApp:
    """Routing table, session registry, cache, and stats for one service."""

    def __init__(
        self,
        cache_size: int = 256,
        max_body: int = DEFAULT_MAX_BODY,
        max_inflight: int | None = DEFAULT_MAX_INFLIGHT,
        request_timeout_s: float | None = None,
        session_ttl_s: float | None = None,
        max_sessions: int | None = None,
        scope_budget: int | None = None,
        slow_ms: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        corpus_root: str | os.PathLike | None = None,
        corpus=None,
        corpus_compact_interval_s: float | None = None,
        diff_cache_size: int = 8,
    ) -> None:
        self.registry = SessionRegistry(
            max_sessions=max_sessions,
            ttl_s=session_ttl_s,
            scope_budget=scope_budget,
            clock=clock,
            on_evict=self._on_evict,
            on_adopt=self._on_adopt,
        )
        self.cache = RenderCache(cache_size)
        self.max_body = max_body
        self.max_inflight = max_inflight
        self.request_timeout_s = request_timeout_s
        self.clock = clock
        self.slowlog = SlowLog(slow_ms) if slow_ms is not None else None
        self._stats_lock = threading.Lock()
        self._stats: dict[str, dict] = {}
        self._warned_aliases: set[str] = set()
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        self._shed = 0
        self._started = time.time()
        self.align_cache = _AlignCache(diff_cache_size)
        self.corpus = corpus
        self._compactor = None
        if corpus is None and corpus_root is not None:
            from repro.corpus import CorpusCatalog

            self.corpus = CorpusCatalog(corpus_root, create=True)
        if self.corpus is not None and corpus_compact_interval_s:
            from repro.corpus import CompactionWorker

            self._compactor = CompactionWorker(
                self.corpus, interval_s=corpus_compact_interval_s
            )
            self._compactor.start()

    def close(self) -> None:
        """Stop background workers and release the corpus journal lock.

        Idempotent; transports call this on shutdown.  Sessions are
        owned by the registry's own TTL/eviction machinery and are not
        force-closed here.
        """
        if self._compactor is not None:
            self._compactor.stop()
            self._compactor = None
        if self.corpus is not None:
            self.corpus.close()

    def _on_evict(self, handle: SessionHandle) -> None:
        """Evicted sessions leave no cache residue (same path as close)."""
        self.cache.invalidate_session(handle.sid)
        self._unpin_profile(handle)

    def _on_adopt(self, handle: SessionHandle, spec: dict) -> None:
        """Re-establish corpus state after adopting a sibling's session.

        The pin file on disk still names the worker that opened the
        profile; if that worker crashed, the pin is stale and the next
        eviction scan would reap it.  Refreshing rewrites the pin to
        this process, so a quota'd tenant cannot evict a profile out
        from under a live adopted session.
        """
        provenance = spec.get("corpus")
        if provenance is None or self.corpus is None:
            return
        tenant, pid = provenance.get("tenant"), provenance.get("id")
        if not tenant or not pid:
            return
        try:
            self.corpus.pin(tenant, pid, handle.sid, refresh=True)
        except ReproError:  # profile already evicted: nothing to protect
            return
        handle.corpus_pin = (tenant, pid, handle.sid)

    def _unpin_profile(self, handle) -> None:
        """Release the corpus pin of a session opened by profile id."""
        if handle is None or self.corpus is None:
            return
        pin = getattr(handle, "corpus_pin", None)
        if pin is not None:
            handle.corpus_pin = None
            try:
                self.corpus.unpin(*pin)
            except ReproError:  # already evicted/unpinned elsewhere
                pass
            return
        # a pool worker closing a session it *adopted* never saw the
        # open-by-id request, so there is no in-memory pin record — but
        # the pin file names its owner sid, so release by owner
        try:
            self.corpus.release_pins(handle.sid)
        except (ReproError, OSError):
            pass

    # ------------------------------------------------------------------ #
    # admission control
    # ------------------------------------------------------------------ #
    def _try_admit(self) -> bool:
        with self._inflight_lock:
            if (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            ):
                self._shed += 1
                return False
            self._inflight += 1
            return True

    def _release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #
    def handle(
        self, method: str, path: str, raw: bytes = b"",
        request_headers=None,
    ) -> tuple[int, dict]:
        """Process one request; always returns ``(status, payload)``.

        The historical in-process surface: response headers are dropped
        and a raw/binary body (the Prometheus text, a columnar frame) is
        wrapped in a JSON object.  Transports that speak headers use
        :meth:`handle_full`.
        """
        status, payload, _headers = self.handle_full(
            method, path, raw, request_headers=request_headers
        )
        if isinstance(payload, (RawBody, BinaryBody)):
            payload = payload.to_payload()
        return status, payload

    def handle_full(
        self, method: str, path: str, raw: bytes = b"",
        request_headers=None,
    ) -> tuple[int, dict | RawBody | BinaryBody, dict[str, str]]:
        """Process one request: ``(status, payload, response headers)``.

        The payload is a JSON-ready dict, a :class:`RawBody` for the
        non-JSON ``/metrics`` endpoint, or a :class:`BinaryBody` when
        the request negotiated the columnar table encoding.  A JSON
        table-shaped or cached response is an :class:`EncodedJson` that
        also carries its wire bytes, encoded once per cache fill.  Headers
        always carry ``X-Trace-Id``; requests on deprecated unversioned
        aliases also get ``Deprecation`` and a ``Link`` to the
        successor path.  *request_headers* (a dict or an
        ``email.message.Message``) feeds content negotiation; only
        ``Accept`` is consulted.
        """
        t0 = time.perf_counter()
        label = "unmatched"
        trace_id = uuid.uuid4().hex[:16]
        token = set_trace_id(trace_id)
        headers: dict[str, str] = {"X-Trace-Id": trace_id}
        parts = urlsplit(path)
        version, route_path = _split_version(parts.path)
        exempt = (
            tuple(s for s in route_path.split("/") if s) in _ADMISSION_EXEMPT
        )
        admitted = False
        try:
            if not exempt:
                admitted = self._try_admit()
                if not admitted:
                    raise TooManyRequests(
                        f"server is at its in-flight limit of "
                        f"{self.max_inflight}; retry with backoff",
                        retry_after=1.0,
                    )
            op, params, label = self._match(method, route_path)
            if version is None:
                self._mark_deprecated_alias(method, label, route_path, headers)
            with span(_REQUEST_SPAN_NAMES.get(label)
                      or f"server.request {label}"):
                with span("server.decode"):
                    body = decode_json_body(raw, self.max_body)
                    if parts.query:
                        merged = _query_dict(parts.query)
                        merged.update(body)
                        body = merged
                deadline = (
                    Deadline(self.request_timeout_s, clock=self.clock)
                    if self.request_timeout_s is not None and not exempt
                    else None
                )
                with deadline_scope(deadline):
                    if op.shared_path:
                        status, payload = op.status, self._serve(
                            op, params, body,
                            _header(request_headers, "Accept"),
                        )
                    else:
                        status, payload = getattr(self, op.handler)(
                            params, body
                        )
        except ApiError as exc:
            status, payload = exc.status, exc.to_payload(trace_id=trace_id)
        except ReproError as exc:
            api = translate_domain_error(exc)
            status, payload = api.status, api.to_payload(trace_id=trace_id)
        except Exception as exc:  # pragma: no cover - last-resort guard
            status = 500
            payload = {
                "error": {
                    "status": 500,
                    "code": "internal",
                    "message": f"internal error ({type(exc).__name__})",
                    "trace_id": trace_id,
                }
            }
        finally:
            if admitted:
                self._release()
            reset_trace_id(token)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        self._record(label, status, elapsed_ms)
        if self.slowlog is not None:
            self.slowlog.record(label, elapsed_ms, status, trace_id)
        return status, payload, headers

    def _mark_deprecated_alias(
        self, method: str, label: str, route_path: str, headers: dict[str, str]
    ) -> None:
        """Stamp alias responses and warn once per aliased endpoint."""
        headers["Deprecation"] = "true"
        headers["Link"] = (
            f"</{API_VERSION}{route_path}>; rel=\"successor-version\""
        )
        key = f"{method.upper()} {label}"
        with self._stats_lock:
            first = key not in self._warned_aliases
            if first:
                self._warned_aliases.add(key)
        if first:
            logger.warning(
                "deprecated unversioned path used: %s %s — the canonical "
                "endpoint is /%s%s (alias kept for compatibility)",
                method.upper(), label, API_VERSION, label,
            )

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _match(self, method: str, path: str) -> tuple[Operation, dict, str]:
        segments = tuple(s for s in path.split("/") if s)
        params: dict = {}
        endpoint = _STATIC_ROUTES.get(segments)
        if (
            endpoint is None
            and len(segments) >= 2
            and segments[0] == "sessions"
        ):
            endpoint = _SESSION_ROUTES.get(segments[2:])
            params = {"sid": segments[1]}
        if endpoint is None:
            for candidate in _PARAM_ROUTES:
                template = candidate.segments
                if len(template) != len(segments):
                    continue
                bound: dict = {}
                for tmpl, actual in zip(template, segments):
                    if tmpl.startswith("<") and tmpl.endswith(">"):
                        bound[tmpl[1:-1]] = actual
                    elif tmpl != actual:
                        break
                else:
                    endpoint = candidate
                    params = bound
                    break
        if endpoint is None:
            raise NotFound(f"unknown endpoint {path!r}", code="unknown-endpoint")
        label = endpoint.path
        upper = method.upper()
        for op in endpoint.ops:
            if op.method == upper:
                return op, params, label
        raise MethodNotAllowed(
            f"{method} not allowed on {label} "
            f"(allowed: {', '.join(sorted(endpoint.methods()))})"
        )

    # ------------------------------------------------------------------ #
    # the shared negotiate / cache / encode path
    # ------------------------------------------------------------------ #
    def _serve(
        self, op: Operation, params: dict, body: dict, accept: str | None
    ) -> EncodedJson | BinaryBody:
        """Serve an operation that declares encodings or a cache key.

        ``Accept`` is negotiated once against ``op.encodings``, and the
        handler's result is encoded only in the negotiated encoding.  A
        session-scoped request is keyed, encoding included, under the
        session lock, so the generation in its key is the one its
        snapshot is built at; a hit is the body encoded when the entry
        was filled.  Requests without a canonical form (corpus-form
        queries, and operations that declare no cache) run the handler
        every time.
        """
        columnar = (COLUMNAR_CONTENT_TYPE in op.encodings
                    and accepts_columnar(accept))
        handler = getattr(self, op.handler)
        # a route-scoped session 404s before its body is validated
        handle = self.registry.get(params["sid"]) if "sid" in params else None
        req = op.request.from_body(body)
        cache = op.cache
        canonical = req.canonical() if cache is not None else None
        if canonical is None:
            return _encode(handler(handle, req), columnar)
        if handle is None:
            handle = self.registry.get(getattr(req, cache.session))
        with handle.lock:
            key = (handle.sid, handle.generation, cache.name, canonical,
                   columnar)
            if cache.view_state:
                key += (handle.sort, handle.flatten_depth)
            body = self.cache.get(key, op=cache.name)
            if body is None:
                body = _encode(handler(handle, req), columnar)
                self.cache.put(key, body, op=cache.name)
        return body

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def _record(self, label: str, status: int, elapsed_ms: float) -> None:
        with self._stats_lock:
            entry = self._stats.setdefault(
                label,
                {"count": 0, "errors": 0,
                 "total_ms": 0.0, "min_ms": None, "max_ms": 0.0,
                 "hist": Histogram()},
            )
            entry["count"] += 1
            if status >= 400:
                entry["errors"] += 1
            entry["total_ms"] += elapsed_ms
            entry["max_ms"] = max(entry["max_ms"], elapsed_ms)
            if entry["min_ms"] is None or elapsed_ms < entry["min_ms"]:
                entry["min_ms"] = elapsed_ms
            entry["hist"].observe(elapsed_ms / 1000.0)

    def stats_payload(self) -> dict:
        with self._stats_lock:
            endpoints = {}
            total = errors = 0
            for label, entry in sorted(self._stats.items()):
                count = entry["count"]
                total += count
                errors += entry["errors"]
                endpoints[label] = {
                    "count": count,
                    "errors": entry["errors"],
                    "latency_ms": {
                        "mean": entry["total_ms"] / count,
                        "min": entry["min_ms"] or 0.0,
                        "max": entry["max_ms"],
                    },
                }
        payload = {
            "uptime_s": time.time() - self._started,
            "requests": {"total": total, "errors": errors,
                         "shed": self._shed, "inflight": self.inflight()},
            "endpoints": endpoints,
            "cache": self.cache.stats(),
            "diff_align_cache": self.align_cache.stats(),
            "sessions": len(self.registry),
            "resident_scopes": self.registry.total_cost(),
            "evictions": self.registry.evictions,
        }
        if self.corpus is not None:
            payload["corpus"] = {
                "root": self.corpus.root,
                "tenants": len(self.corpus.tenants()),
                "compactor": (
                    dict(self._compactor.stats)
                    if self._compactor is not None else None
                ),
            }
        if self.slowlog is not None:
            payload["slow_requests"] = self.slowlog.to_payload()
        return payload

    def metrics_state(self) -> dict:
        """The service's counters as a JSON-serializable, *mergeable* dict.

        This is the scrape unit of the multi-worker pool: each worker
        reports its state over the control channel and the supervisor
        sums them into one exposition via
        :func:`prometheus_from_states` — the same function a
        single-process server renders its own state through, so the two
        deployment shapes can never drift apart.
        """
        with self._stats_lock:
            endpoints = {
                label: {
                    "count": entry["count"],
                    "errors": entry["errors"],
                    "bucket_counts": list(entry["hist"].counts),
                    "sum": entry["hist"].sum,
                    "total": entry["hist"].total,
                }
                for label, entry in sorted(self._stats.items())
            }
            shed = self._shed
        return {
            "endpoints": endpoints,
            "shed": shed,
            "inflight": self.inflight(),
            "sessions": len(self.registry),
            "resident_scopes": self.registry.total_cost(),
            "evictions": self.registry.evictions,
            "cache": self.cache.stats(),
            "uptime_s": time.time() - self._started,
            "slow_observed": (
                self.slowlog.observed if self.slowlog is not None else None
            ),
        }

    def prometheus_text(self) -> str:
        """The service's counters and histograms in exposition format."""
        return prometheus_from_states([self.metrics_state()])

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def _ep_help(self, params: dict, body: dict) -> tuple[int, dict]:
        listing = []
        for endpoint in ENDPOINTS:
            methods = "/".join(endpoint.methods())
            summary = endpoint.ops[0].summary.split(" (")[0]
            listing.append(
                f"{methods} /{API_VERSION}{endpoint.path}  {summary}"
            )
        return 200, {
            "service": "repro-serve",
            "version": API_VERSION,
            "doc": "docs/server.md",
            "aliases": (
                f"unversioned paths are deprecated aliases of /{API_VERSION} "
                "and answer with a Deprecation header"
            ),
            "endpoints": listing,
        }

    def _ep_healthz(self, params: dict, body: dict) -> tuple[int, dict]:
        """Liveness (we answered) + readiness (we would admit a request).

        Exempt from admission control, so probes see 503 *with a reason*
        while analysis traffic is being shed, instead of being shed
        themselves — which is what lets a balancer distinguish
        "overloaded" from "dead".
        """
        inflight = self.inflight()
        ready = self.max_inflight is None or inflight < self.max_inflight
        if not ready:
            raise ServiceUnavailable(
                f"not ready: {inflight} requests in flight "
                f"(limit {self.max_inflight})",
                code="overloaded",
                retry_after=1.0,
            )
        return 200, {
            "status": "ok",
            "live": True,
            "ready": True,
            "inflight": inflight,
            "sessions": len(self.registry),
            "uptime_s": time.time() - self._started,
        }

    def _ep_stats(self, params: dict, body: dict) -> tuple[int, dict]:
        return 200, self.stats_payload()

    def _ep_prometheus(self, params: dict, body: dict) -> tuple[int, RawBody]:
        return 200, RawBody(
            "text/plain; version=0.0.4; charset=utf-8", self.prometheus_text()
        )

    def _ep_sessions_list(self, params: dict, body: dict) -> tuple[int, dict]:
        return 200, SessionList(self.registry.list_info()).to_payload()

    def _ep_sessions_open(self, params: dict, body: dict) -> tuple[int, dict]:
        req = OpenSessionRequest.from_body(body)
        if req.database is not None:
            handle = self.registry.open_database(
                req.database, strict=not req.salvage
            )
        else:
            handle = self.registry.open_workload(
                req.workload, nranks=req.nranks, seed=req.seed
            )
        report = getattr(handle.session.experiment, "load_report", None)
        resp = SessionOpened(
            session=handle.info(),
            load_report=report.to_payload() if report is not None else None,
        )
        return 201, resp.to_payload()

    def _ep_session_info(self, params: dict, body: dict) -> tuple[int, dict]:
        handle = self.registry.get(params["sid"])
        return 200, SessionInfoResponse(handle.info()).to_payload()

    def _ep_session_close(self, params: dict, body: dict) -> tuple[int, dict]:
        # close() may return None for a manifest-only session this
        # worker never adopted; the sid itself is all the response needs
        handle = self.registry.close(params["sid"])
        self.cache.invalidate_session(params["sid"])
        if handle is not None:
            self._unpin_profile(handle)
        return 200, SessionClosed(params["sid"]).to_payload()

    def _ep_metrics_list(self, params: dict, body: dict) -> tuple[int, dict]:
        handle = self.registry.get(params["sid"])
        with handle.lock:
            metrics = [
                {
                    "id": d.mid,
                    "name": d.name,
                    "kind": d.kind.value,
                    "unit": d.unit,
                    "formula": d.formula,
                }
                for d in handle.session.experiment.metrics
            ]
        return 200, MetricList(metrics).to_payload()

    def _ep_metrics_derive(self, params: dict, body: dict) -> tuple[int, dict]:
        handle = self.registry.get(params["sid"])
        req = DeriveMetricRequest.from_body(body)
        with handle.lock:
            desc = handle.session.experiment.add_derived_metric(
                req.name, req.formula, unit=req.unit
            )
            generation = handle.bump()
        self.cache.invalidate_session(handle.sid)
        resp = DerivedMetricCreated(
            metric={"id": desc.mid, "name": desc.name,
                    "formula": desc.formula, "unit": desc.unit},
            generation=generation,
        )
        return 201, resp.to_payload()

    def _ep_sort(self, params: dict, body: dict) -> tuple[int, dict]:
        handle = self.registry.get(params["sid"])
        req = SortRequest.from_body(body)
        flavor = _flavor(req.flavor, MetricFlavor.INCLUSIVE)
        with handle.lock:
            # resolve before storing, so unknown metric names 404 here
            handle.session.experiment.metrics.by_name(req.metric)
            handle.sort = SortSpec(req.metric, flavor, req.descending)
            return 200, SortResponse(handle.sort.to_payload()).to_payload()

    def _ep_hotpath(self, handle: SessionHandle, req: HotPathRequest) -> dict:
        metric = req.metric
        if metric is None and handle.sort is not None:
            metric = handle.sort.metric
        snapshot = hot_path_snapshot(
            handle.session, _view_kind(req.view),
            metric=metric, threshold=req.threshold,
        )
        return HotPathResult(**snapshot).to_payload()

    def _ep_flatten(self, params: dict, body: dict) -> tuple[int, dict]:
        return self._flatten_op(params["sid"], "flatten")

    def _ep_unflatten(self, params: dict, body: dict) -> tuple[int, dict]:
        return self._flatten_op(params["sid"], "unflatten")

    def _flatten_op(self, sid: str, op: str) -> tuple[int, dict]:
        handle = self.registry.get(sid)
        with handle.lock:
            getattr(handle.session, op)()
            depth = handle.flatten_depth
            generation = handle.bump()
        self.cache.invalidate_session(handle.sid)
        return 200, MutationResponse(depth, generation).to_payload()

    def _ep_table(
        self, handle: SessionHandle, req: TableRequest
    ) -> TableResult:
        metric, flavor, descending = _effective_sort(handle, req)
        snapshot = table_snapshot(
            handle.session,
            _view_kind(req.view),
            metric=metric,
            flavor=flavor,
            descending=descending,
            depth=req.depth,
            max_rows=req.max_rows,
            generation=handle.generation,
        )
        return TableResult(snapshot, session=handle.sid)

    def _ep_render(self, handle: SessionHandle, req: RenderRequest) -> dict:
        metric, flavor, descending = _effective_sort(handle, req)
        snapshot = render_snapshot(
            handle.session,
            _view_kind(req.view),
            metric=metric,
            flavor=flavor,
            descending=descending,
            depth=req.depth,
            hot_path=req.hot_path,
            threshold=req.threshold,
            max_rows=req.max_rows,
        )
        return RenderResponse(
            view=snapshot["view"],
            text=snapshot["text"],
            session=handle.sid,
            hot_path=snapshot.get("hot_path"),
        ).to_payload()

    def _ep_diff(self, _handle: None, req: DiffRequest) -> TableResult:
        """Align N experiments and serve one diff view over the union.

        Stateless by design: members come either from database paths
        (streamed through the alignment budget) or from open sessions
        (locked for the duration of the walk), the diff experiment is
        built, rendered, and discarded.  Nothing is written to the
        render cache — a failing member can never taint cached tables.
        """
        from contextlib import ExitStack

        from repro.core.ensemble import align_experiments, detect_regressions
        from repro.viewer.session import ViewerSession

        kind = _view_kind(req.view)
        flavor = _flavor(req.flavor, MetricFlavor.INCLUSIVE)
        with ExitStack() as stack:
            cache_key = None
            if req.sessions is not None:
                handles = [self.registry.get(sid) for sid in req.sessions]
                # lock in sorted sid order (deduped) so two concurrent
                # diffs over overlapping member sets cannot deadlock
                for handle in sorted(
                    {h.sid: h for h in handles}.values(),
                    key=lambda h: h.sid,
                ):
                    stack.enter_context(handle.lock)
                members = [h.session.experiment for h in handles]
                ensemble = align_experiments(members, strict=not req.salvage)
            else:
                members = req.databases
                # path-mode members have a durable identity: cache the
                # finished alignment keyed on stat fingerprints so the
                # same member set re-diffs without re-aligning.  An
                # unstattable member skips the cache and lets alignment
                # raise its canonical error; entries are stored only
                # after success, so a failing align never populates.
                try:
                    cache_key = _AlignCache.fingerprint(
                        members, not req.salvage
                    )
                except OSError:
                    cache_key = None
                cached = (
                    self.align_cache.get(cache_key)
                    if cache_key is not None else None
                )
                if cached is not None:
                    ensemble, entry_lock = cached
                    stack.enter_context(entry_lock)
                else:
                    ensemble = align_experiments(
                        members, strict=not req.salvage
                    )
                    if cache_key is not None:
                        entry_lock = threading.RLock()
                        stack.enter_context(entry_lock)
                        self.align_cache.put(
                            cache_key, (ensemble, entry_lock)
                        )
            _, b_label = ensemble.resolve(req.baseline)
            _, t_label = ensemble.resolve(req.target)
            diff_exp = ensemble.diff(
                req.baseline, req.target, factor=req.factor
            )
            findings = []
            if req.detect and req.target != "mean":
                corpus = None if req.baseline == "mean" else [req.baseline]
                findings = detect_regressions(
                    ensemble, metric=req.metric, target=req.target,
                    baseline=corpus, threshold=req.threshold,
                    sigma=req.sigma, min_share=req.min_share,
                )
            snapshot = table_snapshot(
                ViewerSession(diff_exp), kind,
                metric=req.metric, flavor=flavor,
                descending=req.descending, depth=req.depth,
                max_rows=req.max_rows, generation=0,
            )
        return TableResult(snapshot, session="diff", nest="diff", extras={
            "members": list(ensemble.names),
            "baseline": b_label,
            "target": t_label,
            "factor": req.factor,
            "findings": [f.to_payload() for f in findings],
            "report": ensemble.alignment.report.to_payload(),
        })

    def _ep_ensemble(self, params: dict, body: dict) -> tuple[int, dict]:
        """Open a persistent session over the union of N databases."""
        req = EnsembleRequest.from_body(body)
        handle = self.registry.open_ensemble(
            req.databases, salvage=req.salvage, stats=req.stats,
            label=req.label,
        )
        payload: dict = {"session": handle.info()}
        info = getattr(handle, "ensemble_info", None)
        if info is not None:
            payload["ensemble"] = info
        return 201, payload

    # ------------------------------------------------------------------ #
    # query endpoint
    # ------------------------------------------------------------------ #
    def _ep_query(
        self, handle: SessionHandle | None, req: QueryRequest
    ) -> TableResult | dict:
        """Run a call-path query or a corpus diagnosis.

        The session form arrives with its session locked (the dispatcher
        caches it per generation); its snapshot carries the generation
        the query ran at.  The one-profile form is negotiated but not
        cached; the corpus-sweep and diagnosis forms are JSON-only
        (their result is per-profile, not one table).  Corpus forms
        stream profiles one at a time and honor the request deadline
        between profiles.
        """
        from repro.query import run_query
        from repro.server.deadline import checkpoint

        if handle is not None:
            with span("query.evaluate"):
                result = run_query(req.compiled, handle.session.experiment)
            return _query_table(result, handle.generation, session=handle.sid)

        corpus = self._corpus_or_404()
        if req.diagnose:
            from repro.query import diagnose_corpus

            diagnosis = diagnose_corpus(
                corpus, req.tenant,
                metric=req.metric, baseline=req.baseline,
                rank_cov=req.rank_cov, scaling_floor=req.scaling_floor,
                drift_share=req.drift_share, salvage=req.salvage,
                checkpoint=lambda: checkpoint("diagnose"),
            )
            return diagnosis.to_payload()

        def run_on(pid: str):
            experiment = corpus.load(req.tenant, pid, salvage=req.salvage)
            try:
                with span("query.evaluate"):
                    return run_query(req.compiled, experiment)
            finally:
                release = getattr(experiment, "release", None)
                if release is not None:
                    release()

        if req.profile is not None:
            return _query_table(run_on(req.profile), 0, tenant=req.tenant,
                                profile=req.profile)

        # corpus sweep: the query runs over every committed profile of
        # the tenant, one streamed (and released) experiment at a time
        profiles = []
        for entry in corpus.list(req.tenant):
            checkpoint("query")
            table = run_on(entry.pid).to_payload()
            table["profile"] = entry.pid
            if entry.group:
                table["group"] = entry.group
            profiles.append(table)
        return {"tenant": req.tenant, "profiles": profiles}

    # ------------------------------------------------------------------ #
    # trace endpoint
    # ------------------------------------------------------------------ #
    def _ep_trace(
        self, _handle: None, req: TraceRequest
    ) -> TableResult | dict:
        """Serve a windowed view over a time-partitioned trace store.

        Stateless by design: the store is opened, read, and closed per
        request — window pruning means only the chunks overlapping
        ``[t0, t1)`` are ever mapped.  The flame view negotiates the
        columnar wire format like ``/table``; its JSON ``rows`` are
        exactly what ``decode_columnar`` yields from the framed body.
        The series view is JSON-only (two reductions per bin, not one
        table).
        """
        from repro.trace import flame_slab, flame_snapshot, idleness_series
        from repro.trace.store import open_trace

        with open_trace(req.path) as store:
            if req.view == "series":
                series = idleness_series(
                    store, t0=req.t0, t1=req.t1, bins=req.bins
                )
                series["path"] = req.path
                series["chunks_touched"] = store.chunks_touched
                series["chunks_total"] = store.chunks_total
                return series
            slab = flame_slab(
                store, rank=req.rank, t0=req.t0, t1=req.t1,
                metric=req.metric, max_spans=req.max_spans,
            )
            extras = dict(slab)
            extras["path"] = req.path
            extras["chunks_touched"] = store.chunks_touched
            extras["chunks_total"] = store.chunks_total
            return TableResult(flame_snapshot(slab), extras=extras,
                               layout="rows")

    # ------------------------------------------------------------------ #
    # corpus endpoints
    # ------------------------------------------------------------------ #
    def _corpus_or_404(self):
        if self.corpus is None:
            raise NotFound(
                "this server has no profile corpus configured "
                "(start with --corpus <dir>)",
                code="no-corpus",
            )
        return self.corpus

    def _ep_corpus_info(self, params: dict, body: dict) -> tuple[int, dict]:
        corpus = self._corpus_or_404()
        stats = corpus.stats()
        stats["align_cache"] = self.align_cache.stats()
        if self._compactor is not None:
            stats["compactor"] = dict(self._compactor.stats)
        return 200, CorpusInfo(corpus=stats).to_payload()

    def _ep_corpus_list(self, params: dict, body: dict) -> tuple[int, dict]:
        corpus = self._corpus_or_404()
        req = CorpusSearchRequest.from_body(
            {k: v for k, v in body.items() if not k.startswith("meta.")}
        )
        meta = {
            key[len("meta."):]: value
            for key, value in body.items()
            if key.startswith("meta.") and len(key) > len("meta.")
        }
        entries = corpus.search(
            params["tenant"], name=req.name, group=req.group,
        )
        if meta:
            # query strings are type-ambiguous (?meta.build=2 could mean
            # int or str), so the HTTP filter compares stringwise
            entries = [
                e for e in entries
                if all(k in e.meta and str(e.meta[k]) == str(v)
                       for k, v in meta.items())
            ]
        return 200, ProfileList(
            tenant=params["tenant"],
            profiles=[e.to_payload() for e in entries],
        ).to_payload()

    def _ep_corpus_upload(self, params: dict, body: dict) -> tuple[int, dict]:
        corpus = self._corpus_or_404()
        req = CorpusUploadRequest.from_body(body)
        if req.data is not None:
            try:
                payload = base64.b64decode(req.data, validate=True)
            except (binascii.Error, ValueError):
                raise BadRequest(
                    "'data' is not valid base64", code="bad-upload-encoding"
                ) from None
            entry = corpus.ingest_bytes(
                params["tenant"], payload, name=req.name,
                group=req.group, meta=req.meta, salvage=req.salvage,
            )
        else:
            entry = corpus.ingest_file(
                params["tenant"], req.path, name=req.name,
                group=req.group, meta=req.meta, salvage=req.salvage,
            )
        return 201, ProfileIngested(profile=entry.to_payload()).to_payload()

    def _ep_corpus_profile(self, params: dict, body: dict) -> tuple[int, dict]:
        corpus = self._corpus_or_404()
        entry = corpus.get(params["tenant"], params["pid"])
        payload = entry.to_payload()
        payload["pinned"] = corpus.pinned(params["tenant"], params["pid"])
        return 200, ProfileInfo(profile=payload).to_payload()

    def _ep_corpus_delete(self, params: dict, body: dict) -> tuple[int, dict]:
        corpus = self._corpus_or_404()
        tenant, pid = params["tenant"], params["pid"]
        # resolve the on-disk path before the entry disappears so the
        # alignment cache can drop every ensemble built over it
        path = corpus.profile_path(tenant, pid)
        corpus.delete(tenant, pid)
        self.align_cache.invalidate_path(path)
        return 200, ProfileDeleted(tenant=tenant, deleted=pid).to_payload()

    def _ep_corpus_open(self, params: dict, body: dict) -> tuple[int, dict]:
        """Open a committed profile as a session, pinned against eviction."""
        corpus = self._corpus_or_404()
        req = CorpusOpenRequest.from_body(body)
        tenant, pid = params["tenant"], params["pid"]
        entry = corpus.verify(tenant, pid)
        path = corpus.profile_path(tenant, pid)
        handle = self.registry.open_database(
            path, strict=not req.salvage,
            corpus={"tenant": tenant, "id": pid},
            sid_request=req.sid,
        )
        try:
            corpus.pin(tenant, pid, handle.sid)
        except ReproError:
            self.registry.close(handle.sid)
            raise
        handle.corpus_pin = (tenant, pid, handle.sid)
        report = getattr(handle.session.experiment, "load_report", None)
        resp = CorpusOpened(
            session=handle.info(),
            profile=entry.to_payload(),
            load_report=report.to_payload() if report is not None else None,
        )
        return 201, resp.to_payload()

    def _ep_corpus_compact(self, params: dict, body: dict) -> tuple[int, dict]:
        corpus = self._corpus_or_404()
        req = CorpusCompactRequest.from_body(body)
        tenant = params["tenant"]
        if req.group is not None:
            groups = {req.group: None}
        else:
            groups = corpus.compactable_groups(
                tenant, min_sources=req.min_sources
            )
        compacted = []
        for group in sorted(groups):
            sources = [
                corpus.profile_path(tenant, e.pid)
                for e in corpus.search(tenant, group=group)
                if e.kind == "rpdb"
            ]
            entry = corpus.compact_group(
                tenant, group, min_sources=req.min_sources
            )
            if entry is not None:
                for path in sources:
                    self.align_cache.invalidate_path(path)
                compacted.append(entry.to_payload())
        return 200, CompactionReport(
            tenant=tenant, compacted=compacted
        ).to_payload()

    def _ep_corpus_policy(self, params: dict, body: dict) -> tuple[int, dict]:
        corpus = self._corpus_or_404()
        policy = corpus.policy(params["tenant"])
        return 200, PolicyResponse(
            tenant=params["tenant"], policy=policy.to_payload()
        ).to_payload()

    def _ep_corpus_policy_set(
        self, params: dict, body: dict
    ) -> tuple[int, dict]:
        corpus = self._corpus_or_404()
        req = CorpusPolicyRequest.from_body(body)
        from repro.corpus import RetentionPolicy

        policy = RetentionPolicy(
            max_bytes=req.max_bytes,
            max_profiles=req.max_profiles,
            ttl_s=req.ttl_s,
        )
        evicted = corpus.set_policy(params["tenant"], policy)
        for item in evicted:
            self.align_cache.invalidate_path(item["path"])
        return 200, PolicyResponse(
            tenant=params["tenant"],
            policy=policy.to_payload(),
            evicted=evicted or None,
        ).to_payload()


# --------------------------------------------------------------------- #
# metrics aggregation (shared by single-process serving and the pool)
# --------------------------------------------------------------------- #
def _merge_metrics_states(states: list[dict]) -> dict:
    """Sum a list of :meth:`AnalysisApp.metrics_state` dicts into one."""
    endpoints: dict[str, dict] = {}
    merged = {
        "endpoints": endpoints,
        "shed": 0, "inflight": 0, "sessions": 0,
        "resident_scopes": 0, "evictions": 0,
        "cache": {"entries": 0, "hits": 0, "misses": 0, "operations": {}},
        "uptime_s": 0.0,
        "slow_observed": None,
    }
    for state in states:
        for label, entry in state.get("endpoints", {}).items():
            into = endpoints.setdefault(label, {
                "count": 0, "errors": 0,
                "bucket_counts": [0] * len(entry["bucket_counts"]),
                "sum": 0.0, "total": 0,
            })
            into["count"] += entry["count"]
            into["errors"] += entry["errors"]
            into["sum"] += entry["sum"]
            into["total"] += entry["total"]
            for i, count in enumerate(entry["bucket_counts"]):
                into["bucket_counts"][i] += count
        for key in ("shed", "inflight", "sessions", "resident_scopes",
                    "evictions"):
            merged[key] += state.get(key, 0)
        cache = state.get("cache", {})
        for key in ("entries", "hits", "misses"):
            merged["cache"][key] += cache.get(key, 0)
        for op, counts in cache.get("operations", {}).items():
            into = merged["cache"]["operations"].setdefault(
                op, {"hits": 0, "misses": 0, "fills": 0}
            )
            for key in into:
                into[key] += counts.get(key, 0)
        merged["uptime_s"] = max(merged["uptime_s"],
                                 state.get("uptime_s", 0.0))
        slow = state.get("slow_observed")
        if slow is not None:
            merged["slow_observed"] = (merged["slow_observed"] or 0) + slow
    return merged


def prometheus_from_states(states: list[dict]) -> str:
    """Exposition text for one or many :meth:`~AnalysisApp.metrics_state`.

    With a single state this renders byte-identically to the historical
    per-process ``GET /metrics`` output; the pool supervisor passes one
    state per live worker and serves the sum.
    """
    state = states[0] if len(states) == 1 else _merge_metrics_states(states)
    per_label = []
    for label, entry in sorted(state["endpoints"].items()):
        hist = Histogram()
        hist.counts = list(entry["bucket_counts"])
        hist.total = entry["total"]
        hist.sum = entry["sum"]
        per_label.append((label, entry["count"], entry["errors"],
                          hist.cumulative(), hist.sum, hist.total))
    cache = state["cache"]
    operations = sorted(cache.get("operations", {}).items())
    families: list[tuple[str, str, str, list]] = [
        (
            "repro_server_requests_total", "counter",
            "Requests handled, by endpoint label.",
            [("", {"endpoint": label}, count)
             for label, count, *_ in per_label],
        ),
        (
            "repro_server_request_errors_total", "counter",
            "Requests answered with status >= 400, by endpoint label.",
            [("", {"endpoint": label}, errors)
             for label, _count, errors, *_ in per_label],
        ),
        (
            "repro_server_request_duration_seconds", "histogram",
            "Request wall time, by endpoint label.",
            [
                sample
                for label, _c, _e, buckets, total_s, total_n in per_label
                for sample in (
                    [("_bucket", {"endpoint": label, "le": le}, count)
                     for le, count in buckets]
                    + [("_sum", {"endpoint": label}, total_s),
                       ("_count", {"endpoint": label}, total_n)]
                )
            ],
        ),
        (
            "repro_server_requests_shed_total", "counter",
            "Requests rejected by admission control.",
            [("", None, state["shed"])],
        ),
        (
            "repro_server_inflight_requests", "gauge",
            "Requests currently being handled.",
            [("", None, state["inflight"])],
        ),
        (
            "repro_server_sessions", "gauge",
            "Resident analysis sessions.",
            [("", None, state["sessions"])],
        ),
        (
            "repro_server_resident_scopes", "gauge",
            "Total scope cost of resident sessions.",
            [("", None, state["resident_scopes"])],
        ),
        (
            "repro_server_session_evictions_total", "counter",
            "Sessions evicted by TTL, count, or scope-budget pressure.",
            [("", None, state["evictions"])],
        ),
        (
            "repro_server_render_cache_entries", "gauge",
            "Entries resident in the render cache.",
            [("", None, cache["entries"])],
        ),
        (
            "repro_server_render_cache_hits_total", "counter",
            "Render cache hits.",
            [("", None, cache["hits"])],
        ),
        (
            "repro_server_render_cache_misses_total", "counter",
            "Render cache misses.",
            [("", None, cache["misses"])],
        ),
        *(
            (
                f"repro_server_response_cache_{counter}_total", "counter",
                f"Response cache {counter}, by cached operation.",
                [("", {"operation": op}, counts[counter])
                 for op, counts in operations],
            )
            for counter in ("hits", "misses", "fills")
        ),
        (
            "repro_server_uptime_seconds", "gauge",
            "Seconds since the application started.",
            [("", None, state["uptime_s"])],
        ),
    ]
    if state["slow_observed"] is not None:
        families.append((
            "repro_server_slow_requests_total", "counter",
            "Requests over the configured slowness threshold.",
            [("", None, state["slow_observed"])],
        ))
    return render_metrics(families)
