"""Typed request/response schemas and the endpoint registry — the v1 API.

This module is the single source of truth for the service's public HTTP
surface:

* **request dataclasses** — every endpoint that reads fields parses its
  body through one of these, replacing the ad-hoc ``_field`` plumbing
  that grew in ``app.py``; validation semantics (types, ranges, error
  codes) are identical to the historical behaviour, which the fuzz and
  chaos suites pin;
* **response dataclasses** — the structured (non-cached) responses are
  built through typed wrappers whose ``to_payload`` produces exactly
  the wire shape; snapshot payloads (render, hot path) stay dicts for
  cacheability but their shape is documented here for the generated
  reference;
* **the endpoint registry** (:data:`ENDPOINTS`) — path templates,
  methods, handler names, schemas, response encodings, cache keys, and
  doc strings; the application builds its router and its shared
  negotiate/cache/encode path from it, ``tools/gen_api_docs.py``
  renders it into ``docs/api.md``, and ``tools/gen_api_surface.py``
  snapshots it into the public-API drift test.

Versioning: the canonical mount point for every endpoint is
``/v1<path>``; the bare path is a deprecated alias that serves the
byte-identical body plus a ``Deprecation`` header (see
``docs/server.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dc_fields
from functools import cached_property
from typing import Any, ClassVar

from repro.errors import BadRequest
from repro.obs import span
from repro.server.wire import (
    COLUMNAR_CONTENT_TYPE,
    TableSnapshot,
    encode_columnar,
)

__all__ = [
    "API_VERSION",
    "BinaryBody",
    "CacheKey",
    "ENDPOINTS",
    "EncodedJson",
    "EndpointDef",
    "FieldSpec",
    "Operation",
    "RawBody",
    "REQUIRED",
    "DeriveMetricRequest",
    "DerivedMetricCreated",
    "DiffRequest",
    "EnsembleRequest",
    "FlattenResponse",
    "HotPathRequest",
    "HotPathResult",
    "MetricList",
    "MutationResponse",
    "OpenSessionRequest",
    "RenderRequest",
    "RenderResponse",
    "SessionClosed",
    "SessionInfoResponse",
    "SessionList",
    "SessionOpened",
    "SortRequest",
    "SortResponse",
    "TableRequest",
    "TableResult",
    "json_body",
    "parse_fields",
]

#: the current (only) stable API version; endpoints mount at /v1/...
API_VERSION = "v1"

#: sentinel for fields with no default: omitting them is a 400
REQUIRED = object()

#: the default response media type
JSON_CONTENT_TYPE = "application/json"

#: what a table-shaped operation can answer with, default first
TABLE_ENCODINGS = (JSON_CONTENT_TYPE, COLUMNAR_CONTENT_TYPE)


# --------------------------------------------------------------------- #
# raw (non-JSON) responses
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RawBody:
    """A non-JSON response body (the Prometheus ``/metrics`` text).

    The HTTP layer writes ``text`` verbatim with ``content_type``; the
    in-process :meth:`AnalysisApp.handle` compatibility surface wraps it
    in a JSON object so programmatic callers still get a dict.
    """

    content_type: str
    text: str

    def to_payload(self) -> dict:
        return {"content_type": self.content_type, "text": self.text}


@dataclass(frozen=True)
class BinaryBody:
    """A binary response body (the framed columnar table encoding).

    The HTTP layer writes ``data`` verbatim with ``content_type``; the
    in-process :meth:`AnalysisApp.handle` compatibility surface wraps it
    in a JSON object (base64) so programmatic callers still get a dict.
    """

    content_type: str
    data: bytes

    def to_payload(self) -> dict:
        import base64

        return {
            "content_type": self.content_type,
            "base64": base64.b64encode(self.data).decode("ascii"),
        }


def json_body(payload: dict) -> bytes:
    """The JSON wire encoding of *payload*: sorted keys, UTF-8."""
    with span("server.encode"):
        return json.dumps(payload, sort_keys=True).encode("utf-8")


class EncodedJson(dict):
    """A JSON payload that carries its wire encoding, made once.

    The endpoint dispatcher encodes cached responses when the render
    cache is filled, so a JSON hit is a byte write like a columnar hit.
    To in-process callers it is the payload dict itself; ``data`` is
    exactly :func:`json_body` of that dict.  Never mutate one: the bytes
    are not re-derived.
    """

    __slots__ = ("data",)

    def __init__(self, payload: dict) -> None:
        super().__init__(payload)
        self.data = json_body(payload)


@dataclass(frozen=True)
class TableResult:
    """What a table-shaped handler returns: one snapshot plus JSON extras.

    The handler builds the data; the dispatcher picks the encoding.  The
    columnar body frames ``snapshot`` alone.  The JSON body is the
    snapshot's table payload stamped with ``session`` (``layout
    "table"``) or just its ``rows`` and ``labels`` (``layout "rows"``),
    nested under ``nest`` when set, with the JSON-only ``extras``
    merged on top.  ``encode_span`` names the span the encoding runs
    under, if the operation wants one of its own.
    """

    snapshot: TableSnapshot
    session: str = ""
    extras: dict = field(default_factory=dict)
    layout: str = "table"
    nest: str | None = None
    encode_span: str | None = None

    def to_json_payload(self) -> dict:
        if self.layout == "rows":
            table = {"rows": self.snapshot.to_rows(),
                     "labels": list(self.snapshot.labels)}
        else:
            table = self.snapshot.to_json_payload(self.session)
        payload = {self.nest: table} if self.nest is not None else table
        payload.update(self.extras)
        return payload

    def body(self, columnar: bool) -> "EncodedJson | BinaryBody":
        """This result as one wire body, encoded now."""
        if columnar:
            return BinaryBody(COLUMNAR_CONTENT_TYPE,
                              encode_columnar(self.snapshot))
        return EncodedJson(self.to_json_payload())


# --------------------------------------------------------------------- #
# request field machinery
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FieldSpec:
    """One validated request field (type, default, range, docs)."""

    name: str
    kind: type
    default: Any = REQUIRED
    lo: float | None = None
    hi: float | None = None
    doc: str = ""
    choices: tuple[str, ...] | None = None

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    @property
    def type_name(self) -> str:
        return self.kind.__name__

    def extract(self, body: dict) -> Any:
        """Fetch and validate this field from a decoded body.

        ``bool`` is rejected where a number is expected (it *is* an
        ``int`` in Python, but ``{"depth": true}`` is a client bug, not
        depth 1).  ``None`` counts as absent.
        """
        value = body.get(self.name, REQUIRED)
        if value is REQUIRED or value is None:
            if self.default is REQUIRED:
                raise BadRequest(
                    f"missing required field {self.name!r}", code="missing-field"
                )
            return self.default
        ok = isinstance(value, self.kind)
        if self.kind is not bool and isinstance(value, bool):
            ok = False
        if (
            self.kind is float
            and isinstance(value, int)
            and not isinstance(value, bool)
        ):
            ok, value = True, float(value)
        if not ok:
            raise BadRequest(
                f"field {self.name!r} must be {self.kind.__name__}, "
                f"got {type(value).__name__}",
                code="bad-field-type",
            )
        if self.kind in (int, float) and (
            (self.lo is not None and value < self.lo)
            or (self.hi is not None and value > self.hi)
        ):
            raise BadRequest(
                f"field {self.name!r} must be in [{self.lo}, {self.hi}], "
                f"got {value!r}",
                code="bad-field-value",
            )
        return value


def parse_fields(body: dict, specs: tuple[FieldSpec, ...]) -> dict:
    """Extract every spec'd field from *body*, in declaration order."""
    return {spec.name: spec.extract(body) for spec in specs}


class _Request:
    """Base for request dataclasses: ``from_body`` drives the specs."""

    FIELDS: ClassVar[tuple[FieldSpec, ...]] = ()

    @classmethod
    def from_body(cls, body: dict):
        return cls(**parse_fields(body, cls.FIELDS))

    def canonical(self):
        """The hashable form of this request in a response-cache key,
        or None when this request form is not cached.  A frozen request
        of scalar fields is its own canonical form."""
        return self


# --------------------------------------------------------------------- #
# request schemas
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class OpenSessionRequest(_Request):
    """``POST /v1/sessions`` — open a database or synthetic workload.

    Exactly one of ``database`` / ``workload`` must be given.  The
    source-specific knobs are validated only on the branch they apply
    to, preserving the historical lenience for unrelated extras.
    """

    database: str | None
    workload: str | None
    salvage: bool = False
    nranks: int = 1
    seed: int = 12345

    FIELDS = (
        FieldSpec("database", str, default=None,
                  doc="path of an experiment database (.xml / .rpdb)"),
        FieldSpec("workload", str, default=None,
                  doc="bundled synthetic workload name",
                  choices=("fig1", "s3d", "moab", "pflotran")),
    )
    _DB_FIELDS = (
        FieldSpec("salvage", bool, default=False,
                  doc="recover a corrupted/truncated binary database "
                      "instead of failing"),
    )
    _WORKLOAD_FIELDS = (
        FieldSpec("nranks", int, default=1, lo=1, hi=256,
                  doc="simulated MPI ranks"),
        FieldSpec("seed", int, default=12345, doc="simulation seed"),
    )

    @classmethod
    def from_body(cls, body: dict) -> "OpenSessionRequest":
        base = parse_fields(body, cls.FIELDS)
        if (base["database"] is None) == (base["workload"] is None):
            raise BadRequest(
                "open a session with exactly one of 'database' or 'workload'",
                code="bad-session-source",
            )
        if base["database"] is not None:
            base.update(parse_fields(body, cls._DB_FIELDS))
        else:
            base.update(parse_fields(body, cls._WORKLOAD_FIELDS))
        return cls(**base)


@dataclass(frozen=True)
class RenderRequest(_Request):
    """``GET/POST /v1/sessions/<sid>/render`` — render one view."""

    view: str
    metric: str | None
    flavor: str | None
    descending: bool | None
    depth: int
    hot_path: bool
    threshold: float | None
    max_rows: int

    FIELDS = (
        FieldSpec("view", str, default="cct",
                  doc="which view to render",
                  choices=("cct", "calling-context", "callers", "flat")),
        FieldSpec("metric", str, default=None,
                  doc="metric column to sort by (default: session sort, "
                      "else first metric)"),
        FieldSpec("flavor", str, default=None,
                  doc="metric flavor for the sort column",
                  choices=("inclusive", "exclusive", "i", "e")),
        FieldSpec("descending", bool, default=None,
                  doc="sort direction (default: session sort, else true)"),
        FieldSpec("depth", int, default=3, lo=0, hi=1000,
                  doc="expansion depth of the tree-table"),
        FieldSpec("hot_path", bool, default=False,
                  doc="expand the hot path instead of a fixed depth"),
        FieldSpec("threshold", float, default=None,
                  doc="hot-path threshold in (0, 1] (default: session "
                      "preference)"),
        FieldSpec("max_rows", int, default=60, lo=1, hi=100_000,
                  doc="row cap of the rendered table"),
    )


@dataclass(frozen=True)
class TableRequest(_Request):
    """``GET/POST /v1/sessions/<sid>/table`` — one view as a data table.

    Same row set and order as a ``render`` of the same arguments, but
    shipped as data (scope names, depths, metric columns) instead of
    formatted text.  The response encoding is negotiated: JSON rows by
    default; ``Accept: application/x-repro-columnar`` selects the framed
    binary columnar encoding (see ``docs/server.md``).
    """

    view: str
    metric: str | None
    flavor: str | None
    descending: bool | None
    depth: int
    max_rows: int

    FIELDS = (
        FieldSpec("view", str, default="cct",
                  doc="which view to tabulate",
                  choices=("cct", "calling-context", "callers", "flat")),
        FieldSpec("metric", str, default=None,
                  doc="metric column to sort by (default: session sort, "
                      "else first metric)"),
        FieldSpec("flavor", str, default=None,
                  doc="metric flavor for the sort column",
                  choices=("inclusive", "exclusive", "i", "e")),
        FieldSpec("descending", bool, default=None,
                  doc="sort direction (default: session sort, else true)"),
        FieldSpec("depth", int, default=3, lo=0, hi=1000,
                  doc="expansion depth of the tree-table"),
        FieldSpec("max_rows", int, default=60, lo=1, hi=100_000,
                  doc="row cap of the table"),
    )


@dataclass(frozen=True)
class HotPathRequest(_Request):
    """``GET/POST /v1/sessions/<sid>/hotpath`` — Eq. 3 without a render."""

    view: str
    metric: str | None
    threshold: float | None

    FIELDS = (
        FieldSpec("view", str, default="cct",
                  doc="view to run hot-path analysis on",
                  choices=("cct", "calling-context", "callers", "flat")),
        FieldSpec("metric", str, default=None,
                  doc="metric to descend by (default: session sort, else "
                      "first metric)"),
        FieldSpec("threshold", float, default=None,
                  doc="hot-path threshold in (0, 1] (default: session "
                      "preference)"),
    )


@dataclass(frozen=True)
class SortRequest(_Request):
    """``POST /v1/sessions/<sid>/sort`` — set the session sort column."""

    metric: str
    flavor: str | None
    descending: bool

    FIELDS = (
        FieldSpec("metric", str, doc="metric name to sort by"),
        FieldSpec("flavor", str, default=None,
                  doc="metric flavor (default: inclusive)",
                  choices=("inclusive", "exclusive", "i", "e")),
        FieldSpec("descending", bool, default=True, doc="sort direction"),
    )


@dataclass(frozen=True)
class DeriveMetricRequest(_Request):
    """``POST /v1/sessions/<sid>/metrics`` — define a derived metric."""

    name: str
    formula: str
    unit: str

    FIELDS = (
        FieldSpec("name", str, doc="name of the new metric column"),
        FieldSpec("formula", str,
                  doc="spreadsheet-like formula over existing metrics"),
        FieldSpec("unit", str, default="", doc="display unit"),
    )


def _member_selector(body: dict, name: str, default):
    """Validate a member selector: an index, a member name, or 'mean'."""
    value = body.get(name, None)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise BadRequest(
            f"field {name!r} must be a member index, a member name, or "
            f"'mean', got {type(value).__name__}",
            code="bad-field-type",
        )
    return value


def _member_paths(base: dict) -> None:
    """Validate the member lists of a diff/ensemble request in place."""
    for name in ("databases", "sessions"):
        paths = base.get(name)
        if paths is None:
            continue
        if len(paths) < 2:
            raise BadRequest(
                f"{name!r} needs at least two members, got {len(paths)}",
                code="bad-diff-members",
            )
        if not all(isinstance(p, str) for p in paths):
            raise BadRequest(
                f"{name!r} entries must all be strings",
                code="bad-diff-members",
            )
        base[name] = list(paths)


@dataclass(frozen=True)
class DiffRequest(_Request):
    """``GET/POST /v1/diff`` — align members and serve a diff view.

    Members come from exactly one of ``databases`` (paths, streamed
    one at a time) or ``sessions`` (open session ids).  ``baseline``
    and ``target`` select members by index, name, or ``"mean"`` (the
    corpus mean — baseline-vs-corpus diffing); the diff's per-scope
    values are ``target - factor * baseline``, re-attributed, rendered
    through the requested view.  ``detect`` additionally runs the
    regression detector and reports structured findings.
    """

    databases: list | None
    sessions: list | None
    baseline: object
    target: object
    factor: float
    metric: str | None
    flavor: str | None
    view: str
    depth: int
    max_rows: int
    descending: bool
    salvage: bool
    detect: bool
    threshold: float
    sigma: float
    min_share: float

    FIELDS = (
        FieldSpec("databases", list, default=None,
                  doc="experiment database paths to align "
                      "(.xml / .rpdb / .rpstore)"),
        FieldSpec("sessions", list, default=None,
                  doc="open session ids to align"),
        FieldSpec("factor", float, default=1.0, lo=1e-12,
                  doc="baseline scale factor (Section VI-A "
                      "scale-and-subtract)"),
        FieldSpec("metric", str, default=None,
                  doc="raw metric to diff and sort by (default: first)"),
        FieldSpec("flavor", str, default=None,
                  doc="metric flavor for the sort column",
                  choices=("inclusive", "exclusive", "i", "e")),
        FieldSpec("view", str, default="flat",
                  doc="view to render the diff through",
                  choices=("cct", "calling-context", "callers", "flat")),
        FieldSpec("depth", int, default=3, lo=0, hi=1000,
                  doc="expansion depth of the diff table"),
        FieldSpec("max_rows", int, default=60, lo=1, hi=100_000,
                  doc="row cap of the diff table"),
        FieldSpec("descending", bool, default=True, doc="sort direction"),
        FieldSpec("salvage", bool, default=False,
                  doc="salvage corrupted/truncated binary members "
                      "instead of failing"),
        FieldSpec("detect", bool, default=True,
                  doc="run the regression detector and report findings"),
        FieldSpec("threshold", float, default=0.02, lo=0.0, hi=1.0,
                  doc="absolute inclusive-share shift that flags a scope"),
        FieldSpec("sigma", float, default=3.0, lo=0.0,
                  doc="flag shifts beyond this many standard deviations "
                      "of the baseline corpus (0 disables the rule)"),
        FieldSpec("min_share", float, default=0.005, lo=0.0, hi=1.0,
                  doc="ignore scopes under this share on both sides"),
    )

    @classmethod
    def from_body(cls, body: dict) -> "DiffRequest":
        base = parse_fields(body, cls.FIELDS)
        if (base["databases"] is None) == (base["sessions"] is None):
            raise BadRequest(
                "diff members come from exactly one of 'databases' or "
                "'sessions'",
                code="bad-diff-members",
            )
        _member_paths(base)
        base["baseline"] = _member_selector(body, "baseline", 0)
        base["target"] = _member_selector(body, "target", -1)
        return cls(**base)


@dataclass(frozen=True)
class EnsembleRequest(_Request):
    """``GET/POST /v1/ensemble`` — open N databases as an ensemble session.

    Aligns the databases into a union-CCT experiment (member sums),
    attaches per-scope mean/min/max/stddev columns over the members
    (``stats``: ``"all"`` raw metrics, ``"none"``, or one metric name),
    and registers it as a regular session — every session endpoint
    (render/table/hotpath/metrics/...) works on it from there.
    """

    databases: list
    salvage: bool
    stats: str
    label: str | None

    FIELDS = (
        FieldSpec("databases", list,
                  doc="experiment database paths to align "
                      "(.xml / .rpdb / .rpstore; at least two)"),
        FieldSpec("salvage", bool, default=False,
                  doc="salvage corrupted/truncated binary members "
                      "instead of failing"),
        FieldSpec("stats", str, default="all",
                  doc="ensemble stat columns to attach: 'all', 'none', "
                      "or one raw metric name"),
        FieldSpec("label", str, default=None,
                  doc="session label (default: ensemble:<n>)"),
    )

    @classmethod
    def from_body(cls, body: dict) -> "EnsembleRequest":
        base = parse_fields(body, cls.FIELDS)
        _member_paths(base)
        return cls(**base)


@dataclass(frozen=True)
class CorpusUploadRequest(_Request):
    """``POST /v1/corpus/<tenant>/profiles`` — ingest one profile.

    The payload comes from exactly one of ``data`` (a base64-encoded
    ``.rpdb``) or ``path`` (a server-side database file or ``.rpstore``
    directory).  Uploads are validated by one strict decode before
    anything is journaled: a payload a strict load refuses (or one with
    bytes past its end) is refused unless ``salvage`` is set, in which
    case the salvage loader's recovered prefix is re-serialized and
    stored clean.
    """

    name: str | None
    data: str | None
    path: str | None
    group: str | None
    meta: dict | None
    salvage: bool

    FIELDS = (
        FieldSpec("name", str, default=None,
                  doc="profile display name (required for base64 uploads; "
                      "defaults to the file name for path ingests)"),
        FieldSpec("data", str, default=None,
                  doc="base64-encoded .rpdb payload"),
        FieldSpec("path", str, default=None,
                  doc="server-side database file or .rpstore directory "
                      "to ingest"),
        FieldSpec("group", str, default=None,
                  doc="compaction group tag (grouped single-rank uploads "
                      "auto-merge into one .rpstore)"),
        FieldSpec("meta", dict, default=None,
                  doc="searchable key/value metadata (short scalars, "
                      "at most 32 keys)"),
        FieldSpec("salvage", bool, default=False,
                  doc="accept a corrupted upload by storing what the "
                      "salvage loader recovers"),
    )

    @classmethod
    def from_body(cls, body: dict) -> "CorpusUploadRequest":
        base = parse_fields(body, cls.FIELDS)
        if (base["data"] is None) == (base["path"] is None):
            raise BadRequest(
                "upload exactly one of 'data' (base64) or 'path'",
                code="bad-upload-source",
            )
        if base["data"] is not None and base["name"] is None:
            raise BadRequest(
                "base64 uploads need a 'name'", code="missing-field"
            )
        return cls(**base)


@dataclass(frozen=True)
class CorpusSearchRequest(_Request):
    """``GET /v1/corpus/<tenant>/profiles`` — list / search filters.

    ``meta.<key>=<value>`` query parameters additionally filter on
    metadata equality (subset match); they bypass the field specs and
    are read by the handler.
    """

    name: str | None
    group: str | None

    FIELDS = (
        FieldSpec("name", str, default=None,
                  doc="substring match on profile name"),
        FieldSpec("group", str, default=None, doc="exact group tag match"),
    )


@dataclass(frozen=True)
class QueryRequest(_Request):
    """``GET/POST /v1/query`` — run a call-path query or a diagnosis.

    The target is exactly one of ``session`` (an open session) or
    ``tenant`` (the profile corpus).  Corpus targets take three forms:
    with ``profile``, one stored profile is opened, queried, and
    released; with ``diagnose``, the rule set (load imbalance, scaling
    loss, hot-path drift) streams over every profile of the tenant one
    at a time; otherwise the query itself streams over every profile
    and the response carries one result table per profile.  ``query``
    is the :meth:`repro.query.Query.to_spec` shape (a bare string is
    accepted as ``{"pattern": ...}``).
    """

    session: str | None
    tenant: str | None
    profile: str | None
    query: dict | None
    diagnose: bool
    metric: str | None
    baseline: str | None
    rank_cov: float
    scaling_floor: float
    drift_share: float
    salvage: bool

    FIELDS = (
        FieldSpec("session", str, default=None,
                  doc="open session id to query"),
        FieldSpec("tenant", str, default=None,
                  doc="corpus tenant to query (corpus mode)"),
        FieldSpec("profile", str, default=None,
                  doc="corpus profile id (with 'tenant': query one "
                      "stored profile instead of the whole tenant)"),
        FieldSpec("query", dict, default=None,
                  doc="query spec (repro.query Query.to_spec() shape; "
                      "a bare pattern string is accepted)"),
        FieldSpec("diagnose", bool, default=False,
                  doc="corpus mode: run the diagnosis rules over the "
                      "tenant instead of a query"),
        FieldSpec("metric", str, default=None,
                  doc="diagnosis metric (default: the cycle counter of "
                      "the first profile, else its first metric)"),
        FieldSpec("baseline", str, default=None,
                  doc="diagnosis hot-path baseline profile id (default: "
                      "each group's first member)"),
        FieldSpec("rank_cov", float, default=0.10, lo=0.0,
                  doc="load-imbalance coefficient-of-variation threshold"),
        FieldSpec("scaling_floor", float, default=0.8, lo=0.0, hi=1.0,
                  doc="scaling-loss parallel-efficiency floor"),
        FieldSpec("drift_share", float, default=0.05, lo=0.0, hi=1.0,
                  doc="hot-path drift hotspot-share threshold"),
        FieldSpec("salvage", bool, default=False,
                  doc="salvage stored payloads that no longer load "
                      "strictly"),
    )

    @classmethod
    def from_body(cls, body: dict) -> "QueryRequest":
        if isinstance(body.get("query"), str):
            # GET ?query=main shorthand: a bare pattern string
            body = dict(body)
            body["query"] = {"pattern": body["query"]}
        base = parse_fields(body, cls.FIELDS)
        if (base["session"] is None) == (base["tenant"] is None):
            raise BadRequest(
                "query target is exactly one of 'session' or 'tenant'",
                code="bad-query",
            )
        if base["profile"] is not None and base["tenant"] is None:
            raise BadRequest("'profile' requires 'tenant'", code="bad-query")
        if base["diagnose"]:
            if base["tenant"] is None:
                raise BadRequest(
                    "'diagnose' requires 'tenant'", code="bad-query"
                )
        elif base["query"] is None:
            raise BadRequest("missing 'query' spec", code="bad-query")
        return cls(**base)

    @cached_property
    def compiled(self):
        """The ``query`` spec as a :class:`repro.query.Query`, compiled
        once per request (a bad spec raises ``QueryError``)."""
        from repro.query import Query

        with span("query.compile"):
            return Query.from_spec(self.query)

    def canonical(self):
        """The compiled query for the session form; the corpus forms
        have no session generation and are not cached.  A query the
        spec parser let through with an unhashable selector is keyed by
        its repr (``run_query`` rejects it, and failures are never
        cached)."""
        if self.session is None:
            return None
        q = self.compiled
        try:
            hash(q)
        except TypeError:
            return repr(q)
        return q


@dataclass(frozen=True)
class TraceRequest(_Request):
    """``GET/POST /v1/trace`` — windowed views over a trace store.

    ``path`` names a time-partitioned trace store on disk (the
    ``.rpstore`` directory or its ``trace/`` subdirectory).  ``view``
    selects the product: ``flame`` renders per-depth span arrays for a
    flame chart over the window (columnar wire negotiation like
    ``/table``); ``series`` renders the time-binned idleness/imbalance
    series (JSON only).
    """

    path: str
    view: str
    t0: float | None
    t1: float | None
    rank: int
    metric: str | None
    bins: int
    max_spans: int

    FIELDS = (
        FieldSpec("path", str,
                  doc="trace store directory (.rpstore or its trace/ "
                      "subdirectory)"),
        FieldSpec("view", str, default="flame", choices=("flame", "series"),
                  doc="'flame': per-depth span slab; 'series': time-binned "
                      "idleness/imbalance"),
        FieldSpec("t0", float, default=None,
                  doc="window start in trace seconds (default: trace begin)"),
        FieldSpec("t1", float, default=None,
                  doc="window end, exclusive (default: trace end)"),
        FieldSpec("rank", int, default=0, lo=0,
                  doc="flame view: which rank's timeline to render"),
        FieldSpec("metric", str, default=None,
                  doc="flame view: span-value metric (default: the trace's "
                      "time metric)"),
        FieldSpec("bins", int, default=32, lo=1, hi=4096,
                  doc="series view: number of time bins"),
        FieldSpec("max_spans", int, default=2000, lo=1, hi=1_000_000,
                  doc="flame view: span budget; deepest spans are dropped "
                      "first and the response is marked truncated"),
    )

    @classmethod
    def from_body(cls, body: dict) -> "TraceRequest":
        base = parse_fields(body, cls.FIELDS)
        if base["view"] not in ("flame", "series"):
            raise BadRequest(
                f"trace view must be 'flame' or 'series', "
                f"got {base['view']!r}",
                code="bad-trace-view",
            )
        return cls(**base)


@dataclass(frozen=True)
class CorpusOpenRequest(_Request):
    """``POST /v1/corpus/<tenant>/profiles/<pid>/open`` — open-by-id."""

    salvage: bool
    sid: str | None

    FIELDS = (
        FieldSpec("salvage", bool, default=False,
                  doc="salvage the stored payload instead of failing if "
                      "it no longer loads strictly"),
        FieldSpec("sid", str, default=None,
                  doc="claim this session id instead of allocating one; "
                      "pass it as a query parameter (?sid=...) so a "
                      "worker pool can route the open — and every "
                      "follow-up session request — to the same worker "
                      "by session affinity (409 if already in use)"),
    )


@dataclass(frozen=True)
class CorpusCompactRequest(_Request):
    """``POST /v1/corpus/<tenant>/compact`` — run compaction now."""

    group: str | None
    min_sources: int

    FIELDS = (
        FieldSpec("group", str, default=None,
                  doc="compact only this group (default: every eligible "
                      "group of the tenant)"),
        FieldSpec("min_sources", int, default=2, lo=2, hi=10_000,
                  doc="minimum group members before a merge is worthwhile"),
    )


@dataclass(frozen=True)
class CorpusPolicyRequest(_Request):
    """``POST /v1/corpus/<tenant>/policy`` — set retention limits.

    Omitted fields are unlimited; the posted policy *replaces* the
    tenant's previous one and is enforced immediately.
    """

    max_bytes: int | None
    max_profiles: int | None
    ttl_s: float | None

    FIELDS = (
        FieldSpec("max_bytes", int, default=None, lo=1,
                  doc="total committed payload bytes allowed for the "
                      "tenant"),
        FieldSpec("max_profiles", int, default=None, lo=1,
                  doc="committed profile count allowed for the tenant"),
        FieldSpec("ttl_s", float, default=None, lo=0.0,
                  doc="seconds after commit at which a profile expires"),
    )


# --------------------------------------------------------------------- #
# response schemas
# --------------------------------------------------------------------- #
class _Response:
    """Base for response dataclasses: ``to_payload`` drops ``None``
    optionals so wire shapes match the historical dict plumbing."""

    def to_payload(self) -> dict:
        out = {}
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if value is None and f.metadata.get("omit_none"):
                continue
            out[f.name] = value
        return out


def _optional():
    return field(default=None, metadata={"omit_none": True})


@dataclass(frozen=True)
class SessionList(_Response):
    """``GET /v1/sessions`` — info blocks of every resident session."""

    sessions: list


@dataclass(frozen=True)
class SessionOpened(_Response):
    """``POST /v1/sessions`` (201) — the new session's info block;
    ``load_report`` appears only for salvage loads."""

    session: dict
    load_report: dict | None = _optional()


@dataclass(frozen=True)
class SessionInfoResponse(_Response):
    """``GET /v1/sessions/<sid>`` — one session's info block."""

    session: dict


@dataclass(frozen=True)
class SessionClosed(_Response):
    """``DELETE /v1/sessions/<sid>`` — the id that was closed."""

    closed: str


@dataclass(frozen=True)
class MetricList(_Response):
    """``GET /v1/sessions/<sid>/metrics`` — the metric table."""

    metrics: list


@dataclass(frozen=True)
class DerivedMetricCreated(_Response):
    """``POST /v1/sessions/<sid>/metrics`` (201) — the new descriptor
    and the session generation after the mutation."""

    metric: dict
    generation: int


@dataclass(frozen=True)
class SortResponse(_Response):
    """``POST /v1/sessions/<sid>/sort`` — the sort spec now in effect."""

    sort: dict


@dataclass(frozen=True)
class MutationResponse(_Response):
    """``POST /v1/sessions/<sid>/flatten|unflatten`` — new flatten depth
    and the session generation after the mutation."""

    flatten_depth: int
    generation: int


@dataclass(frozen=True)
class FlattenResponse(MutationResponse):
    """Alias kept for symmetry with the docs."""


@dataclass(frozen=True)
class RenderResponse(_Response):
    """``GET/POST /v1/sessions/<sid>/render`` — a rendered tree-table.

    ``hot_path`` appears only when the request asked for hot-path
    expansion.  (Served from the render cache; the cached snapshot is
    exactly ``{view, text[, hot_path]}`` and ``session`` is stamped per
    request.)
    """

    view: str
    text: str
    session: str
    hot_path: dict | None = _optional()


@dataclass(frozen=True)
class HotPathResult(_Response):
    """``GET/POST /v1/sessions/<sid>/hotpath`` — the Eq. 3 descent."""

    view: str
    metric: str
    threshold: float
    path: list
    values: list
    hotspot: str


@dataclass(frozen=True)
class CorpusInfo(_Response):
    """``GET /v1/corpus`` — catalog stats (tenants, bytes, policies)."""

    corpus: dict


@dataclass(frozen=True)
class ProfileList(_Response):
    """``GET /v1/corpus/<tenant>/profiles`` — matching entries."""

    tenant: str
    profiles: list


@dataclass(frozen=True)
class ProfileIngested(_Response):
    """``POST /v1/corpus/<tenant>/profiles`` (201) — the committed entry."""

    profile: dict


@dataclass(frozen=True)
class ProfileInfo(_Response):
    """``GET /v1/corpus/<tenant>/profiles/<pid>`` — one entry."""

    profile: dict


@dataclass(frozen=True)
class ProfileDeleted(_Response):
    """``DELETE /v1/corpus/<tenant>/profiles/<pid>`` — what was removed."""

    tenant: str
    deleted: str


@dataclass(frozen=True)
class CorpusOpened(_Response):
    """``POST .../profiles/<pid>/open`` (201) — session + its profile."""

    session: dict
    profile: dict
    load_report: dict | None = _optional()


@dataclass(frozen=True)
class CompactionReport(_Response):
    """``POST /v1/corpus/<tenant>/compact`` — stores created this sweep."""

    tenant: str
    compacted: list


@dataclass(frozen=True)
class PolicyResponse(_Response):
    """``GET/POST /v1/corpus/<tenant>/policy`` — the policy in effect;
    ``evicted`` appears when setting it evicted profiles immediately."""

    tenant: str
    policy: dict
    evicted: list | None = _optional()


# --------------------------------------------------------------------- #
# the endpoint registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CacheKey:
    """How the dispatcher caches a session-scoped operation's responses.

    A response is cached in the render cache under ``(session id,
    generation, name, canonical request, encoding)``, read under the
    session lock; with ``view_state`` the key also carries the
    session's sort spec and flatten depth, which the request resolves
    against.  Every mutation bumps the generation and drops the
    session's entries, so a stale entry is never served.  A fill is
    encoded once, in the negotiated encoding, so a hit is a byte
    write.
    """

    #: the operation's slot in the key, and its per-operation counter label
    name: str
    #: the request field naming the session; None: the route's ``<sid>``
    session: str | None = None
    #: the request resolves against the session's sort and flatten state
    view_state: bool = True


@dataclass(frozen=True)
class Operation:
    """One method on one endpoint.

    Plain operations (``encodings`` is JSON only, no ``cache``) have
    handlers ``(params, body) -> (status, payload)``.  The others go
    through the dispatcher's shared path: it negotiates ``Accept``
    against ``encodings``, serves cache hits, and encodes; their
    handlers take ``(handle, request)`` — the locked session of a cached
    request, else None — and return a :class:`TableResult` or, for a
    JSON-only form, a payload dict.
    """

    method: str
    handler: str                 #: AnalysisApp attribute name
    summary: str
    request: type | None = None  #: request dataclass (None: no body read)
    response: type | None = None #: response dataclass (None: raw/dict)
    status: int = 200
    errors: tuple[str, ...] = ()
    #: response media types, negotiated from ``Accept``; default first
    encodings: tuple[str, ...] = (JSON_CONTENT_TYPE,)
    #: the response-cache key (None: never cached)
    cache: CacheKey | None = None

    @property
    def shared_path(self) -> bool:
        """Does the dispatcher negotiate, cache and encode for it?"""
        return self.cache is not None or self.encodings != (JSON_CONTENT_TYPE,)


@dataclass(frozen=True)
class EndpointDef:
    """One path template and the operations mounted on it."""

    path: str                    #: canonical label, e.g. "/sessions/<sid>/render"
    ops: tuple[Operation, ...]
    admission_exempt: bool = False
    raw: bool = False            #: serves a non-JSON body (RawBody)

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(s for s in self.path.split("/") if s)

    def methods(self) -> tuple[str, ...]:
        return tuple(op.method for op in self.ops)


def _get_post(handler: str, summary: str, **kw) -> tuple[Operation, ...]:
    """The GET and POST forms of one read operation: the same fields,
    from the query string or the body."""
    return tuple(Operation(method, handler, summary, **kw)
                 for method in ("GET", "POST"))


ENDPOINTS: tuple[EndpointDef, ...] = (
    EndpointDef("/", ops=(
        Operation("GET", "_ep_help", "service and endpoint listing"),
    )),
    EndpointDef("/healthz", admission_exempt=True, ops=(
        Operation("GET", "_ep_healthz",
                  "liveness + readiness probe (503 with a reason when "
                  "shedding)", errors=("overloaded",)),
    )),
    EndpointDef("/stats", admission_exempt=True, ops=(
        Operation("GET", "_ep_stats",
                  "request counters, latency aggregates, cache and "
                  "session stats, slow-request ring"),
    )),
    EndpointDef("/metrics", admission_exempt=True, raw=True, ops=(
        Operation("GET", "_ep_prometheus",
                  "service counters and latency histograms in Prometheus "
                  "text exposition format"),
    )),
    EndpointDef("/diff", ops=_get_post(
        "_ep_diff",
        "align N experiments and serve a pairwise or baseline-vs-corpus "
        "diff view with regression findings (JSON rows, or the framed "
        "columnar encoding via Accept negotiation)",
        request=DiffRequest, encodings=TABLE_ENCODINGS,
        errors=("bad-diff-members", "bad-metric", "bad-view-kind",
                "bad-flavor", "unknown-database", "unknown-session",
                "unknown-metric", "bad-database"),
    )),
    EndpointDef("/ensemble", ops=_get_post(
        "_ep_ensemble",
        "align N experiment databases into a union-CCT ensemble session "
        "with per-scope member statistics",
        request=EnsembleRequest, status=201,
        errors=("bad-diff-members", "bad-metric", "unknown-database",
                "bad-database"),
    )),
    EndpointDef("/query", ops=_get_post(
        "_ep_query",
        "run a composable call-path query against an open session or the "
        "profile corpus, or a corpus-wide diagnosis (JSON rows, or the "
        "framed columnar encoding via Accept negotiation for "
        "single-target queries; session queries are served from the "
        "render cache until the session mutates)",
        request=QueryRequest, encodings=TABLE_ENCODINGS,
        cache=CacheKey("query", session="session", view_state=False),
        errors=("bad-query", "unknown-session", "unknown-metric",
                "no-corpus", "unknown-profile", "bad-database"),
    )),
    EndpointDef("/trace", ops=_get_post(
        "_ep_trace",
        "windowed views over a time-partitioned trace store: per-depth "
        "flame-chart span slabs (JSON rows, or the framed columnar "
        "encoding via Accept negotiation) or a time-binned "
        "idleness/imbalance series",
        request=TraceRequest, encodings=TABLE_ENCODINGS,
        errors=("unknown-trace", "trace-error", "trace-corrupt",
                "bad-trace-view", "unknown-metric"),
    )),
    EndpointDef("/corpus", ops=(
        Operation("GET", "_ep_corpus_info",
                  "corpus catalog stats: tenants, profile counts and "
                  "bytes, retention policies, compaction counters",
                  response=CorpusInfo, errors=("no-corpus",)),
    )),
    EndpointDef("/corpus/<tenant>/profiles", ops=(
        Operation("GET", "_ep_corpus_list",
                  "list / search a tenant's committed profiles (name "
                  "substring, group tag, meta.<key> equality filters)",
                  request=CorpusSearchRequest, response=ProfileList,
                  errors=("no-corpus", "corpus-error")),
        Operation("POST", "_ep_corpus_upload",
                  "ingest one profile (base64 .rpdb payload or a "
                  "server-side file/store path): staged, validated by "
                  "a strict decode, fsynced, journaled — crash-safe "
                  "at every instruction boundary",
                  request=CorpusUploadRequest, response=ProfileIngested,
                  status=201,
                  errors=("no-corpus", "bad-upload-source",
                          "bad-upload-encoding", "bad-database",
                          "corpus-error")),
    )),
    EndpointDef("/corpus/<tenant>/profiles/<pid>", ops=(
        Operation("GET", "_ep_corpus_profile",
                  "one committed profile's entry (checksums, provenance, "
                  "metadata)",
                  response=ProfileInfo,
                  errors=("no-corpus", "unknown-profile")),
        Operation("DELETE", "_ep_corpus_delete",
                  "durably delete a committed profile (journal record "
                  "first, then unlink); refused with 409 while an open "
                  "session pins it",
                  response=ProfileDeleted,
                  errors=("no-corpus", "unknown-profile", "profile-pinned")),
    )),
    EndpointDef("/corpus/<tenant>/profiles/<pid>/open", ops=(
        Operation("POST", "_ep_corpus_open",
                  "open a committed profile as a regular analysis session "
                  "(checksum-verified first, pinned against eviction "
                  "until the session closes)",
                  request=CorpusOpenRequest, response=CorpusOpened,
                  status=201,
                  errors=("no-corpus", "unknown-profile", "corpus-corrupt",
                          "bad-database")),
    )),
    EndpointDef("/corpus/<tenant>/compact", ops=(
        Operation("POST", "_ep_corpus_compact",
                  "merge grouped single-rank uploads into .rpstore column "
                  "stores now (the background worker's sweep, run "
                  "synchronously)",
                  request=CorpusCompactRequest, response=CompactionReport,
                  errors=("no-corpus", "corpus-error", "profile-pinned")),
    )),
    EndpointDef("/corpus/<tenant>/policy", ops=(
        Operation("GET", "_ep_corpus_policy",
                  "the tenant's retention policy",
                  response=PolicyResponse, errors=("no-corpus",)),
        Operation("POST", "_ep_corpus_policy_set",
                  "set the tenant's retention policy (a journaled catalog "
                  "fact, not server config) and enforce it immediately",
                  request=CorpusPolicyRequest, response=PolicyResponse,
                  errors=("no-corpus", "corpus-error")),
    )),
    EndpointDef("/sessions", ops=(
        Operation("GET", "_ep_sessions_list", "list open sessions",
                  response=SessionList),
        Operation("POST", "_ep_sessions_open",
                  "open a session from a database path or a bundled "
                  "synthetic workload",
                  request=OpenSessionRequest, response=SessionOpened,
                  status=201,
                  errors=("bad-session-source", "unknown-database",
                          "unknown-workload", "bad-database")),
    )),
    EndpointDef("/sessions/<sid>", ops=(
        Operation("GET", "_ep_session_info", "one session's info block",
                  response=SessionInfoResponse, errors=("unknown-session",)),
        Operation("DELETE", "_ep_session_close", "close a session",
                  response=SessionClosed, errors=("unknown-session",)),
    )),
    EndpointDef("/sessions/<sid>/metrics", ops=(
        Operation("GET", "_ep_metrics_list", "the session's metric table",
                  response=MetricList, errors=("unknown-session",)),
        Operation("POST", "_ep_metrics_derive",
                  "define a derived metric from a formula",
                  request=DeriveMetricRequest, response=DerivedMetricCreated,
                  status=201,
                  errors=("unknown-session", "bad-formula", "bad-metric",
                          "unknown-metric")),
    )),
    EndpointDef("/sessions/<sid>/sort", ops=(
        Operation("POST", "_ep_sort", "set the session's sort column",
                  request=SortRequest, response=SortResponse,
                  errors=("unknown-session", "unknown-metric", "bad-flavor")),
    )),
    EndpointDef("/sessions/<sid>/hotpath", ops=_get_post(
        "_ep_hotpath", "hot path analysis (Eq. 3)",
        request=HotPathRequest, response=HotPathResult,
        cache=CacheKey("hotpath"),
        errors=("unknown-session", "bad-view-kind", "unknown-metric"),
    )),
    EndpointDef("/sessions/<sid>/flatten", ops=(
        Operation("POST", "_ep_flatten",
                  "flatten the Flat View one level",
                  response=MutationResponse,
                  errors=("unknown-session", "bad-view-operation")),
    )),
    EndpointDef("/sessions/<sid>/unflatten", ops=(
        Operation("POST", "_ep_unflatten", "undo one flatten",
                  response=MutationResponse,
                  errors=("unknown-session", "bad-view-operation")),
    )),
    EndpointDef("/sessions/<sid>/table", ops=_get_post(
        "_ep_table",
        "one view as a data table (JSON rows, or the framed columnar "
        "encoding via Accept negotiation)",
        request=TableRequest, encodings=TABLE_ENCODINGS,
        cache=CacheKey("table"),
        errors=("unknown-session", "bad-view-kind", "bad-flavor",
                "unknown-metric", "no-metrics"),
    )),
    EndpointDef("/sessions/<sid>/render", ops=_get_post(
        "_ep_render", "render one view as a tree-table",
        request=RenderRequest, response=RenderResponse,
        cache=CacheKey("render"),
        errors=("unknown-session", "bad-view-kind", "bad-flavor",
                "unknown-metric", "no-metrics"),
    )),
)
