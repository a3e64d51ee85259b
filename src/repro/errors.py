"""The single error taxonomy of the toolkit and its service surface.

Both the library's domain failures and the analysis server's
client-visible HTTP failures live here, and the mapping between them
is itself part of the public contract:

* the **domain hierarchy** (:class:`ReproError` and friends) — what
  library code raises; independent of any transport;
* the **API hierarchy** (:class:`ApiError` and friends) — what clients
  of the JSON service observe: an HTTP status, a stable machine-readable
  ``code``, and a human-readable message;
* :data:`WIRE_CODES` — the one shared mapping from every domain error
  class to exactly one JSON error code (and status), consumed by
  :func:`translate_domain_error` at the application boundary and by the
  generated endpoint reference in ``docs/api.md``.

Import from :mod:`repro.errors` or the :mod:`repro.api` facade.
"""

from __future__ import annotations

__all__ = [
    # domain hierarchy
    "ReproError",
    "StructureError",
    "CorrelationError",
    "MetricError",
    "FormulaError",
    "ViewError",
    "QueryError",
    "DatabaseError",
    "SimulationError",
    "ProfilerError",
    "CorpusError",
    "CorpusCorrupt",
    "ProfilePinned",
    "TraceError",
    "TraceCorrupt",
    # API hierarchy
    "ApiError",
    "BadRequest",
    "NotFound",
    "MethodNotAllowed",
    "Conflict",
    "PayloadTooLarge",
    "TooManyRequests",
    "ServiceUnavailable",
    "DeadlineExceeded",
    # the shared mapping
    "WIRE_CODES",
    "wire_code",
    "translate_domain_error",
]


# --------------------------------------------------------------------- #
# domain hierarchy (library-side; transport-independent)
# --------------------------------------------------------------------- #
class ReproError(Exception):
    """Base class for all toolkit errors."""


class StructureError(ReproError):
    """Invalid or inconsistent static program structure."""


class CorrelationError(ReproError):
    """A dynamic call path could not be correlated with static structure."""


class MetricError(ReproError):
    """Invalid metric definition or metric table operation."""


class FormulaError(MetricError):
    """A derived-metric formula failed to parse or evaluate."""


class ViewError(ReproError):
    """Invalid view construction or view operation."""


class QueryError(ReproError):
    """A call-path query failed to parse or evaluate (repro.query)."""


class DatabaseError(ReproError):
    """Experiment database serialization or deserialization failure."""


class SimulationError(ReproError):
    """Invalid synthetic program model or simulation parameters."""


class ProfilerError(ReproError):
    """Measurement-layer (hpcrun substrate) failure."""


class CorpusError(ReproError):
    """Profile-corpus catalog operation failure (ingest, policy, lookup)."""


class CorpusCorrupt(CorpusError):
    """The corpus on disk is damaged beyond the journal's recovery rules.

    Raised when the corpus marker is unreadable or a *committed* profile
    fails its recorded checksum — never for a torn journal tail, which
    replay truncates silently as designed.
    """


class ProfilePinned(CorpusError):
    """A corpus profile cannot be deleted while an open session pins it."""


class TraceError(ReproError):
    """Invalid trace operation (recording, windowing, chunked storage)."""


class TraceCorrupt(TraceError):
    """A time-partitioned trace store on disk is damaged.

    Raised when a chunk file or the trace manifest fails its recorded
    size or checksum — never for a store whose manifest simply is not
    there yet (an interrupted writer leaves no manifest, and the
    directory reads as "not a trace store" rather than a phantom)."""


# --------------------------------------------------------------------- #
# API hierarchy (client-side; what the JSON service serves)
# --------------------------------------------------------------------- #
class ApiError(Exception):
    """A client-visible failure with an HTTP status and stable code."""

    status = 500
    code = "internal"

    def __init__(
        self,
        message: str,
        code: str | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code
        #: seconds after which retrying may succeed; surfaces as both a
        #: payload field and the HTTP ``Retry-After`` header
        self.retry_after = retry_after

    @property
    def message(self) -> str:
        return str(self)

    def to_payload(self, trace_id: str | None = None) -> dict:
        """The JSON body clients receive."""
        error = {
            "status": self.status,
            "code": self.code,
            "message": self.message,
        }
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        if trace_id is not None:
            error["trace_id"] = trace_id
        return {"error": error}


class BadRequest(ApiError):
    """400 — the request is syntactically or semantically malformed."""

    status = 400
    code = "bad-request"


class NotFound(ApiError):
    """404 — unknown session, metric, endpoint, or database path."""

    status = 404
    code = "not-found"


class MethodNotAllowed(ApiError):
    """405 — the endpoint exists but not for this HTTP method."""

    status = 405
    code = "method-not-allowed"


class Conflict(ApiError):
    """409 — the request conflicts with the resource's current state."""

    status = 409
    code = "conflict"


class PayloadTooLarge(ApiError):
    """413 — request body exceeds the configured limit."""

    status = 413
    code = "payload-too-large"


class TooManyRequests(ApiError):
    """429 — admission control shed the request; retry after backoff."""

    status = 429
    code = "too-many-requests"


class ServiceUnavailable(ApiError):
    """503 — the server cannot serve this request right now."""

    status = 503
    code = "unavailable"


class DeadlineExceeded(ServiceUnavailable):
    """503 — the request's deadline expired; partial work was discarded."""

    code = "deadline-exceeded"


# --------------------------------------------------------------------- #
# the one shared mapping: domain error class -> (JSON code, status)
# --------------------------------------------------------------------- #
#: Every domain error class maps to exactly one wire code.  Subclasses
#: inherit their nearest ancestor's entry unless they appear themselves
#: (``FormulaError`` before ``MetricError`` — :func:`wire_code` walks
#: the MRO, so insertion order here is documentation, not dispatch).
WIRE_CODES: dict[type, tuple[str, int]] = {
    FormulaError: ("bad-formula", 400),
    MetricError: ("bad-metric", 400),
    ViewError: ("bad-view-operation", 400),
    QueryError: ("bad-query", 400),
    DatabaseError: ("bad-database", 400),
    StructureError: ("bad-structure", 400),
    CorrelationError: ("bad-correlation", 400),
    SimulationError: ("bad-simulation", 400),
    ProfilerError: ("profiler-error", 400),
    ProfilePinned: ("profile-pinned", 409),
    CorpusCorrupt: ("corpus-corrupt", 500),
    CorpusError: ("corpus-error", 400),
    TraceCorrupt: ("trace-corrupt", 500),
    TraceError: ("trace-error", 400),
    ReproError: ("domain-error", 400),
}


def wire_code(exc: ReproError) -> tuple[str, int]:
    """The ``(code, status)`` a domain error serializes as on the wire."""
    for cls in type(exc).__mro__:
        entry = WIRE_CODES.get(cls)
        if entry is not None:
            return entry
    return WIRE_CODES[ReproError]


def translate_domain_error(exc: ReproError) -> ApiError:
    """Map a toolkit exception to the client-visible taxonomy.

    The status/code pair comes from :data:`WIRE_CODES`, with one
    addressing special case: an *unknown metric* lookup is a 404 (the
    client addressed a resource that does not exist), while every other
    metric failure — duplicates, bad formulas — stays a 400 (the request
    itself is wrong, not the address).
    """
    text = str(exc)
    if (
        isinstance(exc, MetricError)
        and not isinstance(exc, FormulaError)
        and text.startswith("unknown metric")
    ):
        return NotFound(text, code="unknown-metric")
    if (
        isinstance(exc, CorpusError)
        and not isinstance(exc, (CorpusCorrupt, ProfilePinned))
        and text.startswith(("unknown tenant", "unknown profile"))
    ):
        return NotFound(text, code="unknown-profile")
    if (
        isinstance(exc, TraceError)
        and not isinstance(exc, TraceCorrupt)
        and text.startswith("no trace store")
    ):
        return NotFound(text, code="unknown-trace")
    code, status = wire_code(exc)
    if status == 404:
        return NotFound(text, code=code)
    if status == 409:
        return Conflict(text, code=code)
    if status == 500:
        err = ApiError(text, code=code)
        err.status = status
        return err
    return BadRequest(text, code=code)
