"""A concurrent profile-analysis service over :class:`ViewerSession`.

The paper presents call path profiles through an interactive client;
this package exposes the same operations — the three views, sorting,
hot-path expansion (Eq. 3), flattening, derived metrics, and rendered
tables — as a stdlib-only JSON HTTP service, so many clients can query
one set of loaded experiment databases concurrently.

Layering (transport-independent core under a thin HTTP shell):

* :mod:`repro.errors` — the structured 4xx/5xx error taxonomy;
* :mod:`repro.server.deadline` — cooperative per-request deadlines;
* :mod:`repro.server.cache` — thread-safe LRU render/query cache;
* :mod:`repro.server.sessions` — session registry, per-session locks,
  generation counters, and the pure render/hot-path snapshot functions;
* :mod:`repro.server.schema` — typed request/response dataclasses and
  the versioned endpoint registry (the source of ``docs/api.md`` and
  the public-API snapshot test);
* :mod:`repro.server.app` — routing under ``/v1``,
  decoding, validation, trace ids, stats, Prometheus ``/metrics``;
* :mod:`repro.server.http` — ``ThreadingHTTPServer`` adapter and the
  ``repro-serve`` entry point;
* :mod:`repro.server.client` — retrying JSON client with exponential
  backoff + jitter that honors ``Retry-After``.

See ``docs/server.md`` for the endpoint reference and the cache
invalidation rules, and ``docs/robustness.md`` for the resilience
layer (deadlines, admission control, eviction, salvage loading).
"""

from repro.server.app import AnalysisApp
from repro.server.cache import RenderCache
from repro.server.client import RetryingClient, RetryPolicy
from repro.server.deadline import Deadline, checkpoint, deadline_scope
from repro.errors import (
    ApiError,
    BadRequest,
    DeadlineExceeded,
    MethodNotAllowed,
    NotFound,
    PayloadTooLarge,
    ServiceUnavailable,
    TooManyRequests,
)
from repro.server.http import AnalysisServer, build_server
from repro.server.schema import API_VERSION, ENDPOINTS, EndpointDef, Operation, RawBody
from repro.server.sessions import (
    SessionRegistry,
    SortSpec,
    hot_path_snapshot,
    render_snapshot,
)

__all__ = [
    "API_VERSION",
    "AnalysisApp",
    "AnalysisServer",
    "ApiError",
    "BadRequest",
    "Deadline",
    "DeadlineExceeded",
    "ENDPOINTS",
    "EndpointDef",
    "MethodNotAllowed",
    "NotFound",
    "Operation",
    "PayloadTooLarge",
    "RawBody",
    "RenderCache",
    "RetryPolicy",
    "RetryingClient",
    "ServiceUnavailable",
    "SessionRegistry",
    "SortSpec",
    "TooManyRequests",
    "build_server",
    "checkpoint",
    "deadline_scope",
    "hot_path_snapshot",
    "render_snapshot",
]
