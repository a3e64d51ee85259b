"""The blessed, stable Python surface of the reproduction — ``repro.api``.

Everything in ``__all__`` here is covered by the v1 compatibility
promise: names may gain keyword arguments but will not move, change
meaning, or disappear without a change to the snapshot below.  The checked-in
snapshot ``tests/api_surface.txt`` (regenerated by
``tools/gen_api_surface.py``) pins this surface, so unintentional drift
fails tier-1.

The facade groups the toolkit by task:

* **databases** — :func:`open_database` (path → ready-to-present
  session), :func:`load` / :func:`loads` / :func:`save`, and the
  :class:`Experiment` they produce;
* **out-of-core storage** — :func:`open_store` / :func:`create_store`
  (mmap-backed column stores), :func:`merge_rank_files` (bounded-memory
  thousand-rank merge) and its in-memory reference
  :func:`merge_experiments`;
* **ensemble analysis** — :func:`align_experiments` (N runs → union
  CCT :class:`EnsembleView`), per-scope statistics and diff
  experiments, and :func:`detect_regressions` (inclusive-share shift
  findings);
* **presentation** — :class:`ViewerSession` with the paper's three
  views (:class:`ViewKind`), :func:`render_view`, and
  :func:`hot_path` (Eq. 3);
* **metrics** — :class:`MetricFlavor` (Eq. 1 inclusive / Eq. 2
  exclusive) and :func:`define_derived` for spreadsheet-style derived
  metrics;
* **queries** — :func:`query` / :class:`Query` (the composable
  call-path query language of ``docs/query.md``: path patterns, metric
  predicates, prune / squash / groupby), :func:`run_query` producing
  columnar :class:`QueryResult` tables uniformly over in-memory
  experiments, ``.rpstore`` stores, and ensemble members, and
  :func:`diagnose_corpus` (batch diagnosis — load imbalance, scaling
  loss, hot-path drift — across a corpus tenant, one streamed profile
  at a time);
* **traces** — the time dimension (``docs/traces.md``):
  :class:`TraceData` / :class:`TraceSet` (timestamped call-path
  samples, int64-tick exact), :func:`create_trace_store` /
  :func:`open_trace` (time-partitioned chunked storage whose window
  queries touch only overlapping chunks), ``Query.window(t0, t1)``
  through the same :func:`run_query`, and the presentation products
  :func:`flame_slab` / :func:`idleness_series`;
* **profile corpus** — :func:`open_corpus` /
  :class:`CorpusCatalog` (crash-safe multi-tenant storage of profile
  databases: journaled ingest, background compaction into stores,
  checksum-verified loads) and :class:`RetentionPolicy` (per-tenant
  quota / count / TTL eviction);
* **errors** — the :mod:`repro.errors` taxonomy, rooted at
  :class:`ReproError`;
* **observability** — the self-profiling entry points from
  :mod:`repro.obs` (:func:`obs_install`, :func:`save_self_profile`),
  so embedding applications can dogfood the same tracer ``repro-serve
  --self-profile`` uses.

Deep imports of internal modules keep working but are not part of the
promise.
"""

from __future__ import annotations

from repro.errors import (
    ApiError,
    CorpusCorrupt,
    CorpusError,
    DatabaseError,
    FormulaError,
    MetricError,
    ProfilePinned,
    QueryError,
    ReproError,
    StructureError,
    TraceCorrupt,
    TraceError,
    ViewError,
)
from repro.core.derived import define_derived
from repro.corpus import CorpusCatalog, RetentionPolicy, open_corpus
from repro.core.ensemble import (
    EnsembleView,
    RegressionFinding,
    align_experiments,
    detect_regressions,
)
from repro.core.hotpath import DEFAULT_THRESHOLD, HotPathResult, hot_path
from repro.core.metrics import MetricFlavor, MetricSpec, MetricTable
from repro.core.store import StoreExperiment, create_store, open_store
from repro.core.views import View, ViewKind, ViewNode
from repro.hpcprof.database import load, loads, save
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import (
    MergeReport,
    merge_experiments,
    merge_rank_files,
)
from repro.obs import install as obs_install
from repro.obs import uninstall as obs_uninstall
from repro.obs import SpanTracer, save_self_profile, span
from repro.query import (
    Query,
    QueryResult,
    diagnose_corpus,
    query,
    run_query,
)
from repro.trace import (
    TraceData,
    TraceSet,
    TraceStore,
    create_trace_store,
    flame_slab,
    idleness_series,
    open_trace,
)
from repro.viewer.session import ViewerSession
from repro.viewer.table import TableOptions, render_view

__all__ = [
    # databases
    "open_database",
    "load",
    "loads",
    "save",
    "Experiment",
    # out-of-core storage (thousand-rank merges)
    "StoreExperiment",
    "create_store",
    "open_store",
    "merge_experiments",
    "merge_rank_files",
    "MergeReport",
    # ensemble analysis (N-way alignment, diffs, regressions)
    "align_experiments",
    "EnsembleView",
    "RegressionFinding",
    "detect_regressions",
    # presentation
    "ViewerSession",
    "ViewKind",
    "View",
    "ViewNode",
    "render_view",
    "TableOptions",
    # hot path analysis (Eq. 3)
    "hot_path",
    "HotPathResult",
    "DEFAULT_THRESHOLD",
    # metrics
    "MetricFlavor",
    "MetricSpec",
    "MetricTable",
    "define_derived",
    # call-path queries and corpus diagnosis (docs/query.md)
    "query",
    "Query",
    "QueryResult",
    "run_query",
    "diagnose_corpus",
    # traces: the time dimension (docs/traces.md)
    "TraceData",
    "TraceSet",
    "TraceStore",
    "create_trace_store",
    "open_trace",
    "flame_slab",
    "idleness_series",
    # profile corpus (crash-safe multi-tenant storage)
    "open_corpus",
    "CorpusCatalog",
    "RetentionPolicy",
    # errors
    "ReproError",
    "ApiError",
    "CorpusCorrupt",
    "CorpusError",
    "DatabaseError",
    "FormulaError",
    "MetricError",
    "ProfilePinned",
    "QueryError",
    "StructureError",
    "TraceCorrupt",
    "TraceError",
    "ViewError",
    # observability
    "SpanTracer",
    "obs_install",
    "obs_uninstall",
    "span",
    "save_self_profile",
]


def open_database(path: str, *, salvage: bool = False) -> ViewerSession:
    """Open an experiment database as a ready-to-present session.

    The one-call entry point: accepts either format (``experiment.xml``
    or framed v2 binary ``.rpdb``), loads it strictly by default, and
    wraps the experiment in a :class:`ViewerSession` whose three views
    build lazily.  With ``salvage=True`` a corrupted or truncated
    binary database is recovered instead of refused; the partial-load
    details are then available as ``session.experiment.load_report``.

    Raises :class:`DatabaseError` when the file cannot be loaded.
    """
    return ViewerSession(load(path, strict=not salvage))
