"""``repro.query`` — the composable call-path query language.

The one programmatic path for searching and filtering call-path
profiles (the interactive viewer's ``find`` and the advisor evaluate
on the same kernels):

>>> from repro.query import query
>>> q = (query('main / ** / {"category": "loop"}')
...      .where('CYCLES.exclusive >= 2%')
...      .sort('CYCLES', 'exclusive')
...      .limit(10))
>>> q.run(experiment).to_columns()        # doctest: +SKIP

Queries evaluate vectorized against the columnar
:class:`~repro.core.engine.MetricEngine` and behave identically over
in-memory experiments, loaded ``.rpdb`` files, mmap-backed
``.rpstore`` stores, and ensemble members.  ``diagnose_corpus`` runs
rule sets (load imbalance, scaling loss, hot-path drift) across a
whole corpus tenant, one streamed profile at a time.  See
``docs/query.md`` for the language reference.
"""

from repro.query.engine import build_frame, run_query
from repro.query.lang import (
    ANY_DEPTH,
    GROUPBY_KEYS,
    MetricPred,
    Query,
    Step,
    parse_pattern,
    parse_predicate,
    query,
)
from repro.query.result import QueryResult

__all__ = [
    "ANY_DEPTH",
    "CorpusDiagnosis",
    "Finding",
    "GROUPBY_KEYS",
    "MetricPred",
    "Query",
    "QueryResult",
    "Step",
    "build_frame",
    "diagnose_corpus",
    "parse_pattern",
    "parse_predicate",
    "query",
    "run_query",
]


def diagnose_corpus(corpus, tenant, **kwargs):
    """Run diagnosis rules over a whole corpus tenant (lazy import)."""
    from repro.query.diagnose import diagnose_corpus as _impl

    return _impl(corpus, tenant, **kwargs)


def __getattr__(name):
    # Finding / CorpusDiagnosis live in repro.query.diagnose; resolve
    # them lazily so importing the language core stays dependency-light.
    if name in ("CorpusDiagnosis", "Finding"):
        from repro.query import diagnose

        return getattr(diagnose, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
