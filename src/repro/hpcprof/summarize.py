"""Statistical summarization of per-rank metrics (Sections IV-A & VII).

For large parallel executions it is not scalable to keep every process's
metric values in memory; HPCToolkit instead summarizes per-scope values
across ranks into a handful of statistics — mean, min, max, standard
deviation — assembled in a final *finalization* step.

:class:`RowMoments` is the one summary accumulator: per-row count, mean
and M2 in Welford form, min, max, and the nonzero mask, stepped one rank
(or ensemble member) row at a time.  Every summary path steps it in rank
order — the in-memory :func:`summarize_ranks`, the bounded
:func:`~repro.hpcprof.merge.merge_rank_files`, a store's on-demand
summaries and the ensemble statistics — so they all agree bit for bit.

:func:`summarize_rows` registers four summary metric columns per input
metric on a combined CCT, replacing O(#ranks) storage with O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.cct import CCT
from repro.errors import MetricError
from repro.core.metrics import MetricKind, MetricTable
from repro.hpcprof.merge import rank_rows

__all__ = [
    "FLAVORS",
    "RowMoments",
    "SummaryIds",
    "summarize_ranks",
    "summarize_rows",
    "register_summary_ids",
    "imbalance_factor",
]

#: the two projections every summary covers, in column order
FLAVORS = ("inclusive", "exclusive")


class RowMoments:
    """Running per-row statistics over a stream of value rows.

    Each :meth:`step` folds one row (one rank, or one ensemble member)
    into every row's count / mean / M2 (Welford's recurrence), min and
    max, and marks the rows that saw a nonzero value.  Stepping the
    same rows in the same order gives the same bits, whichever path
    produced them.
    """

    def __init__(self, n: int) -> None:
        self.count = 0
        self.mean = np.zeros(n)
        self.m2 = np.zeros(n)
        self.minimum = np.full(n, math.inf)
        self.maximum = np.full(n, -math.inf)
        self.nonzero = np.zeros(n, dtype=bool)

    @classmethod
    def of(cls, rows: np.ndarray) -> "RowMoments":
        """Moments of the columns of a ``(steps x n)`` matrix, row by row."""
        moments = cls(rows.shape[1])
        for x in rows:
            moments.step(x)
        return moments

    def step(self, x: np.ndarray) -> None:
        """Fold the row *x* into the accumulators, in place."""
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        np.minimum(self.minimum, x, out=self.minimum)
        np.maximum(self.maximum, x, out=self.maximum)
        self.nonzero |= x != 0.0

    @property
    def stddev(self) -> np.ndarray:
        """Population standard deviation (0 for fewer than 2 steps)."""
        if self.count > 1:
            variance = self.m2 / self.count
        else:
            variance = np.zeros_like(self.mean)
        return np.sqrt(np.maximum(variance, 0.0))

    def write(self, nodes, flavor: str, ids: "SummaryIds") -> None:
        """Write the four statistics into *nodes* (row order) for *flavor*.

        Only rows with a nonzero value in at least one step get entries:
        a scope no rank ever touched gets no summary columns.
        """
        stddev = self.stddev
        for row in np.flatnonzero(self.nonzero):
            store = getattr(nodes[row], flavor)
            store[ids.mean] = float(self.mean[row])
            store[ids.minimum] = float(self.minimum[row])
            store[ids.maximum] = float(self.maximum[row])
            store[ids.stddev] = float(stddev[row])


@dataclass(frozen=True)
class SummaryIds:
    """Metric ids of the four summary columns derived from one metric."""

    mean: int
    minimum: int
    maximum: int
    stddev: int

    def all(self) -> tuple[int, int, int, int]:
        return (self.mean, self.minimum, self.maximum, self.stddev)


def register_summary_ids(metrics: MetricTable, mid: int) -> SummaryIds:
    """Register the four summary descriptors for one base metric.

    Shared by every summarization path, so the descriptor names, order,
    and resulting ids are identical no matter which path ran.
    """
    base = metrics.by_id(mid)
    return SummaryIds(
        mean=metrics.add(f"{base.name} (mean)", unit=base.unit,
                         kind=MetricKind.SUMMARY, show_percent=False).mid,
        minimum=metrics.add(f"{base.name} (min)", unit=base.unit,
                            kind=MetricKind.SUMMARY, show_percent=False).mid,
        maximum=metrics.add(f"{base.name} (max)", unit=base.unit,
                            kind=MetricKind.SUMMARY, show_percent=False).mid,
        stddev=metrics.add(f"{base.name} (stddev)", unit=base.unit,
                           kind=MetricKind.SUMMARY, show_percent=False).mid,
    )


def summarize_rows(
    cct: CCT,
    metrics: MetricTable,
    mids: Sequence[int],
    rows: Iterable[Sequence[np.ndarray]],
) -> dict[int, SummaryIds]:
    """Attach mean/min/max/stddev columns for *mids* from per-rank rows.

    *rows* yields, per rank in rank order, one float64 row over
    ``cct.walk()`` preorder for each column ``(mid, flavor)`` — mids in
    order, :data:`FLAVORS` within each — with 0 where the rank lacks
    the scope.  One :class:`RowMoments` per column steps through them;
    then each metric's descriptors are registered and its statistics
    written into the tree.  Returns ``{mid: SummaryIds}``.
    """
    nodes = list(cct.walk())
    moments = [RowMoments(len(nodes)) for _ in range(len(mids) * 2)]
    for row in rows:
        for accumulator, x in zip(moments, row):
            accumulator.step(x)
    out: dict[int, SummaryIds] = {}
    columns = iter(moments)
    for mid in mids:
        ids = out[mid] = register_summary_ids(metrics, mid)
        for flavor in FLAVORS:
            next(columns).write(nodes, flavor, ids)
    cct.invalidate_caches()  # node values changed under any projection
    return out


def summarize_ranks(
    combined: CCT,
    rank_ccts: Sequence[CCT],
    metrics: MetricTable,
    mid: int,
) -> SummaryIds:
    """Attach mean/min/max/stddev columns for metric *mid* across ranks.

    Statistics are computed over the per-rank *inclusive* values of every
    scope (with 0 for ranks where the scope is absent), written into the
    scopes' inclusive vectors, and likewise for exclusive values.  The
    combined tree must have been produced by merging *rank_ccts*.
    """
    if not rank_ccts:
        raise MetricError("need at least one rank profile to summarize")
    rows = rank_rows(combined, rank_ccts, [mid], FLAVORS)
    return summarize_rows(combined, metrics, [mid], rows)[mid]


def imbalance_factor(vector: np.ndarray) -> float:
    """Classic load-imbalance factor: max / mean (1.0 = perfectly balanced)."""
    mean = float(np.mean(vector))
    if mean == 0.0:
        return 1.0
    return float(np.max(vector)) / mean
