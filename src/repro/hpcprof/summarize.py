"""Statistical summarization of per-rank metrics (Sections IV-A & VII).

For large parallel executions it is not scalable to keep every process's
metric values in memory; HPCToolkit instead summarizes per-scope values
across ranks into a handful of statistics — mean, min, max, standard
deviation — computed scalably from *mergeable partial moments* and
assembled in a final *finalization* step.

:class:`Moments` is the mergeable accumulator (count / mean / M2 in
Welford form plus min/max).  Merging two accumulators is exact,
associative and commutative, which is what makes the reduction tree over
thousands of ranks work; the property-based tests verify all three
claims.

:func:`summarize_ranks` registers four summary metric columns per input
metric on a combined CCT, replacing O(#ranks) storage with O(1).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.cct import CCT
from repro.errors import MetricError
from repro.core.metrics import MetricKind, MetricTable
from repro.hpcprof.merge import collect_rank_matrix, collect_rank_vectors

__all__ = [
    "Moments",
    "SummaryIds",
    "summarize_ranks",
    "summarize_ranks_exact",
    "register_summary_ids",
    "apply_summary_stats",
    "rank_moments",
    "welford_moments",
    "welford_state",
    "welford_step",
    "partial_summary",
    "reduce_partials",
    "finalize_partials",
    "imbalance_factor",
]

#: ranks per worker chunk in the parallel reduction (chosen so 64 ranks
#: split into a 4-leaf tree; the merge is exact, so the value only
#: affects scheduling granularity, never results)
CHUNK_RANKS = 16


@dataclass
class Moments:
    """Mergeable running statistics over a stream of values."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    # ------------------------------------------------------------------ #
    def add(self, x: float) -> None:
        """Welford online update with one value."""
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        self.minimum = min(self.minimum, x)
        self.maximum = max(self.maximum, x)

    def add_many(self, values: Iterable[float]) -> None:
        for x in values:
            self.add(x)

    def merge(self, other: "Moments") -> "Moments":
        """Exact parallel combination (Chan et al.) — the finalization step."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        n = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / n
        self.mean = (self.count * self.mean + other.count * other.mean) / n
        self.count = n
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    # ------------------------------------------------------------------ #
    @property
    def variance(self) -> float:
        """Population variance (0 for fewer than 2 values)."""
        return self.m2 / self.count if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def total(self) -> float:
        return self.mean * self.count

    @classmethod
    def of(cls, values: Iterable[float]) -> "Moments":
        m = cls()
        m.add_many(values)
        return m

    @classmethod
    def zeros(cls, count: int) -> "Moments":
        """Moments of *count* zero observations (sparse-scope filler)."""
        if count <= 0:
            return cls()
        return cls(count=count, mean=0.0, m2=0.0, minimum=0.0, maximum=0.0)


@dataclass(frozen=True)
class SummaryIds:
    """Metric ids of the four summary columns derived from one metric."""

    mean: int
    minimum: int
    maximum: int
    stddev: int

    def all(self) -> tuple[int, int, int, int]:
        return (self.mean, self.minimum, self.maximum, self.stddev)


def summarize_ranks(
    combined: CCT,
    rank_ccts: Sequence[CCT],
    metrics: MetricTable,
    mid: int,
    max_workers: int | None = None,
) -> SummaryIds:
    """Attach mean/min/max/stddev columns for metric *mid* across ranks.

    Statistics are computed over the per-rank *inclusive* values of every
    scope (with 0 for ranks where the scope is absent), written into the
    scopes' inclusive vectors, and likewise for exclusive values.  The
    combined tree must have been produced by merging *rank_ccts*.

    The per-rank values are collected as one columnar ``(scopes x ranks)``
    matrix per flavour (:func:`~repro.hpcprof.merge.collect_rank_matrix`)
    and reduced with vectorized axis kernels.  With ``max_workers > 1``
    the reduction instead runs through :func:`rank_moments`' process-pool
    reduction tree over rank chunks — the moments merge is exact, and the
    chunk boundaries and merge-tree shape are fixed, so the parallel
    result is bit-identical to the serial one (a property the tests
    assert for 64 ranks).
    """
    if not rank_ccts:
        raise MetricError("need at least one rank profile to summarize")
    ids = register_summary_ids(metrics, mid)
    for flavor in ("inclusive", "exclusive"):
        nodes, matrix = collect_rank_matrix(
            combined, rank_ccts, mid, inclusive=(flavor == "inclusive")
        )
        if not nodes:
            continue
        if max_workers is not None:
            count, mean, m2, minimum, maximum = rank_moments(
                matrix, max_workers=max_workers
            )
            variance = m2 / count if count > 1 else np.zeros(len(nodes))
            stddev = np.sqrt(np.maximum(variance, 0.0))
        else:
            mean = matrix.mean(axis=1)
            minimum = matrix.min(axis=1)
            maximum = matrix.max(axis=1)
            stddev = matrix.std(axis=1)
        columns = (
            (ids.mean, mean.tolist()),
            (ids.minimum, minimum.tolist()),
            (ids.maximum, maximum.tolist()),
            (ids.stddev, stddev.tolist()),
        )
        for row, node in enumerate(nodes):
            store = getattr(node, flavor)
            for summary_mid, values in columns:
                store[summary_mid] = values[row]
    combined.invalidate_caches()  # node values changed under any projection
    return ids


def register_summary_ids(metrics: MetricTable, mid: int) -> SummaryIds:
    """Register the four summary descriptors for one base metric.

    Shared by every summarization path — the eager one above, the exact
    in-memory reference, the out-of-core merge, and the store's
    on-demand summaries — so the descriptor names, order, and resulting
    ids are identical no matter which path ran.
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


def apply_summary_stats(nodes, flavor: str, ids: SummaryIds,
                        stats: "_RowStats", mask) -> None:
    """Write one flavor's ``(count, mean, m2, min, max)`` into the tree.

    ``nodes`` is the combined tree in preorder; ``mask`` selects the
    scopes with a nonzero value in at least one rank (the same sparse
    semantics as :func:`~repro.hpcprof.merge.collect_rank_matrix` — a
    scope no rank ever touched gets no summary entries).
    """
    count, mean, m2, minimum, maximum = stats
    if count > 1:
        variance = m2 / count
    else:
        variance = np.zeros_like(mean)
    stddev = np.sqrt(np.maximum(variance, 0.0))
    for row in np.flatnonzero(mask):
        store = getattr(nodes[row], flavor)
        store[ids.mean] = float(mean[row])
        store[ids.minimum] = float(minimum[row])
        store[ids.maximum] = float(maximum[row])
        store[ids.stddev] = float(stddev[row])


def summarize_ranks_exact(
    combined: CCT,
    rank_ccts: Sequence[CCT],
    metrics: MetricTable,
    mid: int,
) -> SummaryIds:
    """Summary columns by the *sequential* Welford recurrence.

    Same columns as :func:`summarize_ranks`, but computed by feeding the
    rank values through one Welford accumulator in rank order (a single
    :func:`welford_moments` over all ranks) instead of numpy's pairwise
    ``mean``/``std``.  This is the bit-exactness contract shared with
    the out-of-core merge, which replays the identical update sequence
    one rank at a time — so an in-memory merge summarized through this
    function and a bounded-memory merge of the same rank files produce
    byte-identical databases.
    """
    if not rank_ccts:
        raise MetricError("need at least one rank profile to summarize")
    ids = register_summary_ids(metrics, mid)
    all_nodes = list(combined.walk())
    rows = {node.uid: row for row, node in enumerate(all_nodes)}
    for flavor in ("inclusive", "exclusive"):
        kept, matrix = collect_rank_matrix(
            combined, rank_ccts, mid, inclusive=(flavor == "inclusive")
        )
        if not kept:
            continue
        stats = welford_moments(matrix)
        mask = np.zeros(len(all_nodes), dtype=bool)
        mask[[rows[node.uid] for node in kept]] = True
        # scatter the kept-row stats back to dense rows for the writer
        dense = tuple(
            _scatter(vec, [rows[n.uid] for n in kept], len(all_nodes))
            for vec in stats[1:]
        )
        apply_summary_stats(
            all_nodes, flavor, ids, (stats[0], *dense), mask
        )
    combined.invalidate_caches()
    return ids


def _scatter(values: np.ndarray, rows, n: int) -> np.ndarray:
    out = np.zeros(n)
    out[rows] = values
    return out


# --------------------------------------------------------------------- #
# chunked Welford + process-pool reduction tree
# --------------------------------------------------------------------- #
#: per-row statistics of one rank chunk: (count, mean, m2, min, max);
#: count is a plain int, the rest are per-row vectors
_RowStats = tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def welford_state(n: int) -> list[np.ndarray]:
    """Empty per-row accumulators ``[mean, m2, min, max]`` for *n* rows."""
    return [np.zeros(n), np.zeros(n), np.full(n, math.inf),
            np.full(n, -math.inf)]


def welford_step(state: list[np.ndarray], x: np.ndarray, count: int) -> None:
    """Fold the column *x* into :func:`welford_state` accumulators, in place.

    *count* is the number of values seen so far, *x* included.  Per row
    this is exactly the update sequence of :meth:`Moments.add`, so the
    rank summaries, the store's on-demand summaries, the bounded merge
    and the ensemble statistics — all of which step through here — are
    bit-identical to a scalar accumulator fed the same values in order.
    """
    mean, m2, minimum, maximum = state
    delta = x - mean
    mean += delta / count
    m2 += delta * (x - mean)
    np.minimum(minimum, x, out=minimum)
    np.maximum(maximum, x, out=maximum)


def welford_moments(matrix: np.ndarray) -> _RowStats:
    """Per-row Welford moments over the columns of *matrix*, in order.

    Module-level (hence picklable) worker for the process pool.
    """
    n, m = matrix.shape
    state = welford_state(n)
    for j in range(m):
        welford_step(state, matrix[:, j], j + 1)
    return (m, *state)


def _merge_stats(a: _RowStats, b: _RowStats) -> _RowStats:
    """Vectorized :meth:`Moments.merge` — same formulas, same FP order."""
    count_a, mean_a, m2_a, min_a, max_a = a
    count_b, mean_b, m2_b, min_b, max_b = b
    if count_b == 0:
        return a
    if count_a == 0:
        return b
    n = count_a + count_b
    delta = mean_b - mean_a
    m2 = m2_a + m2_b + delta * delta * count_a * count_b / n
    mean = (count_a * mean_a + count_b * mean_b) / n
    return (n, mean, m2, np.minimum(min_a, min_b), np.maximum(max_a, max_b))


def _reduce_tree(stats: list[_RowStats]) -> _RowStats:
    """Pairwise reduction in fixed order — the finalization step's shape.

    The tree's shape depends only on the chunk count, never on worker
    scheduling, so parallel and serial runs reduce identically.
    """
    while len(stats) > 1:
        merged = [
            _merge_stats(stats[i], stats[i + 1])
            for i in range(0, len(stats) - 1, 2)
        ]
        if len(stats) % 2:
            merged.append(stats[-1])
        stats = merged
    return stats[0]


def rank_moments(
    matrix: np.ndarray,
    max_workers: int | None = None,
    chunk_ranks: int = CHUNK_RANKS,
) -> _RowStats:
    """Per-row moments of a ``(scopes x ranks)`` matrix, chunked by rank.

    Rank columns are split into fixed chunks; each chunk's per-row Welford
    partials are computed by :func:`welford_moments` — in a
    ``concurrent.futures`` process pool when ``max_workers > 1``, inline
    otherwise — and combined through the fixed pairwise merge tree.  Since
    chunking and tree shape are independent of the execution mode, the
    returned ``(count, mean, m2, min, max)`` is bit-identical for any
    worker count.
    """
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise MetricError("rank_moments needs a (scopes x ranks) matrix")
    nranks = matrix.shape[1]
    chunks = [
        matrix[:, lo : lo + chunk_ranks] for lo in range(0, nranks, chunk_ranks)
    ]
    if max_workers is not None and max_workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            stats = list(pool.map(welford_moments, chunks))
    else:
        stats = [welford_moments(chunk) for chunk in chunks]
    return _reduce_tree(stats)


# --------------------------------------------------------------------- #
# scalable finalization: partial moments + reduction tree
# --------------------------------------------------------------------- #
#: per-scope partial summary: (#ranks covered, {node uid: Moments})
PartialSummary = tuple[int, dict[int, "Moments"]]


def partial_summary(
    combined: CCT,
    rank_ccts: Sequence[CCT],
    mid: int,
    rank_offset: int = 0,
    inclusive: bool = True,
) -> PartialSummary:
    """Intermediate summary over one *slice* of the ranks.

    In the paper's design, summarization happens scalably: workers
    compute mergeable intermediate values over subsets of ranks, and the
    finalization step assembles them.  A partial records how many ranks
    it covers and per-scope moments over those ranks' values — scopes a
    rank never touched contribute implicit zeros, reconciled at
    finalization via :meth:`Moments.zeros`.
    """
    vectors = collect_rank_vectors(combined, rank_ccts, mid, inclusive=inclusive)
    out: dict[int, Moments] = {}
    nranks = len(rank_ccts)
    for uid, vec in vectors.items():
        out[uid] = Moments.of(vec)  # vec already includes this slice's zeros
    del rank_offset  # kept in the signature for call-site readability
    return (nranks, out)


def reduce_partials(a: PartialSummary, b: PartialSummary) -> PartialSummary:
    """Combine two partial summaries — associative and commutative."""
    count_a, parts_a = a
    count_b, parts_b = b
    merged: dict[int, Moments] = {}
    for uid in set(parts_a) | set(parts_b):
        ma = parts_a.get(uid)
        mb = parts_b.get(uid)
        m = Moments()
        m.merge(ma if ma is not None else Moments.zeros(count_a))
        m.merge(mb if mb is not None else Moments.zeros(count_b))
        merged[uid] = m
    return (count_a + count_b, merged)


def finalize_partials(
    combined: CCT,
    partial: PartialSummary,
    metrics: MetricTable,
    ids: SummaryIds,
    inclusive: bool = True,
) -> None:
    """Write a reduced partial's statistics into the combined tree."""
    nranks, parts = partial
    flavor = "inclusive" if inclusive else "exclusive"
    nodes = {node.uid: node for node in combined.walk()}
    for uid, moments in parts.items():
        filled = Moments()
        filled.merge(moments)
        filled.merge(Moments.zeros(nranks - moments.count))
        store = getattr(nodes[uid], flavor)
        store[ids.mean] = filled.mean
        store[ids.minimum] = filled.minimum
        store[ids.maximum] = filled.maximum
        store[ids.stddev] = filled.stddev


def imbalance_factor(vector: np.ndarray) -> float:
    """Classic load-imbalance factor: max / mean (1.0 = perfectly balanced)."""
    mean = float(np.mean(vector))
    if mean == 0.0:
        return 1.0
    return float(np.max(vector)) / mean
