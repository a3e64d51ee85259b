"""The columnar metric engine — dense per-node matrices over one CCT.

The presentation layer keeps per-scope metrics as sparse dicts (the
paper's "performance data is sparse" principle), which is the right
shape for cell-at-a-time display.  Whole-tree numeric analysis — the
attribution equations, totals, percent normalization, top-k scans, hot
path descent, exposed-instance aggregation — is bulk arithmetic, and
running it as pure-Python loops over ``dict[int, float]`` is the single
hottest cost in the pipeline.  :class:`MetricEngine` is the production
columnar backing store for those kernels: one ``(num_nodes x
num_metrics)`` float64 matrix per flavour, rows in preorder, with
vectorized numpy kernels.

Design rules:

* **The sparse dicts remain the API.**  The engine is a projection built
  from (or scattered back into) ``node.raw`` / ``node.inclusive`` /
  ``node.exclusive``; nothing downstream is required to know it exists.
* **Bit-for-bit parity.**  Every kernel replicates the floating-point
  evaluation order of the dict reference path (per parent, children are
  accumulated in child order), so the two backends agree exactly — the
  parity tests assert ``==``, not ``approx``.
* **Versioned invalidation.**  The engine caches itself on the CCT and
  is dropped by :meth:`~repro.core.cct.CCT.invalidate_caches`; consumers
  go through :func:`engine_for`, which rebuilds on version or metric
  count mismatch.

See ``docs/performance.md`` for when the engine activates and how it is
benchmarked.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

import numpy as np

from repro.core.cct import CCT, CCTKind, CCTNode
from repro.errors import MetricError
from repro.obs.spans import traced
from repro.core.metrics import MetricFlavor, MetricSpec, MetricValues

__all__ = [
    "MetricEngine",
    "attribute_arrays",
    "attribute_columnar",
    "engine_for",
    "level_rows",
]

# kind codes used in the per-row ``kinds`` array
KIND_ROOT, KIND_FRAME, KIND_CALL_SITE, KIND_LOOP, KIND_STATEMENT = range(5)

_KIND_CODE = {
    CCTKind.ROOT: KIND_ROOT,
    CCTKind.FRAME: KIND_FRAME,
    CCTKind.CALL_SITE: KIND_CALL_SITE,
    CCTKind.LOOP: KIND_LOOP,
    CCTKind.STATEMENT: KIND_STATEMENT,
}


class MetricEngine:
    """Dense metric matrices plus vectorized analysis kernels for one CCT.

    ``nodes[i]`` corresponds to row ``i`` of each matrix; ``index`` maps
    node uid → row.  Rows are in preorder, so every parent precedes its
    children and every subtree is a contiguous row range — the two
    properties the kernels rely on.
    """

    def __init__(
        self,
        cct: CCT,
        num_metrics: int | None,
        gather_attributed: bool = True,
        matrices: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if num_metrics is not None and num_metrics < 1:
            raise MetricError("num_metrics must be >= 1")
        if matrices is not None and num_metrics is None:
            num_metrics = int(matrices[0].shape[1])
        self.cct = cct
        self.version = cct.version

        # structural walk: explicit stack (deep chains exceed the
        # recursion limit) appending to lists — far cheaper than
        # element-wise numpy stores, and identical to cct.walk() preorder
        nodes: list[CCTNode] = []
        parent_list: list[int] = []
        kind_list: list[int] = []
        depth_list: list[int] = []
        stack: list[tuple[CCTNode, int, int]] = [(cct.root, -1, 0)]
        while stack:
            node, prow, depth = stack.pop()
            row = len(nodes)
            nodes.append(node)
            parent_list.append(prow)
            kind_list.append(_KIND_CODE[node.kind])
            depth_list.append(depth)
            for child in reversed(node.children):
                stack.append((child, row, depth + 1))
        n = len(nodes)
        self.nodes = nodes
        self.index: dict[int, int] = {node.uid: row for row, node in enumerate(nodes)}
        parent_rows = np.asarray(parent_list, dtype=np.int64)
        kinds = np.asarray(kind_list, dtype=np.int8)
        depths = np.asarray(depth_list, dtype=np.int64)

        if matrices is not None:
            # preloaded (typically memory-mapped) column matrices: the
            # caller guarantees rows follow this same preorder walk, so
            # the per-node dict gather is skipped entirely and the
            # matrices can stay on disk (the file mapping pages them in
            # per kernel touch) — the out-of-core store's engine path
            raw, inclusive, exclusive = matrices
            for matrix, label in (
                (raw, "raw"), (inclusive, "inclusive"), (exclusive, "exclusive")
            ):
                if matrix.shape != (n, num_metrics):
                    raise MetricError(
                        f"{label} matrix shape {matrix.shape} does not match "
                        f"({n}, {num_metrics})"
                    )
            self.num_metrics = num_metrics
            self._finish_structure(parent_rows, kinds, depths,
                                   raw, inclusive, exclusive)
            return

        # metric gather as coordinate triples, one fancy store per matrix;
        # num_metrics=None infers the width from the raw mids seen
        raw_coords: list[int] = []
        raw_mids: list[int] = []
        raw_values: list[float] = []
        max_mid = -1
        for row, node in enumerate(nodes):
            for mid, value in node.raw.items():
                raw_coords.append(row)
                raw_mids.append(mid)
                raw_values.append(value)
                if mid > max_mid:
                    max_mid = mid
        if num_metrics is None:
            num_metrics = max(max_mid + 1, 1)
        self.num_metrics = num_metrics

        raw = np.zeros((n, num_metrics))
        if raw_coords:
            if max_mid >= num_metrics:
                keep = [i for i, mid in enumerate(raw_mids) if mid < num_metrics]
                raw_coords = [raw_coords[i] for i in keep]
                raw_mids = [raw_mids[i] for i in keep]
                raw_values = [raw_values[i] for i in keep]
            if raw_coords:
                raw[raw_coords, raw_mids] = raw_values
        inclusive = np.zeros((n, num_metrics))
        exclusive = np.zeros((n, num_metrics))
        if gather_attributed:
            for attr, matrix in (("inclusive", inclusive), ("exclusive", exclusive)):
                coords: list[int] = []
                mids: list[int] = []
                values: list[float] = []
                for row, node in enumerate(nodes):
                    for mid, value in getattr(node, attr).items():
                        if mid < num_metrics:
                            coords.append(row)
                            mids.append(mid)
                            values.append(value)
                if coords:
                    matrix[coords, mids] = values
        self._finish_structure(parent_rows, kinds, depths,
                               raw, inclusive, exclusive)

    def _finish_structure(
        self,
        parent_rows: np.ndarray,
        kinds: np.ndarray,
        depths: np.ndarray,
        raw: np.ndarray,
        inclusive: np.ndarray,
        exclusive: np.ndarray,
    ) -> None:
        """Derive the level / CSR / extent indexes shared by both builds."""
        n = len(self.nodes)
        self.parent_rows = parent_rows
        self.kinds = kinds
        self.depths = depths
        self.raw = raw
        self.inclusive = inclusive
        self.exclusive = exclusive

        # rows grouped by depth (stable → preorder within each level)
        self._level_order = np.argsort(depths, kind="stable")
        self.max_depth = int(depths[self._level_order[-1]]) if n else 0
        self._level_starts = np.searchsorted(
            depths[self._level_order], np.arange(self.max_depth + 2)
        )

        # subtree sizes via bottom-up level sweep → preorder extents
        sizes = np.ones(n, dtype=np.int64)
        for depth in range(self.max_depth, 0, -1):
            rows = self._rows_at_depth(depth)
            np.add.at(sizes, parent_rows[rows], sizes[rows])
        self.subtree_end = np.arange(n, dtype=np.int64) + sizes

    # ------------------------------------------------------------------ #
    # row helpers
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.nodes)

    def _rows_at_depth(self, depth: int) -> np.ndarray:
        lo, hi = self._level_starts[depth], self._level_starts[depth + 1]
        return self._level_order[lo:hi]

    def row_of(self, node: CCTNode) -> int:
        try:
            return self.index[node.uid]
        except KeyError:
            raise MetricError(
                f"scope {node.name!r} is not part of this engine's CCT"
            ) from None

    # ------------------------------------------------------------------ #
    # attribution kernels (Eqs. 1 and 2, vectorized)
    # ------------------------------------------------------------------ #
    @traced("engine.attribution")
    def compute_attribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized Eq. 1 + Eq. 2 from ``raw``; returns (inclusive, exclusive).

        See :func:`attribute_arrays`, which this runs over the engine's
        own structure arrays.
        """
        levels = [self._rows_at_depth(d) for d in range(1, self.max_depth + 1)]
        return attribute_arrays(self.parent_rows, self.kinds, levels, self.raw)

    def refresh(self) -> None:
        """Recompute the attributed matrices from ``raw`` in place."""
        self.inclusive, self.exclusive = self.compute_attribution()

    @traced("engine.scatter")
    def scatter(
        self,
        inclusive: np.ndarray | None = None,
        exclusive: np.ndarray | None = None,
    ) -> None:
        """Write attributed matrices back into the sparse node dicts.

        The matrices default to the engine's own.  Zero cells stay absent,
        matching the sparse representation's invariant (``add_into``
        likewise drops entries that cancel to 0).
        """
        for matrix, attr in (
            (self.inclusive if inclusive is None else inclusive, "inclusive"),
            (self.exclusive if exclusive is None else exclusive, "exclusive"),
        ):
            if self.num_metrics == 1:
                values = matrix[:, 0].tolist()
                for node, value in zip(self.nodes, values):
                    setattr(node, attr, {0: value} if value != 0.0 else {})
            else:
                for node, values in zip(self.nodes, _sparse_rows(matrix)):
                    setattr(node, attr, values)

    # ------------------------------------------------------------------ #
    # whole-tree numeric kernels
    # ------------------------------------------------------------------ #
    def totals(self) -> np.ndarray:
        """Experiment totals per metric (the root's inclusive row)."""
        return self.inclusive[0].copy()

    def total(self, mid: int) -> float:
        """Aggregate inclusive total of one metric (percent denominator)."""
        return float(self.inclusive[0, mid])

    def shares(self, mid: int) -> np.ndarray:
        """Every scope's inclusive share of the total, in one pass."""
        total = self.inclusive[0, mid]
        if total == 0.0:
            return np.zeros(len(self.nodes))
        return self.inclusive[:, mid] / total

    def top_k(
        self, mid: int, k: int = 10, exclusive: bool = True
    ) -> list[tuple[CCTNode, float]]:
        """The k heaviest scopes by one metric — argpartition, not sort."""
        matrix = self.exclusive if exclusive else self.inclusive
        column = matrix[:, mid]
        k = min(k, len(column))
        idx = np.argpartition(column, -k)[-k:]
        idx = idx[np.argsort(column[idx])[::-1]]
        return [(self.nodes[i], float(column[i])) for i in idx]

    # ------------------------------------------------------------------ #
    # exposed-instance aggregation (Section IV-B)
    # ------------------------------------------------------------------ #
    def rows_of(self, nodes: Sequence[CCTNode]) -> list[int]:
        """Engine rows of *nodes*, in order (:meth:`row_of` for many)."""
        index = self.index
        try:
            return [index[node.uid] for node in nodes]
        except KeyError:
            for node in nodes:
                self.row_of(node)  # raises MetricError naming the scope
            raise

    @traced("engine.aggregate-exposed")
    def aggregate_exposed(
        self, rows: Sequence[int], offsets: Sequence[int]
    ) -> list[tuple[MetricValues, MetricValues]]:
        """Exposed-instance aggregates of many instance groups in one pass.

        Group ``g`` is ``rows[offsets[g]:offsets[g + 1]]``: the engine rows
        of one view row's CCT instances, in input order.  Each group's
        sparse ``(inclusive, exclusive)`` pair sums its *exposed* members
        (no proper ancestor in the same group) in input order, an exposed
        row listed twice counting twice -- exactly
        :func:`repro.core.attribution.aggregate_exposed`, bit for bit.

        Exposure is one segment prefix-max over the preorder extents: in
        ``(group, row)`` order a member is covered iff an earlier member
        of its group has a subtree reaching past it.  The sums are one
        ``np.add.at`` per matrix, which applies updates in index (= input)
        order, the same additions as a per-group ``acc += row`` loop.
        """
        rows = np.asarray(rows, dtype=np.int64)
        counts = np.diff(np.asarray(offsets, dtype=np.int64))
        ngroups = len(counts)
        group = np.repeat(np.arange(ngroups, dtype=np.int64), counts)
        span = len(self.nodes) + 1  # > every row and extent
        key = group * span + rows
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        reach = np.maximum.accumulate(
            group[order] * span + self.subtree_end[rows[order]]
        )
        covered_by = np.empty_like(reach)
        covered_by[:1] = -1
        covered_by[1:] = reach[:-1]
        exposed_sorted = ordered >= covered_by
        # a repeated row takes the verdict of its first copy (which the
        # test above would otherwise count as its own ancestor)
        first = np.ones(len(rows), dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        head = np.maximum.accumulate(np.where(first, np.arange(len(rows)), 0))
        exposed = np.empty(len(rows), dtype=bool)
        exposed[order] = exposed_sorted[head]

        picked = rows[exposed]
        width = self.num_metrics
        cells = (group[exposed][:, None] * width + np.arange(width)).ravel()
        out = []
        for matrix in (self.inclusive, self.exclusive):
            acc = np.zeros(ngroups * width)
            np.add.at(acc, cells, matrix[picked].ravel())
            out.append(_sparse_rows(acc.reshape(ngroups, width)))
        return list(zip(*out))

    # ------------------------------------------------------------------ #
    # view-row gathers
    # ------------------------------------------------------------------ #
    @traced("engine.gather-view-values")
    def gather_view_values(self, rows: Sequence, spec: MetricSpec) -> np.ndarray:
        """One metric column over a list of :class:`ViewNode` rows.

        Rows whose value dict *is* a single backing CCT node's dict (the
        identity the lazily-built views preserve) are read from the
        matrices with one fancy-index gather; synthesized rows (fused
        exclusives, aggregated callers/flat rows) fall back to their own
        dict — the values are identical either way, because the matrices
        are projections of those same dicts.
        """
        mid = spec.mid
        inclusive_flavor = spec.flavor is MetricFlavor.INCLUSIVE
        matrix = self.inclusive if inclusive_flavor else self.exclusive
        index = self.index
        out = np.empty(len(rows))
        gather_at: list[int] = []
        gather_rows: list[int] = []
        for i, row in enumerate(rows):
            store = row.inclusive if inclusive_flavor else row.exclusive
            nodes = row.cct_nodes
            if len(nodes) == 1:
                node = nodes[0]
                backing = node.inclusive if inclusive_flavor else node.exclusive
                if store is backing:
                    engine_row = index.get(node.uid)
                    if engine_row is not None:
                        gather_at.append(i)
                        gather_rows.append(engine_row)
                        continue
            out[i] = store.get(mid, 0.0)
        if gather_at:
            out[np.asarray(gather_at)] = matrix[np.asarray(gather_rows), mid]
        return out

    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> int:
        """Matrix memory footprint (the dense side of the ablation)."""
        return self.raw.nbytes + self.inclusive.nbytes + self.exclusive.nbytes


def level_rows(depths: np.ndarray) -> list[np.ndarray]:
    """Rows grouped by depth, shallowest first; rows keep their order
    within a level (preorder when the rows are in preorder)."""
    order = np.argsort(depths, kind="stable")
    if not len(order):
        return []
    starts = np.searchsorted(depths[order],
                             np.arange(int(depths[order[-1]]) + 2))
    return [order[starts[d]:starts[d + 1]] for d in range(len(starts) - 1)]


def attribute_arrays(
    parent_rows: np.ndarray,
    kinds: np.ndarray,
    levels: Sequence[np.ndarray],
    raw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 1 + Eq. 2 over a tree given as arrays; returns (inclusive, exclusive).

    *parent_rows* and *kinds* describe the tree (``-1`` parent for the
    root), *raw* is its ``(rows x metrics)`` raw matrix and *levels*
    lists the rows of depths 1, 2, ... (see :func:`level_rows`), each
    in preorder.  Both accumulations sweep the levels bottom-up with one
    ``np.add.at`` segment add per level, so every row is touched a
    constant number of times regardless of shape, and additions into a
    parent row happen in child order (``ufunc.at`` applies updates in
    index order, and rows within a level are in preorder) — exactly the
    dict path's evaluation order.  No :class:`CCTNode` is needed.
    """
    inclusive = raw.copy()
    within = raw.copy()  # within-frame raw subtotals (Eq. 1 barrier)
    nonframe = kinds != KIND_FRAME
    for rows in reversed(levels):
        np.add.at(inclusive, parent_rows[rows], inclusive[rows])
        inner = rows[nonframe[rows]]
        if len(inner):
            np.add.at(within, parent_rows[inner], within[inner])

    exclusive = raw.copy()  # statements, call sites, and the root
    frames = kinds == KIND_FRAME
    exclusive[frames] = within[frames]
    # loops: own raw plus direct child statement / call-site raw
    leafish = (kinds == KIND_STATEMENT) | (kinds == KIND_CALL_SITE)
    rows = np.where(leafish & (parent_rows >= 0))[0]
    rows = rows[kinds[parent_rows[rows]] == KIND_LOOP]
    if len(rows):
        np.add.at(exclusive, parent_rows[rows], raw[rows])
    return inclusive, exclusive


def _sparse_rows(matrix: np.ndarray) -> list[MetricValues]:
    """Dense matrix → one sparse dict per row, dropping exact zeros."""
    rows, mids = np.nonzero(matrix)
    cells = zip(mids.tolist(), matrix[rows, mids].tolist())
    counts = np.bincount(rows, minlength=len(matrix)).tolist()
    return [dict(islice(cells, count)) if count else {} for count in counts]


def attribute_columnar(cct: CCT) -> MetricEngine:
    """Columnar backend for :func:`repro.core.attribution.attribute`.

    Builds the engine from raw values, runs the vectorized Eq. 1/Eq. 2
    kernels, scatters the results back into the sparse dicts (preserving
    the dict API as a facade), and leaves the engine cached on the CCT for
    the analysis kernels to reuse.
    """
    engine = MetricEngine(cct, None, gather_attributed=False)
    engine.refresh()
    engine.scatter()
    cct.invalidate_caches()
    engine.version = cct.version
    cct._engine = engine
    return engine


def engine_for(cct: CCT, num_metrics: int) -> MetricEngine | None:
    """The cached engine for *cct*, rebuilt when stale.

    Returns None for metric-less experiments.  Staleness is a version
    mismatch (the tree mutated since the build) or a metric-table growth
    (summary/derived columns registered after the build).
    """
    if num_metrics < 1:
        return None
    engine = cct._engine
    if (
        engine is None
        or engine.version != cct.version
        or engine.num_metrics != num_metrics
    ):
        engine = MetricEngine(cct, num_metrics)
        cct._engine = engine
    return engine
