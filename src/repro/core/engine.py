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

from typing import Sequence

import numpy as np

from repro.core.cct import CCT, CCTKind, CCTNode
from repro.errors import MetricError
from repro.obs.spans import traced
from repro.core.metrics import MetricFlavor, MetricSpec, MetricValues

__all__ = ["MetricEngine", "attribute_columnar", "engine_for"]

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

        # children in CSR form: rows grouped by parent, in child order
        if n > 1:
            self._child_rows = np.argsort(parent_rows[1:], kind="stable").astype(
                np.int64
            ) + 1
            counts = np.bincount(parent_rows[1:], minlength=n)
        else:
            self._child_rows = np.empty(0, dtype=np.int64)
            counts = np.zeros(n, dtype=np.int64)
        self._child_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self._child_offsets[1:])

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

    def children_rows(self, row: int) -> np.ndarray:
        lo, hi = self._child_offsets[row], self._child_offsets[row + 1]
        return self._child_rows[lo:hi]

    # ------------------------------------------------------------------ #
    # attribution kernels (Eqs. 1 and 2, vectorized)
    # ------------------------------------------------------------------ #
    @traced("engine.attribution")
    def compute_attribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized Eq. 1 + Eq. 2 from ``raw``; returns (inclusive, exclusive).

        Both accumulations sweep the depth levels bottom-up with one
        ``np.add.at`` segment add per level, so every row is touched a
        constant number of times regardless of shape, and additions into a
        parent row happen in child order (``ufunc.at`` applies updates in
        index order, and rows within a level are in preorder) — exactly
        the dict path's evaluation order.
        """
        parent_rows = self.parent_rows
        kinds = self.kinds
        inclusive = self.raw.copy()
        within = self.raw.copy()  # within-frame raw subtotals (Eq. 1 barrier)
        nonframe = kinds != KIND_FRAME
        for depth in range(self.max_depth, 0, -1):
            rows = self._rows_at_depth(depth)
            np.add.at(inclusive, parent_rows[rows], inclusive[rows])
            inner = rows[nonframe[rows]]
            if len(inner):
                np.add.at(within, parent_rows[inner], within[inner])

        exclusive = self.raw.copy()  # statements, call sites, and the root
        frames = kinds == KIND_FRAME
        exclusive[frames] = within[frames]
        # loops: own raw plus direct child statement / call-site raw
        leafish = (kinds == KIND_STATEMENT) | (kinds == KIND_CALL_SITE)
        rows = np.where(leafish & (parent_rows >= 0))[0]
        rows = rows[kinds[parent_rows[rows]] == KIND_LOOP]
        if len(rows):
            np.add.at(exclusive, parent_rows[rows], self.raw[rows])
        return inclusive, exclusive

    def refresh(self) -> None:
        """Recompute the attributed matrices from ``raw`` in place."""
        self.inclusive, self.exclusive = self.compute_attribution()

    @traced("engine.scatter")
    def scatter(self) -> None:
        """Write the attributed matrices back into the sparse node dicts.

        Zero cells stay absent, matching the sparse representation's
        invariant (``add_into`` likewise drops entries that cancel to 0).
        """
        if self.num_metrics == 1:
            for matrix, attr in (
                (self.inclusive, "inclusive"),
                (self.exclusive, "exclusive"),
            ):
                values = matrix[:, 0].tolist()
                for node, value in zip(self.nodes, values):
                    setattr(node, attr, {0: value} if value != 0.0 else {})
            return
        for matrix, attr in (
            (self.inclusive, "inclusive"),
            (self.exclusive, "exclusive"),
        ):
            rows, mids = np.nonzero(matrix)
            values = matrix[rows, mids].tolist()
            mids_list = mids.tolist()
            counts = np.bincount(rows, minlength=len(self.nodes)).tolist()
            pos = 0
            for row, node in enumerate(self.nodes):
                count = counts[row]
                if count:
                    end = pos + count
                    setattr(node, attr, dict(zip(mids_list[pos:end], values[pos:end])))
                    pos = end
                else:
                    setattr(node, attr, {})

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

    @traced("engine.hot-path")
    def hot_path_rows(
        self, start_row: int, mid: int, threshold: float
    ) -> tuple[list[int], list[float]]:
        """Eq. 3 descent over CCT rows: follow the argmax inclusive child
        while it holds at least ``threshold`` of its parent's value."""
        inclusive = self.inclusive
        path = [start_row]
        values = [float(inclusive[start_row, mid])]
        row = start_row
        while True:
            kids = self.children_rows(row)
            if not len(kids):
                break
            kid_values = inclusive[kids, mid]
            best = int(np.argmax(kid_values))  # first max, like max(key=...)
            best_value = float(kid_values[best])
            if values[-1] <= 0.0 or best_value < threshold * values[-1]:
                break
            row = int(kids[best])
            path.append(row)
            values.append(best_value)
        return path, values

    # ------------------------------------------------------------------ #
    # exposed-instance aggregation (Section IV-B)
    # ------------------------------------------------------------------ #
    def exposed_rows(self, rows: Sequence[int]) -> list[int]:
        """Distinct rows of *rows* with no proper ancestor also in *rows*.

        Preorder extents make this a single sweep: a sorted row is covered
        iff it falls inside the most recent exposed member's subtree.
        """
        end = self.subtree_end
        exposed: list[int] = []
        cover = -1
        for row in sorted(set(rows)):
            if row >= cover:
                exposed.append(row)
                cover = end[row]
        return exposed

    @traced("engine.aggregate-exposed")
    def aggregate_exposed(
        self, instances: Sequence[CCTNode]
    ) -> tuple[MetricValues, MetricValues]:
        """Columnar twin of :func:`repro.core.attribution.aggregate_exposed`.

        Returns sparse ``(inclusive, exclusive)`` aggregates over the
        exposed subset.  The accumulation runs in *input* instance order
        (an exposed node that appears twice counts twice), exactly like the
        dict path, so the two backends agree bit-for-bit.
        """
        rows = [self.row_of(node) for node in instances]
        exposed = set(self.exposed_rows(rows))
        incl = np.zeros(self.num_metrics)
        excl = np.zeros(self.num_metrics)
        for row in rows:
            if row in exposed:
                incl += self.inclusive[row]
                excl += self.exclusive[row]
        return _sparse(incl), _sparse(excl)

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


def _sparse(vector: np.ndarray) -> MetricValues:
    """Dense vector → sparse dict, dropping exact zeros."""
    (mids,) = np.nonzero(vector)
    return {int(mid): float(vector[mid]) for mid in mids}


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
