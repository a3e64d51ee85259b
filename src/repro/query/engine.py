"""Vectorized query evaluation over the columnar MetricEngine.

Everything on the hot path here is a numpy kernel over whole-tree
arrays — there is no per-node Python loop between "query parsed" and
"result materialized":

* **name masks** — scope names are deduplicated once per frame
  (``np.unique`` + inverse codes); a glob is matched against the small
  vocabulary and broadcast back through the codes;
* **category masks** — small-int code comparison over the engine's
  ``kinds`` (or the view's category codes);
* **metric predicates** — elementwise comparisons on engine matrix
  columns, with derived formulas evaluated vectorized over columns by
  the same AST :mod:`repro.core.derived` parses (division by zero and
  domain guards mirror the scalar evaluator element by element);
* **path matching** — a reachability sweep over the pattern: a normal
  step ANDs its mask with the parent-gathered reach of the previous
  step; a ``**`` gap turns the previous reach into a subtree cover via
  a difference-array cumsum over the engine's preorder extents
  (``subtree_end``), so ``A / ** / B`` costs two vector ops, not a
  graph search;
* **prune / squash** — the same subtree-cover kernel, negated, and a
  per-depth-level nearest-selected-ancestor sweep (O(depth) vector
  ops, the engine's level-order trick).

Three frame adapters feed those kernels: :class:`EngineFrame` sits
directly on a :class:`~repro.core.engine.MetricEngine` (in-memory,
``.rpdb``-loaded, and mmap ``.rpstore`` experiments all share it — the
matrices are the backend-uniformity guarantee); :class:`TreeFrame`
holds a tree given only as arrays and attributes it with the engine's
level kernel (a trace store's windowed queries, with no CCT built);
and :class:`ViewFrame` adapts a presentation view (callers/flat
aggregations, derived-metric cells) for queries run on a view, the
advisor, and the interactive viewer's ``find``.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import replace

import numpy as np

from repro.core.derived import (
    BinaryOp,
    Col,
    Func,
    Num,
    UnaryOp,
    parse_formula,
)
from repro.core.engine import (
    KIND_CALL_SITE,
    KIND_FRAME,
    KIND_LOOP,
    KIND_ROOT,
    KIND_STATEMENT,
    attribute_arrays,
    level_rows,
)
from repro.core.metrics import MetricFlavor, MetricKind, MetricSpec
from repro.errors import QueryError
from repro.query.lang import ANY_DEPTH, MetricPred, Query, Step
from repro.query.result import QueryResult

__all__ = ["EngineFrame", "TreeFrame", "ViewFrame", "build_frame", "run_query"]

#: engine kind code -> query category string (CCT-level vocabulary)
_KIND_CATEGORY = {
    KIND_ROOT: "root",
    KIND_FRAME: "frame",
    KIND_CALL_SITE: "call-site",
    KIND_LOOP: "loop",
    KIND_STATEMENT: "statement",
}

_FLAVOR_TAG = {"raw": "(R)", "inclusive": "(I)", "exclusive": "(E)"}

#: default node budget when walking a presentation view into a frame
DEFAULT_VIEW_NODES = 200_000


# --------------------------------------------------------------------- #
# vectorized derived-metric formulas
# --------------------------------------------------------------------- #
def _eval_formula_vector(expr, resolver) -> np.ndarray:
    """Evaluate a derived formula over whole columns.

    Mirrors :func:`repro.core.derived._eval` element by element —
    guarded division, ``^`` overflow to 0, and the same domain guards
    on ``sqrt``/``log`` — so a vectorized cell equals the scalar
    evaluator's cell bit for bit.
    """
    if isinstance(expr, Num):
        return expr.value  # scalars broadcast
    if isinstance(expr, Col):
        return resolver(expr.mid)
    if isinstance(expr, UnaryOp):
        return -_eval_formula_vector(expr.operand, resolver)
    if isinstance(expr, BinaryOp):
        left = _eval_formula_vector(expr.left, resolver)
        right = _eval_formula_vector(expr.right, resolver)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            right = np.asarray(right, dtype=np.float64)
            safe = np.where(right == 0.0, 1.0, right)
            out = np.asarray(left, dtype=np.float64) / safe
            return np.where(right == 0.0, 0.0, out)
        if expr.op == "^":
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.asarray(
                    np.power(np.asarray(left, dtype=np.float64), right),
                    dtype=np.float64,
                )
            return np.where(np.isfinite(out), out, 0.0)
    if isinstance(expr, Func):
        args = [_eval_formula_vector(a, resolver) for a in expr.args]
        name = expr.name
        if name == "abs":
            return np.abs(args[0])
        if name == "sqrt":
            x = np.asarray(args[0], dtype=np.float64)
            return np.where(x >= 0.0, np.sqrt(np.maximum(x, 0.0)), 0.0)
        if name in ("log", "log2", "log10"):
            x = np.asarray(args[0], dtype=np.float64)
            fn = {"log": np.log, "log2": np.log2, "log10": np.log10}[name]
            with np.errstate(divide="ignore", invalid="ignore"):
                out = fn(np.where(x > 0.0, x, 1.0))
            return np.where(x > 0.0, out, 0.0)
        if name == "exp":
            return np.exp(args[0])
        if name == "floor":
            return np.floor(args[0])
        if name == "ceil":
            return np.ceil(args[0])
        if name == "min":
            return np.minimum(args[0], args[1])
        if name == "max":
            return np.maximum(args[0], args[1])
    raise QueryError(f"cannot evaluate formula node {expr!r}")


# --------------------------------------------------------------------- #
# frames: the uniform columnar facade the kernels run on
# --------------------------------------------------------------------- #
class _FrameBase:
    """Shared kernels over the columnar arrays a backend provides.

    Subclasses populate ``n``, ``names`` (list[str]), ``parent`` /
    ``depth`` / ``end`` (int64 arrays; ``end`` is the preorder subtree
    extent), ``cat_codes`` (int16) + ``cat_names``, and ``metrics``,
    and implement :meth:`column` and :meth:`total`.
    """

    n: int
    names: list
    parent: np.ndarray
    depth: np.ndarray
    end: np.ndarray
    cat_codes: np.ndarray
    cat_names: list

    def __init__(self) -> None:
        self._vocab = None
        self._glob_cache: dict[str, np.ndarray] = {}
        self._levels = None

    # -- name vocabulary ------------------------------------------------ #
    def _name_vocab(self):
        if self._vocab is None:
            arr = np.array(self.names, dtype=object)
            uniq, inv = np.unique(arr, return_inverse=True)
            self._vocab = (uniq, inv)
        return self._vocab

    def name_mask(self, glob: str) -> np.ndarray:
        """Boolean row mask of scopes whose name matches *glob*."""
        cached = self._glob_cache.get(glob)
        if cached is not None:
            return cached
        uniq, inv = self._name_vocab()
        if glob == "*":
            mask = np.ones(self.n, dtype=bool)
        elif not any(ch in glob for ch in "*?["):
            hits = uniq == glob
            mask = hits[inv] if hits.any() else np.zeros(self.n, dtype=bool)
        else:
            pattern = re.compile(fnmatch.translate(glob))
            hits = np.fromiter(
                (pattern.match(name) is not None for name in uniq),
                dtype=bool, count=len(uniq),
            )
            mask = hits[inv]
        self._glob_cache[glob] = mask
        return mask

    # -- categories ----------------------------------------------------- #
    def category_mask(self, categories: tuple[str, ...]) -> np.ndarray:
        codes = [i for i, name in enumerate(self.cat_names)
                 if name in categories]
        if not codes:
            return np.zeros(self.n, dtype=bool)
        return np.isin(self.cat_codes, codes)

    # -- metric columns ------------------------------------------------- #
    def column(self, mid: int, flavor: str) -> np.ndarray:
        raise NotImplementedError

    def total(self, mid: int) -> float:
        raise NotImplementedError

    def resolve_metric(self, metric) -> int:
        if isinstance(metric, bool) or not isinstance(metric, (int, str)):
            raise QueryError(f"bad metric selector {metric!r}")
        if isinstance(metric, int):
            return self.metrics.by_id(metric).mid
        return self.metrics.by_name(metric).mid

    def predicate_mask(self, pred: MetricPred) -> np.ndarray:
        mid = self.resolve_metric(pred.metric)
        col = self.column(mid, pred.flavor)
        if pred.share:
            total = self.total(mid)
            col = col / total if total else np.zeros(self.n)
        op = pred.op
        if op == "<":
            return col < pred.value
        if op == "<=":
            return col <= pred.value
        if op == ">":
            return col > pred.value
        if op == ">=":
            return col >= pred.value
        if op == "==":
            return col == pred.value
        return col != pred.value

    # -- composite step mask -------------------------------------------- #
    def step_mask(self, step: Step) -> np.ndarray:
        mask = self.name_mask(step.name)
        if step.category:
            mask = mask & self.category_mask(step.category)
        for pred in step.where:
            mask = mask & self.predicate_mask(pred)
        return mask

    # -- tree kernels ---------------------------------------------------- #
    def cover(self, mask: np.ndarray, strict: bool = False) -> np.ndarray:
        """Rows inside the subtree of any masked row (self excluded when
        *strict*) — a difference-array cumsum over preorder extents."""
        rows = np.flatnonzero(mask)
        if not len(rows):
            return np.zeros(self.n, dtype=bool)
        delta = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(delta, rows + 1 if strict else rows, 1)
        np.add.at(delta, self.end[rows], -1)
        return np.cumsum(delta[: self.n]) > 0

    def _level_rows(self):
        """Rows grouped by depth, shallowest first (cached)."""
        if self._levels is None:
            self._levels = level_rows(self.depth)
        return self._levels

    def nearest_selected_ancestor(self, sel: np.ndarray) -> np.ndarray:
        """Per row, the closest *strict* ancestor in ``sel`` (-1 if none)."""
        near = np.full(self.n, -1, dtype=np.int64)
        for rows in self._level_rows():
            par = self.parent[rows]
            valid = par >= 0
            vrows, vpar = rows[valid], par[valid]
            near[vrows] = np.where(sel[vpar], vpar, near[vpar])
        return near

    def path(self, row: int) -> tuple[str, ...]:
        """Scope names from the root down to *row*."""
        names = []
        r = int(row)
        while r >= 0:
            names.append(self.names[r])
            r = int(self.parent[r])
        return tuple(reversed(names))


class _MatrixFrame(_FrameBase):
    """A frame over a tree's raw / inclusive / exclusive matrices.

    Rows are in preorder with engine kind codes as categories; measured
    metrics read matrix columns, derived metrics evaluate vectorized
    over them, and a total is the root's inclusive cell.
    """

    cat_names = [_KIND_CATEGORY[k] for k in sorted(_KIND_CATEGORY)]

    def _set_matrices(self, metrics, raw, inclusive, exclusive) -> None:
        self.metrics = metrics
        self._matrices = {"raw": raw, "inclusive": inclusive,
                          "exclusive": exclusive}
        self._derived_cache: dict[tuple[int, str], np.ndarray] = {}
        self._derived_guard: set[int] = set()

    def column(self, mid: int, flavor: str) -> np.ndarray:
        desc = self.metrics.by_id(mid)
        if desc.kind is MetricKind.DERIVED:
            return self._derived_column(desc, flavor)
        return self._matrices[flavor][:, mid]

    def _derived_column(self, desc, flavor: str) -> np.ndarray:
        key = (desc.mid, flavor)
        cached = self._derived_cache.get(key)
        if cached is not None:
            return cached
        if desc.mid in self._derived_guard:
            raise QueryError(
                f"cyclic derived-metric reference involving {desc.name!r}")
        self._derived_guard.add(desc.mid)
        try:
            out = np.asarray(
                _eval_formula_vector(
                    parse_formula(desc.formula),
                    resolver=lambda mid: self.column(mid, flavor),
                ),
                dtype=np.float64,
            )
            if out.ndim == 0:  # constant formula
                out = np.full(self.n, float(out))
        finally:
            self._derived_guard.discard(desc.mid)
        self._derived_cache[key] = out
        return out

    def total(self, mid: int) -> float:
        desc = self.metrics.by_id(mid)
        if desc.kind is MetricKind.DERIVED:
            from repro.core.derived import evaluate

            return evaluate(
                desc.formula,
                resolver=lambda other: self.total(other),
            )
        return float(self._matrices["inclusive"][0, mid])


class EngineFrame(_MatrixFrame):
    """A frame straight over an experiment's :class:`MetricEngine`.

    In-memory experiments, eager ``.rpdb`` loads, and mmap-backed
    ``.rpstore`` experiments all surface here through the same three
    matrices, which is what makes query results bit-identical across
    backends.
    """

    def __init__(self, experiment) -> None:
        super().__init__()
        engine = experiment.engine
        if engine is None:
            raise QueryError(
                "cannot query an experiment with no metrics")
        # no link back to *experiment*: its CCT caches this frame
        self.engine = engine
        self.n = len(engine.nodes)
        self.names = [node.name for node in engine.nodes]
        self.parent = engine.parent_rows
        self.depth = engine.depths
        self.end = engine.subtree_end
        self.cat_codes = engine.kinds
        self._set_matrices(experiment.metrics, engine.raw, engine.inclusive,
                           engine.exclusive)


class TreeFrame(_MatrixFrame):
    """A frame over a tree given only as arrays, with no CCT behind it.

    *names*, *parent*, *depth* and *kinds* (engine kind codes) describe
    the rows in preorder, root first; *raw* is the ``(rows x metrics)``
    raw matrix.  Eq. 1/2 run with the engine's level kernel
    (:func:`~repro.core.engine.attribute_arrays`), so the columns equal
    those of an :class:`EngineFrame` over a CCT of the same shape and
    raw values, bit for bit.  A trace store answers windowed queries
    with one of these.
    """

    def __init__(self, metrics, names, parent, depth, kinds,
                 raw) -> None:
        super().__init__()
        self.n = len(names)
        self.names = names
        self.parent = parent
        self.depth = depth
        self.cat_codes = kinds
        self._levels = level_rows(depth)
        sizes = np.ones(self.n, dtype=np.int64)
        for rows in reversed(self._levels[1:]):
            np.add.at(sizes, parent[rows], sizes[rows])
        self.end = np.arange(self.n, dtype=np.int64) + sizes
        inclusive, exclusive = attribute_arrays(parent, kinds,
                                                self._levels[1:], raw)
        self._set_matrices(metrics, raw, inclusive, exclusive)


class ViewFrame(_FrameBase):
    """A frame over a presentation view.

    Rows are the view's scopes in preorder — an explicit stack seeded
    with the roots reversed, capped at *max_nodes* total pops, so a
    lazily expanded view is materialized only that far.  Values go
    through :meth:`View.gather_columns`, which reads the engine
    matrices for measured metrics and evaluates derived cells per
    view — the same cells a rendered row shows.
    """

    def __init__(self, view, roots=None,
                 max_nodes: int = DEFAULT_VIEW_NODES) -> None:
        super().__init__()
        self.view = view
        self.metrics = view.metrics
        names: list[str] = []
        cats: list[str] = []
        parents: list[int] = []
        depths: list[int] = []
        nodes: list = []
        stack = [(root, -1, 0) for root in reversed(roots if roots is not None
                                                   else view.roots)]
        visited = 0
        self.truncated = False
        while stack:
            if visited >= max_nodes:
                self.truncated = True
                break
            node, parent_idx, depth = stack.pop()
            visited += 1
            idx = len(nodes)
            nodes.append(node)
            names.append(node.name)
            cats.append(node.category.value)
            parents.append(parent_idx)
            depths.append(depth)
            for child in reversed(node.children):
                stack.append((child, idx, depth + 1))
        self.n = len(nodes)
        self.nodes = nodes
        self.names = names
        self.parent = np.array(parents, dtype=np.int64)
        self.depth = np.array(depths, dtype=np.int64)
        cat_names: list[str] = []
        cat_index: dict[str, int] = {}
        codes = np.empty(self.n, dtype=np.int16)
        for i, cat in enumerate(cats):
            code = cat_index.get(cat)
            if code is None:
                code = cat_index[cat] = len(cat_names)
                cat_names.append(cat)
            codes[i] = code
        self.cat_codes = codes
        self.cat_names = cat_names
        # preorder subtree extents, folded bottom-up
        end = np.arange(1, self.n + 1, dtype=np.int64)
        for i in range(self.n - 1, 0, -1):
            p = parents[i]
            if p >= 0 and end[i] > end[p]:
                end[p] = end[i]
        self.end = end
        self._columns: dict[tuple[int, str], np.ndarray] = {}

    def column(self, mid: int, flavor: str) -> np.ndarray:
        if flavor == "raw":
            raise QueryError(
                "the 'raw' flavor is not defined on aggregated views; "
                "query the experiment directly instead")
        key = (mid, flavor)
        cached = self._columns.get(key)
        if cached is None:
            spec = MetricSpec(mid, MetricFlavor.INCLUSIVE
                              if flavor == "inclusive"
                              else MetricFlavor.EXCLUSIVE)
            cached = self.view.gather_columns(self.nodes, [spec])[:, 0]
            self._columns[key] = cached
        return cached

    def total(self, mid: int) -> float:
        return self.view.total(MetricSpec(mid, MetricFlavor.INCLUSIVE))


def build_frame(target):
    """The evaluation frame for any supported query target."""
    from repro.core.views import View

    if isinstance(target, _FrameBase):
        return target
    if isinstance(target, View):
        return ViewFrame(target)
    cct = getattr(target, "cct", None)
    if cct is not None and getattr(target, "metrics", None) is not None:
        engine = target.engine
        if engine is None:
            raise QueryError("cannot query an experiment with no metrics")
        cached = getattr(cct, "_query_frame", None)
        if cached is not None and cached.engine is engine:
            return cached
        frame = EngineFrame(target)
        try:
            cct._query_frame = frame
        except AttributeError:  # slotted tree: just skip the cache
            pass
        return frame
    if hasattr(target, "member") and hasattr(target, "names"):
        raise QueryError(
            "query one ensemble member at a time: pass "
            "ensemble.member(i) (or ensemble.member('mean'))")
    raise QueryError(f"cannot query {type(target).__name__!r}: expected an "
                     "experiment, a store-backed experiment, an ensemble "
                     "member, or a view")


# --------------------------------------------------------------------- #
# pattern matching
# --------------------------------------------------------------------- #
def match_mask(frame, pattern, universe: np.ndarray | None = None) -> np.ndarray:
    """Rows ending a path that matches *pattern* (a reachability sweep)."""
    reach = None
    gap = False
    for element in pattern:
        if element is ANY_DEPTH:
            gap = True
            continue
        mask = frame.step_mask(element)
        if universe is not None:
            mask = mask & universe
        if reach is None:
            reach = mask
        elif gap:
            reach = mask & frame.cover(reach, strict=True)
        else:
            carrier = np.zeros(frame.n, dtype=bool)
            valid = frame.parent >= 0
            carrier[valid] = reach[frame.parent[valid]]
            reach = mask & carrier
        gap = False
    if reach is None:  # unreachable: parse_pattern demands a concrete step
        reach = np.ones(frame.n, dtype=bool)
    if gap:  # trailing '**': everything under the matched rows
        reach = frame.cover(reach, strict=True)
        if universe is not None:
            reach = reach & universe
    return reach


# --------------------------------------------------------------------- #
# full evaluation
# --------------------------------------------------------------------- #
def _value_columns(frame, q: Query):
    """(labels, list of full columns) the query materializes."""
    if q.metrics is None:
        mids = [desc.mid for desc in frame.metrics]
    else:
        mids = [frame.resolve_metric(m) for m in q.metrics]
    labels: list[str] = []
    columns: list[np.ndarray] = []
    for mid in mids:
        name = frame.metrics.by_id(mid).name
        for flavor in q.flavors:
            labels.append(f"{name} {_FLAVOR_TAG[flavor]}")
            columns.append(frame.column(mid, flavor))
    return labels, columns


def run_query(q: Query, target) -> QueryResult:
    """Evaluate *q* against *target*; the engine behind ``Query.run``."""
    if hasattr(target, "window_experiment"):
        # trace-capable target (TraceSet / TraceStore): evaluate the rest
        # of the query on the window — the whole trace when the query is
        # untimed.  A store answers with a frame built straight from its
        # tick sums; the in-memory trace materializes the windowed CCT
        t0, t1 = q.time_window if q.time_window is not None else (None, None)
        window_frame = getattr(target, "window_frame", None)
        target = (window_frame(t0, t1) if window_frame is not None
                  else target.window_experiment(t0, t1))
        q = replace(q, time_window=None)
    elif q.time_window is not None:
        raise QueryError(
            "window() requires a trace-capable target (a TraceSet or an "
            "opened trace store); this target carries no time dimension")
    frame = build_frame(target)
    n = frame.n
    universe = np.ones(n, dtype=bool)
    sel: np.ndarray | None = None
    squash = False
    group_key: str | None = None
    for kind, payload in q.ops:
        if kind == "match":
            mask = match_mask(frame, payload, universe)
            sel = mask if sel is None else (sel & mask)
        elif kind == "filter":
            mask = frame.step_mask(payload) & universe
            sel = mask if sel is None else (sel & mask)
        elif kind == "prune":
            hit = match_mask(frame, payload, universe)
            universe &= ~frame.cover(hit, strict=False)
            if sel is not None:
                sel &= universe
        elif kind == "squash":
            squash = True
        else:  # groupby
            group_key = payload
    sel = universe.copy() if sel is None else (sel & universe)
    rows = np.flatnonzero(sel)

    labels, columns = _value_columns(frame, q)
    values = (np.stack([col[rows] for col in columns], axis=1)
              if columns else np.zeros((len(rows), 0)))

    if group_key is not None:
        return _grouped_result(frame, q, rows, labels, values, group_key)

    names = tuple(frame.names[r] for r in rows)
    categories = tuple(frame.cat_names[c] for c in frame.cat_codes[rows])
    depths = frame.depth[rows]
    parents = None
    if squash:
        near = frame.nearest_selected_ancestor(sel)
        sq_depth = np.full(n, -1, dtype=np.int64)
        for level in frame._level_rows():
            lsel = level[sel[level]]
            if not len(lsel):
                continue
            anc = near[lsel]
            sq_depth[lsel] = np.where(anc >= 0, sq_depth[anc] + 1, 0)
        depths = sq_depth[rows]
        result_index = np.full(n, -1, dtype=np.int64)
        result_index[rows] = np.arange(len(rows))
        anc = near[rows]
        parents = np.where(anc >= 0, result_index[anc], -1)

    order, truncated = _order_and_limit(frame, q, rows, labels, values)
    if order is not None:
        names = tuple(names[i] for i in order)
        categories = tuple(categories[i] for i in order)
        depths = depths[order]
        values = values[order]
        rows = rows[order]
        if parents is not None:
            # old result index -> new position (-1 when dropped by limit)
            inverse = np.full(len(parents), -1, dtype=np.int64)
            inverse[order] = np.arange(len(order))
            old_parents = parents[order]
            parents = np.where(
                old_parents >= 0,
                inverse[np.clip(old_parents, 0, None)],
                -1,
            )

    return QueryResult(
        names=names,
        depths=np.ascontiguousarray(depths, dtype=np.int64),
        labels=tuple(labels),
        values=np.ascontiguousarray(values, dtype=np.float64),
        categories=categories,
        rows=np.ascontiguousarray(rows, dtype=np.int64),
        parents=(np.ascontiguousarray(parents, dtype=np.int64)
                 if parents is not None else None),
        truncated=truncated,
    )


def _order_and_limit(frame, q: Query, rows, labels, values):
    """(permutation | None, truncated) applying sort + limit."""
    m = len(rows)
    order = None
    if q.sort_by is not None:
        metric, flavor, descending = q.sort_by
        if metric is None:
            if not labels:
                raise QueryError("sort() needs a metric column")
            col = values[:, 0]
        else:
            mid = frame.resolve_metric(metric)
            label = f"{frame.metrics.by_id(mid).name} {_FLAVOR_TAG[flavor]}"
            if label in labels:
                col = values[:, labels.index(label)]
            else:
                col = frame.column(mid, flavor)[rows]
        order = (np.argsort(-col, kind="stable") if descending
                 else np.argsort(col, kind="stable"))
    truncated = 0
    if q.row_limit is not None and m > q.row_limit:
        truncated = m - q.row_limit
        order = (order[: q.row_limit] if order is not None
                 else np.arange(q.row_limit))
    return order, truncated


def _grouped_result(frame, q: Query, rows, labels, values,
                    key: str) -> QueryResult:
    """Aggregate the selected rows by a group key (vectorized sums)."""
    if key == "name":
        raw_keys = np.array([frame.names[r] for r in rows], dtype=object)
    elif key == "category":
        raw_keys = np.array(
            [frame.cat_names[c] for c in frame.cat_codes[rows]], dtype=object)
    else:  # depth
        raw_keys = frame.depth[rows]
    if len(rows):
        uniq, inverse = np.unique(raw_keys, return_inverse=True)
    else:
        uniq, inverse = np.array([], dtype=object), np.array([], dtype=np.int64)
    sums = np.zeros((len(uniq), values.shape[1]), dtype=np.float64)
    if len(rows):
        np.add.at(sums, inverse, values)
    names = tuple(str(k) for k in uniq)
    categories = names if key == "category" else ()
    depths = (np.asarray(uniq, dtype=np.int64) if key == "depth"
              else np.zeros(len(uniq), dtype=np.int64))

    truncated = 0
    if q.sort_by is not None:
        metric, flavor, descending = q.sort_by
        if metric is None:
            if not labels:
                raise QueryError("sort() needs a metric column")
            col = sums[:, 0]
        else:
            mid = frame.resolve_metric(metric)
            label = f"{frame.metrics.by_id(mid).name} {_FLAVOR_TAG[flavor]}"
            if label not in labels:
                raise QueryError(
                    f"sort column {label!r} is not selected; grouped "
                    "results can only sort by an aggregated column")
            col = sums[:, labels.index(label)]
        order = (np.argsort(-col, kind="stable") if descending
                 else np.argsort(col, kind="stable"))
        names = tuple(names[i] for i in order)
        if categories:
            categories = tuple(categories[i] for i in order)
        depths = depths[order]
        sums = sums[order]
    if q.row_limit is not None and len(names) > q.row_limit:
        truncated = len(names) - q.row_limit
        names = names[: q.row_limit]
        if categories:
            categories = categories[: q.row_limit]
        depths = depths[: q.row_limit]
        sums = sums[: q.row_limit]
    return QueryResult(
        names=names,
        depths=np.ascontiguousarray(depths, dtype=np.int64),
        labels=tuple(labels),
        values=np.ascontiguousarray(sums, dtype=np.float64),
        categories=categories,
        rows=None,
        parents=None,
        truncated=truncated,
    )
