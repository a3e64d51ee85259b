"""Common infrastructure for the three presentation views.

A *view* is a tree (or forest) of :class:`ViewNode`\\ s over the metric
space of one experiment.  The three concrete views — Calling Context
(:mod:`repro.core.ccview`), Callers (:mod:`repro.core.callers`) and Flat
(:mod:`repro.core.flat`) — differ only in how nodes are derived from the
canonical CCT; presentation machinery (sorting, hot-path expansion,
rendering, derived-metric columns) is shared and operates on this
interface.

Scalability: a ``ViewNode`` may be *lazy* — its children are produced by
an expander callback on first access (Section VII: "the Callers View is
constructed dynamically … we store and process data only when needed").
The three views make the unit of laziness a *level*: their rows carry a
:class:`LevelExpander`, and :meth:`View.expand_rows` builds the children
of every pending row of one level together — for the Callers and Flat
views with a single batched exposed-instance aggregation (expanding one
row is a level of one).

Ownership: a view owns its rows and a row owns its children; a row's
link to its parent is weak, and a :class:`LevelExpander` holds the
view's :class:`LevelBuilder` — the CCT, engine and metric table, with
nothing pointing back at rows — never the view itself.  So a view holds
no reference cycle and is freed by reference counting when dropped, and
rows kept past their view still expand.  A row is valid while its owner
lives: once its parent row is gone, :attr:`ViewNode.parent` raises
:class:`~repro.errors.ViewError`.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence
from weakref import ref

from repro.errors import ViewError
from repro.core.metrics import (
    MetricFlavor,
    MetricKind,
    MetricSpec,
    MetricTable,
    MetricValues,
)

__all__ = [
    "ViewKind",
    "NodeCategory",
    "ViewNode",
    "View",
    "LevelBuilder",
    "LevelExpander",
]


class ViewKind(Enum):
    CALLING_CONTEXT = "calling-context"
    CALLERS = "callers"
    FLAT = "flat"


class NodeCategory(Enum):
    """What a view node represents — drives display icons and semantics."""

    ROOT = "root"
    LOAD_MODULE = "load-module"
    FILE = "file"
    PROCEDURE = "procedure"
    PROCEDURE_FRAME = "frame"
    CALLER = "caller"            # a caller entry in the Callers View
    CALL_SITE = "call-site"      # fused call-site/callee line
    LOOP = "loop"
    INLINED = "inlined"
    STATEMENT = "statement"


class ViewNode:
    """One row of a view's navigation pane plus its metric values."""

    __slots__ = (
        "name",
        "category",
        "struct",
        "line",
        "file",
        "inclusive",
        "exclusive",
        "_parent",
        "cct_nodes",
        "_children",
        "_expander",
        "has_source",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        category: NodeCategory,
        inclusive: MetricValues | None = None,
        exclusive: MetricValues | None = None,
        struct=None,
        line: int = 0,
        file: str = "",
        parent: Optional["ViewNode"] = None,
        cct_nodes: Sequence | None = None,
        expander: Callable[["ViewNode"], list["ViewNode"]] | None = None,
        has_source: bool = True,
    ) -> None:
        self.name = name
        self.category = category
        self.struct = struct
        self.line = line
        self.file = file or (struct.location.file if struct is not None else "")
        self.inclusive: MetricValues = inclusive if inclusive is not None else {}
        self.exclusive: MetricValues = exclusive if exclusive is not None else {}
        self._parent: ref | None = ref(parent) if parent is not None else None
        #: underlying CCT scopes this row aggregates (drill-down support)
        self.cct_nodes = list(cct_nodes) if cct_nodes else []
        self._children: list[ViewNode] | None = None
        self._expander = expander
        #: False for binary-only scopes shown "in plain black" (no source)
        self.has_source = has_source

    # ------------------------------------------------------------------ #
    @property
    def parent(self) -> Optional["ViewNode"]:
        """The enclosing row; None only for a root row."""
        link = self._parent
        if link is None:
            return None
        node = link()
        if node is None:
            raise ViewError(
                f"the parent of row {self.name!r} was dropped with its view; "
                f"keep the view alive while walking up from its rows"
            )
        return node

    @property
    def children(self) -> list["ViewNode"]:
        """Child rows; lazily constructed on first access."""
        if self._children is None:
            if self._expander is None:
                self._children = []
            else:
                expander, self._expander = self._expander, None
                self.set_children(expander(self))
        return self._children

    @property
    def is_expanded(self) -> bool:
        """True when children have been materialized (lazy-construction probe)."""
        return self._children is not None

    @property
    def is_leaf(self) -> bool:
        """True when the node is known to have no children.

        For unexpanded lazy nodes this forces expansion — callers that only
        want a cheap hint should check :attr:`is_expanded` first.
        """
        return not self.children

    def set_children(self, children: list["ViewNode"]) -> None:
        self._children = list(children)
        link = ref(self)
        for child in self._children:
            child._parent = link

    def value(self, spec: MetricSpec) -> float:
        """The value of one metric column at this row (0.0 when absent)."""
        source = (
            self.inclusive if spec.flavor is MetricFlavor.INCLUSIVE else self.exclusive
        )
        return source.get(spec.mid, 0.0)

    def walk(self, max_depth: int | None = None) -> Iterator["ViewNode"]:
        """Preorder traversal; expands lazy children as it goes."""
        stack: list[tuple[ViewNode, int]] = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            yield node
            if max_depth is None or depth < max_depth:
                stack.extend((c, depth + 1) for c in reversed(node.children))

    def ancestors(self) -> Iterator["ViewNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    @property
    def depth(self) -> int:
        return sum(1 for _ in self.ancestors())

    def location(self) -> str:
        if self.file and self.line:
            return f"{self.file}:{self.line}"
        return self.file

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ViewNode {self.category.value} {self.name!r}>"


class LevelBuilder:
    """Everything a view's lazy rows need to build their children.

    Holds the backing CCT, the metric table, the optional columnar
    engine and (in subclasses) the view's options — and nothing that
    points back at rows, so rows that hold it through their
    :class:`LevelExpander` form no cycle with their view.  Each of the
    three views subclasses it with its own level rules.
    """

    def __init__(self, cct, metrics: MetricTable, engine=None) -> None:
        self.cct = cct
        self.metrics = metrics
        self.engine = engine

    def aggregate_exposed(
        self, groups: Sequence[Sequence]
    ) -> list[tuple[MetricValues, MetricValues]]:
        """Exposed-instance aggregates of a level's row groups (Sec. IV-B).

        One ``(inclusive, exclusive)`` pair per group of CCT instances.
        With a columnar engine attached the whole level is one batched
        kernel call (bit-identical results; see the engine's docstring),
        else each group goes through the dict-path reference in
        :mod:`repro.core.attribution`.
        """
        if not groups:
            return []
        if self.engine is None:
            from repro.core.attribution import aggregate_exposed

            return [aggregate_exposed(group) for group in groups]
        rows: list[int] = []
        offsets = [0]
        rows_of = self.engine.rows_of
        for group in groups:
            rows.extend(rows_of(group))
            offsets.append(len(rows))
        return self.engine.aggregate_exposed(rows, offsets)

    def expand_level(self, payloads: list) -> list[list[ViewNode]]:
        """Children of each :class:`LevelExpander` payload of one level."""
        raise NotImplementedError  # pragma: no cover - level views only

    def has_children(self, payload) -> bool:
        """Whether a payload would expand to any row, from structure only."""
        raise NotImplementedError  # pragma: no cover - level views only


class LevelExpander:
    """A lazy row's children, built together with the rest of its level.

    *payload* is whatever the view's *builder* needs to derive the row's
    children: the CCT scope whose children a Calling Context row shows,
    the CCT instances a Callers or Flat row aggregates.
    Called as an ordinary expander it builds one row's children as a
    level of one; :meth:`View.expand_rows` instead collects the payloads
    of a whole level and builds all of their children at once.
    """

    __slots__ = ("builder", "payload")

    def __init__(self, builder: LevelBuilder, payload) -> None:
        self.builder = builder
        self.payload = payload

    def __call__(self, row: ViewNode) -> list[ViewNode]:
        return self.builder.expand_level([self.payload])[0]


class View:
    """Base class for the three views: a forest of rows over one metric table.

    *builder* is the view's :class:`LevelBuilder`, which carries the
    metric table and engine; lazy rows expand through it, not through
    the view.
    """

    kind: ViewKind

    def __init__(
        self,
        builder: LevelBuilder,
        title: str = "",
        totals: MetricValues | None = None,
    ) -> None:
        self._builder = builder
        self.title = title or type(self).__name__
        #: experiment-aggregate inclusive totals (percentage denominators);
        #: normally the CCT root's inclusive vector
        self.totals: MetricValues = dict(totals) if totals else {}
        self._roots: list[ViewNode] | None = None
        #: guards lazy root construction under concurrent first access
        #: (the analysis server renders one view from many threads)
        self._build_lock = threading.Lock()
        #: derived metrics currently being evaluated (cycle detection)
        self._eval_guard: set[int] = set()
        #: per-view memo of evaluated derived cells, keyed by
        #: ``(id(row), mid, flavor)``.  Derived values must NOT be cached
        #: in a row's own metric dicts: view rows alias the underlying
        #: CCT nodes' vectors, so a write there would leak the derived
        #: column into every other view's raw aggregation of the same
        #: scopes (an order-dependence the server's stateful equivalence
        #: suite caught).  Rows are reachable from ``_roots``, so the
        #: ``id()`` keys stay unique for the cache's lifetime.
        self._derived_cache: dict[tuple[int, int, MetricFlavor], float] = {}

    # -- to be provided by subclasses ----------------------------------- #
    def _build_roots(self) -> list[ViewNode]:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- the build context, held only by the builder -------------------- #
    @property
    def cct(self):
        """The backing canonical CCT."""
        return self._builder.cct

    @property
    def metrics(self) -> MetricTable:
        """The metric table the view's columns come from."""
        return self._builder.metrics

    @property
    def engine(self):
        """Optional columnar :class:`~repro.core.engine.MetricEngine` over
        the backing CCT; when present, ``total`` and ``sorted_children``
        read measured columns from its matrices instead of the dicts."""
        return self._builder.engine

    # ------------------------------------------------------------------ #
    @property
    def roots(self) -> list[ViewNode]:
        if self._roots is None:
            with self._build_lock:
                if self._roots is None:
                    self._roots = self._build_roots()
        return self._roots

    def invalidate(self) -> None:
        """Drop materialized rows (e.g. after adding a derived metric)."""
        self._roots = None
        self._derived_cache.clear()

    def expand_rows(self, rows: Sequence[ViewNode]) -> None:
        """Materialize the children of *rows*, one level, in one batch.

        Rows carrying one of this view's :class:`LevelExpander`\\ s are
        built together by :meth:`LevelBuilder.expand_level`; any other lazy
        row materializes on its own when its ``children`` are first read.
        """
        builder = self._builder
        pending: list[ViewNode] = []
        payloads = []
        for row in rows:
            expander = row._expander
            if (
                row._children is None
                and isinstance(expander, LevelExpander)
                and expander.builder is builder
            ):
                pending.append(row)
                payloads.append(expander.payload)
        if pending:
            for row, children in zip(pending, builder.expand_level(payloads)):
                row._expander = None
                row.set_children(children)

    def has_children(self, row: ViewNode) -> bool:
        """Whether *row* has child rows, without building them when the
        view can answer from structure alone (the ``+`` marker probe)."""
        expander = row._expander
        if row._children is None and isinstance(expander, LevelExpander):
            return expander.builder.has_children(expander.payload)
        return bool(row.children)

    def value(self, node: ViewNode, spec: MetricSpec) -> float:
        """The value of a metric column at a row, evaluating derived metrics.

        Measured metrics come straight from the row's aggregated values.
        Derived metrics are evaluated *per row* from the row's own column
        values (so ratios are ratios of aggregates, not aggregates of
        ratios), in the same inclusive/exclusive flavour as the requested
        cell, and memoized per view (never written back into the row's
        metric dicts, which may be shared with other views — see
        ``_derived_cache``).
        """
        desc = self.metrics.by_id(spec.mid)
        if desc.kind is not MetricKind.DERIVED:
            return node.value(spec)
        store = (
            node.inclusive
            if spec.flavor is MetricFlavor.INCLUSIVE
            else node.exclusive
        )
        if spec.mid in store:
            # pre-materialized (e.g. summary columns from a database)
            return store[spec.mid]
        cache_key = (id(node), spec.mid, spec.flavor)
        cached = self._derived_cache.get(cache_key)
        if cached is not None:
            return cached
        from repro.core.derived import evaluate  # local import: avoid cycle

        active = self._eval_guard
        if spec.mid in active:
            raise ViewError(
                f"cyclic derived-metric reference involving {desc.name!r}"
            )
        active.add(spec.mid)
        try:
            result = evaluate(
                desc.formula,
                resolver=lambda mid: self.value(node, MetricSpec(mid, spec.flavor)),
            )
        finally:
            active.discard(spec.mid)
        self._derived_cache[cache_key] = result
        return result

    def value_getter(self, spec: MetricSpec) -> Callable[[ViewNode], float]:
        """``lambda row: self.value(row, spec)``, with the column resolved
        once instead of per cell (measured columns read the row's dict)."""
        if self.metrics.by_id(spec.mid).kind is MetricKind.DERIVED:
            return lambda row: self.value(row, spec)
        mid = spec.mid
        if spec.flavor is MetricFlavor.INCLUSIVE:
            return lambda row: row.inclusive.get(mid, 0.0)
        return lambda row: row.exclusive.get(mid, 0.0)

    def sorted_children(
        self, node: ViewNode | None, spec: MetricSpec, descending: bool = True
    ) -> list[ViewNode]:
        """Children of *node* (roots if None) ordered by a metric column.

        This implements the paper's rule that "scopes at each level of the
        nesting in the navigation pane are sorted according to the selected
        metric column".
        """
        rows = self.roots if node is None else node.children
        engine = self.engine
        if (
            engine is not None
            and len(rows) > 1
            and spec.mid < engine.num_metrics
            and self.metrics.by_id(spec.mid).kind is not MetricKind.DERIVED
        ):
            import numpy as np  # engine present implies numpy available

            values = engine.gather_view_values(rows, spec)
            # stable argsort on the negated column == sorted(reverse=True)
            order = np.argsort(-values if descending else values, kind="stable")
            return [rows[i] for i in order]
        return sorted(rows, key=lambda r: self.value(r, spec), reverse=descending)

    def gather_columns(self, rows: Sequence[ViewNode], specs: Sequence[MetricSpec]):
        """Metric cells for *rows* as a ``(len(rows), len(specs))`` matrix.

        The bulk serialization path: measured columns are gathered
        straight from the engine matrices (one fancy-index read per
        column, no per-row dict assembly); derived columns — and rows a
        view synthesized without engine backing — fall back to
        :meth:`value` cell by cell, so the matrix is always exactly what
        a row-at-a-time render would have shown.
        """
        import numpy as np  # deferred like sorted_children: numpy is
        # guaranteed wherever an engine exists, and the fallback path
        # only needs it for the output buffer

        out = np.empty((len(rows), len(specs)), dtype=np.float64)
        for j, spec in enumerate(specs):
            desc = self.metrics.by_id(spec.mid)
            if (
                self.engine is not None
                and spec.mid < self.engine.num_metrics
                and desc.kind is not MetricKind.DERIVED
            ):
                out[:, j] = self.engine.gather_view_values(rows, spec)
            else:
                for i, row in enumerate(rows):
                    out[i, j] = self.value(row, spec)
        return out

    def total(self, spec: MetricSpec) -> float:
        """Aggregate total of a column — the denominator for percentages."""
        desc = self.metrics.by_id(spec.mid)
        if desc.kind is MetricKind.DERIVED:
            from repro.core.derived import evaluate  # local import: avoid cycle

            return evaluate(
                desc.formula,
                resolver=lambda mid: self.total(MetricSpec(mid, spec.flavor)),
            )
        if self.totals:
            return self.totals.get(spec.mid, 0.0)
        if self.engine is not None and spec.mid < self.engine.num_metrics:
            return self.engine.total(spec.mid)
        incl = MetricSpec(spec.mid, MetricFlavor.INCLUSIVE)
        return sum(self.value(r, incl) for r in self.roots)

    def find(self, name: str, category: NodeCategory | None = None) -> ViewNode:
        """Depth-first search for a row by display name (testing helper)."""
        for root in self.roots:
            for node in root.walk():
                if node.name == name and (category is None or node.category is category):
                    return node
        raise ViewError(f"no row named {name!r} in {self.title}")

    def find_all(self, name: str) -> list[ViewNode]:
        out = []
        for root in self.roots:
            out.extend(n for n in root.walk() if n.name == name)
        return out
