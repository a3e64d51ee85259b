"""The Calling Context View (Section III-A).

A top-down presentation of the canonical CCT: dynamic calling contexts
interleaved with static structure (loops, inlined code, statements).

Call-site / callee fusion
-------------------------
Following Section V-B, a call site and its callee are presented on a
*single* row: the row's inclusive cost is the inclusive cost attributed to
the callee in that context; its exclusive cost is the callee's own
(frame-exclusive) cost plus any cost associated with the call-site line
itself.  The paper reports this halves the length of displayed call
chains; ``fused=False`` reproduces the earlier two-line design so the
claim can be measured (see ``benchmarks/bench_fusion.py``).

Rows are materialized lazily so opening a view over a huge CCT touches
only the expanded prefix.  A lazy row's
:class:`~repro.core.views.LevelExpander` payload is the CCT scope whose
children it shows.
"""

from __future__ import annotations

from repro.core.cct import CCT, CCTKind, CCTNode
from repro.core.metrics import MetricTable, MetricValues, add_into
from repro.core.views import (
    LevelBuilder,
    LevelExpander,
    NodeCategory,
    View,
    ViewKind,
    ViewNode,
)

__all__ = ["CallingContextView"]

_CATEGORY = {
    CCTKind.FRAME: NodeCategory.PROCEDURE_FRAME,
    CCTKind.CALL_SITE: NodeCategory.CALL_SITE,
    CCTKind.LOOP: NodeCategory.LOOP,
    CCTKind.STATEMENT: NodeCategory.STATEMENT,
    CCTKind.ROOT: NodeCategory.ROOT,
}


class CallingContextView(View):
    """Top-down view over a canonical CCT."""

    kind = ViewKind.CALLING_CONTEXT

    def __init__(
        self, cct: CCT, metrics: MetricTable, fused: bool = True, engine=None
    ) -> None:
        super().__init__(
            _Builder(cct, metrics, engine, fused),
            title="Calling Context View",
            totals=cct.root.inclusive,
        )

    @property
    def fused(self) -> bool:
        """Whether call sites and callees share one row (Section V-B)."""
        return self._builder.fused

    def _build_roots(self) -> list[ViewNode]:
        return self._builder.rows_for(self.cct.root.children)


class _Builder(LevelBuilder):
    """Calling Context rows: one level is the CCT children of its payloads."""

    def __init__(self, cct: CCT, metrics: MetricTable, engine, fused: bool) -> None:
        super().__init__(cct, metrics, engine)
        self.fused = fused

    def rows_for(self, cct_children: list[CCTNode]) -> list[ViewNode]:
        rows: list[ViewNode] = []
        for node in cct_children:
            if node.kind is CCTKind.CALL_SITE and self.fused:
                rows.extend(self._fused_rows(node))
            else:
                rows.append(self._plain_row(node))
        return rows

    def expand_level(self, payloads: list[CCTNode]) -> list[list[ViewNode]]:
        return [self.rows_for(node.children) for node in payloads]

    def has_children(self, node: CCTNode) -> bool:
        for child in node.children:
            if child.kind is not CCTKind.CALL_SITE or not self.fused:
                return True  # a plain row
            if child.children or child.raw:
                return True  # callee rows, or the sampled call line itself
        return False

    # ------------------------------------------------------------------ #
    def _plain_row(self, node: CCTNode) -> ViewNode:
        category = _CATEGORY[node.kind]
        if (
            node.kind is CCTKind.LOOP
            and node.struct is not None
            and node.struct.kind.is_inlined
        ):
            category = NodeCategory.INLINED
        struct = node.struct
        has_source = not (
            struct is not None
            and struct.location.file.startswith("<unknown")
        )
        return ViewNode(
            name=node.name,
            category=category,
            inclusive=node.inclusive,
            exclusive=node.exclusive,
            struct=struct,
            line=node.line or (struct.location.line if struct is not None else 0),
            cct_nodes=[node],
            expander=LevelExpander(self, node),
            has_source=has_source,
        )

    def _fused_rows(self, site: CCTNode) -> list[ViewNode]:
        """One row per callee frame under a call site, fused per Section V-B."""
        frames = [c for c in site.children if c.kind is CCTKind.FRAME]
        others = [c for c in site.children if c.kind is not CCTKind.FRAME]
        rows: list[ViewNode] = []
        for frame in frames:
            exclusive: MetricValues = dict(frame.exclusive)
            add_into(exclusive, site.raw)  # cost at the call instruction itself
            struct = frame.struct
            has_source = not (
                struct is not None and struct.location.file.startswith("<unknown")
            )
            rows.append(
                ViewNode(
                    name=frame.name,
                    category=NodeCategory.CALL_SITE,
                    inclusive=frame.inclusive,
                    exclusive=exclusive,
                    struct=struct,
                    line=site.line,
                    file=site.struct.location.file if site.struct is not None else "",
                    cct_nodes=[site, frame],
                    expander=LevelExpander(self, frame),
                    has_source=has_source,
                )
            )
        # a sampled call line with no observed callee degenerates to a statement
        if not frames and site.raw:
            rows.append(self._plain_row(site))
        for other in others:  # pragma: no cover - malformed trees only
            rows.append(self._plain_row(other))
        return rows
