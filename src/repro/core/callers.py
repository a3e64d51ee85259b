"""The Callers View (Section III-B) — a bottom-up view of calling contexts.

Each top-level entry is one procedure, aggregated over *all* contexts in
which it was called; beneath it, each level walks one step *up* the call
chains, apportioning the procedure's cost among its callers, its callers'
callers, and so on.  This is the view that answers "who is responsible
for the cost of ``MPI_Wait`` / ``memset`` across the whole program?".

Recursion is handled with the exposed-instance rule of Section IV-B: the
cost attributed to a (partial) caller chain is the sum over the matching
CCT instances that have no ancestor instance also matching — so a chain
of recursive calls is counted once.  For the Figure 1 program this yields
the exact numbers of Figure 2b (top-level g = inclusive 9, exclusive 4;
the recursive caller child g←g = inclusive 5).

Scalability: the view is constructed *lazily* (Section VII).  Building the
view materializes only the top-level procedure entries; caller chains are
expanded on demand, one level at a time: every row expanded at the same
depth is aggregated by one batched exposed-instance reduction.
``eager=True`` forces full construction, which the scalability
benchmarks use as the ablation baseline.
"""

from __future__ import annotations

from repro.core.cct import CCT, CCTKind
from repro.core.metrics import MetricTable
from repro.core.views import (
    LevelBuilder,
    LevelExpander,
    NodeCategory,
    View,
    ViewKind,
    ViewNode,
)

__all__ = ["CallersView"]


class CallersView(View):
    """Bottom-up (callee → callers) view over a canonical CCT.

    A lazy row's :class:`~repro.core.views.LevelExpander` payload is a
    pair of parallel lists: the original callee instances, and for each
    the frame reached so far while walking up its call chain.
    """

    kind = ViewKind.CALLERS

    def __init__(
        self, cct: CCT, metrics: MetricTable, eager: bool = False, engine=None
    ) -> None:
        super().__init__(
            _Builder(cct, metrics, engine),
            title="Callers View",
            totals=cct.root.inclusive,
        )
        self._eager = eager

    # ------------------------------------------------------------------ #
    def _build_roots(self) -> list[ViewNode]:
        builder = self._builder
        by_proc = self.cct.frames_by_procedure()
        values = builder.aggregate_exposed(list(by_proc.values()))
        roots = [
            ViewNode(
                name=proc.name,
                category=NodeCategory.PROCEDURE,
                inclusive=inclusive,
                exclusive=exclusive,
                struct=proc,
                line=proc.location.line,
                cct_nodes=frames,
                expander=LevelExpander(builder, (frames, frames)),
            )
            for (proc, frames), (inclusive, exclusive) in zip(
                by_proc.items(), values
            )
        ]
        if self._eager:
            level = roots
            while level:
                self.expand_rows(level)
                level = [child for row in level for child in row.children]
        return roots


class _Builder(LevelBuilder):
    """Callers rows: one level walks each payload's chains one caller up."""

    def expand_level(self, payloads: list) -> list[list[ViewNode]]:
        """Caller rows for every payload of one level.

        Each row's children group its entries by the procedure of the
        next caller up; all groups of the level are aggregated together.
        """
        per_row = []
        groups = []
        for instances, chain in payloads:
            # caller procedure -> (instances, caller frames, call lines)
            by_proc: dict = {}
            for instance, frame in zip(instances, chain):
                site = frame.parent
                caller = site.enclosing_frame if site is not None else None
                if caller is None:
                    continue  # chain reached an entry point; nothing above
                entry = by_proc.get(caller.struct)
                if entry is None:
                    entry = by_proc[caller.struct] = ([], [], set())
                entry[0].append(instance)
                entry[1].append(caller)
                if site.kind is CCTKind.CALL_SITE:
                    file = site.struct.location.file if site.struct is not None else ""
                    entry[2].add((file, site.line))
            per_row.append(by_proc)
            groups.extend(entry[0] for entry in by_proc.values())
        values = iter(self.aggregate_exposed(groups))
        levels = []
        for by_proc in per_row:
            rows: list[ViewNode] = []
            for proc, (instances, callers, call_lines) in by_proc.items():
                inclusive, exclusive = next(values)
                sites = sorted(call_lines)
                rows.append(
                    ViewNode(
                        name=proc.name,
                        category=NodeCategory.CALLER,
                        inclusive=inclusive,
                        exclusive=exclusive,
                        struct=proc,
                        line=sites[0][1] if sites else proc.location.line,
                        file=sites[0][0] if sites else proc.location.file,
                        cct_nodes=instances,
                        expander=LevelExpander(self, (instances, callers)),
                    )
                )
            levels.append(rows)
        return levels

    def has_children(self, payload) -> bool:
        _instances, chain = payload
        return any(
            frame.parent is not None and frame.parent.enclosing_frame is not None
            for frame in chain
        )
