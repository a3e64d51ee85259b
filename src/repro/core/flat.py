"""The Flat View (Section III-C) — costs correlated to static structure.

All costs a procedure incurs in *any* calling context are aggregated onto
the static hierarchy: load module → file → procedure → loop nests /
inlined code → statements.  Call sites inside a procedure appear fused
with their callee (inclusive = the callee's cost over every context
reaching that call site), so the view answers "what does this source line
cost in total?".

Aggregation rules (matching Figure 2c exactly):

* a **procedure** row sums the attributed values of its *exposed* frame
  instances (``g`` = inclusive 9, exclusive 4 despite three instances);
* **file / load-module / root** rows take inclusive values from the
  exposed subset of all frames below them (``file2`` = 9: ``h``'s cost is
  already inside ``g``'s) and exclusive values as the plain sum of their
  children's exclusives (``file2`` = 8 = g:4 + h:4);
* **loops and statements** aggregate the matching CCT scopes across all
  contexts, again exposure-filtered so recursive contexts count once;
* a **call-site** row fused with callee ``c`` shows the exposed sum of the
  callee frames reached from that line; with ``fused=False`` it shows the
  rule-1 dynamic-scope values instead — inclusive = cost at the line plus
  callee cost, exclusive = only the cost of the invocation itself (the
  node ``h_y`` of Figure 2c).

Flattening (Section III-C): :meth:`FlatView.flatten` elides the current
root level and shows its children instead — leaves are kept — which lets
an analyst compare loops across different routines directly.
"""

from __future__ import annotations

from repro.core.cct import CCT, CCTKind, CCTNode
from repro.core.metrics import MetricTable, MetricValues, add_into, total
from repro.core.views import (
    LevelBuilder,
    LevelExpander,
    NodeCategory,
    View,
    ViewKind,
    ViewNode,
)
from repro.hpcstruct.model import StructKind, StructureNode

__all__ = ["FlatView"]


class FlatView(View):
    """Static (flat) view over a canonical CCT.

    A lazy procedure or loop row's :class:`~repro.core.views.LevelExpander`
    payload is the list of CCT scopes whose inner scopes it merges.
    """

    kind = ViewKind.FLAT

    def __init__(
        self,
        cct: CCT,
        metrics: MetricTable,
        fused: bool = True,
        show_load_modules: bool = False,
        engine=None,
    ) -> None:
        super().__init__(
            _Builder(cct, metrics, engine, fused),
            title="Flat View",
            totals=cct.root.inclusive,
        )
        #: when False, files are the top level (load modules elided), which
        #: matches the single-binary examples in the paper's figures.
        self.show_load_modules = show_load_modules
        self.flatten_depth = 0

    @property
    def fused(self) -> bool:
        """Whether call sites and callees share one row (Section V-B)."""
        return self._builder.fused

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build_roots(self) -> list[ViewNode]:
        builder = self._builder
        by_proc = self.cct.frames_by_procedure()
        files: dict[StructureNode, list[tuple[StructureNode, list[CCTNode]]]] = {}
        for proc, frames in by_proc.items():
            files.setdefault(proc.enclosing_file, []).append((proc, frames))
        modules: dict[StructureNode, list[StructureNode]] = {}
        for file_scope in files:
            lm = file_scope.parent if file_scope is not None else None
            modules.setdefault(lm, []).append(file_scope)
        file_frames = {
            file_scope: [f for _p, frames in procs for f in frames]
            for file_scope, procs in files.items()
        }
        lm_frames = {
            lm: [f for file_scope in scopes for f in file_frames[file_scope]]
            for lm, scopes in modules.items()
        } if self.show_load_modules else {}
        # procedure rows, then file and load-module inclusives: one batch
        values = iter(builder.aggregate_exposed(
            list(by_proc.values()) + list(file_frames.values())
            + list(lm_frames.values())
        ))
        proc_rows = {
            proc: builder.procedure_row(proc, frames, *next(values))
            for proc, frames in by_proc.items()
        }

        file_rows: dict[StructureNode, ViewNode] = {}
        for file_scope, procs in files.items():
            children = [proc_rows[proc] for proc, _frames in procs]
            exclusive: MetricValues = {}
            for row in children:
                add_into(exclusive, row.exclusive)
            file_row = ViewNode(
                name=file_scope.name if file_scope is not None else "<unknown file>",
                category=NodeCategory.FILE,
                inclusive=next(values)[0],
                exclusive=exclusive,
                struct=file_scope,
                cct_nodes=file_frames[file_scope],
            )
            file_row.set_children(children)
            file_rows[file_scope] = file_row

        if not self.show_load_modules:
            return list(file_rows.values())

        lm_rows: list[ViewNode] = []
        for lm, scopes in modules.items():
            children = [file_rows[file_scope] for file_scope in scopes]
            exclusive = {}
            for row in children:
                add_into(exclusive, row.exclusive)
            lm_row = ViewNode(
                name=lm.name if lm is not None else "<unknown load module>",
                category=NodeCategory.LOAD_MODULE,
                inclusive=next(values)[0],
                exclusive=exclusive,
                struct=lm,
                cct_nodes=lm_frames[lm],
            )
            lm_row.set_children(children)
            lm_rows.append(lm_row)
        return lm_rows

    # ------------------------------------------------------------------ #
    # flattening
    # ------------------------------------------------------------------ #
    def flatten(self) -> None:
        """Elide the current top level; show its children instead."""
        self.flatten_depth += 1

    def unflatten(self) -> None:
        if self.flatten_depth > 0:
            self.flatten_depth -= 1

    def current_roots(self) -> list[ViewNode]:
        """Roots after applying the current flattening depth.

        Flattening a leaf has no effect: leaves at the elided level are
        retained, so costs never disappear from the view.
        """
        rows = list(self.roots)
        for _ in range(self.flatten_depth):
            self.expand_rows(rows)
            nxt: list[ViewNode] = []
            changed = False
            for row in rows:
                children = row.children
                if children:
                    nxt.extend(children)
                    changed = True
                else:
                    nxt.append(row)
            rows = nxt
            if not changed:
                break
        return rows


class _Builder(LevelBuilder):
    """Flat rows: one level merges the inner scopes of each payload group."""

    def __init__(self, cct: CCT, metrics: MetricTable, engine, fused: bool) -> None:
        super().__init__(cct, metrics, engine)
        self.fused = fused

    def procedure_row(
        self,
        proc: StructureNode,
        frames: list[CCTNode],
        inclusive: MetricValues,
        exclusive: MetricValues,
    ) -> ViewNode:
        return ViewNode(
            name=proc.name,
            category=NodeCategory.PROCEDURE,
            inclusive=inclusive,
            exclusive=exclusive,
            struct=proc,
            line=proc.location.line,
            cct_nodes=frames,
            expander=LevelExpander(self, frames),
            has_source=not proc.location.file.startswith("<unknown"),
        )

    def expand_level(self, payloads: list) -> list[list[ViewNode]]:
        """Rows merging the inner scopes of each payload group, one level.

        Per group: loops (by structure), statements (by line), then
        call-site lines (by line, one row per callee procedure).  Every
        loop, statement and callee group of the level is aggregated in
        one batch; statements are leaves, so their exposed sum is their
        plain sum.
        """
        per_row = []
        groups: list[list[CCTNode]] = []
        for group in payloads:
            loops: dict[StructureNode, list[CCTNode]] = {}
            stmts: dict[int, list[CCTNode]] = {}
            sites: dict[int, list[CCTNode]] = {}
            for node in group:
                for child in node.children:
                    if child.kind is CCTKind.LOOP:
                        loops.setdefault(child.struct, []).append(child)
                    elif child.kind is CCTKind.STATEMENT:
                        stmts.setdefault(child.line, []).append(child)
                    elif child.kind is CCTKind.CALL_SITE:
                        sites.setdefault(child.line, []).append(child)
            groups.extend(loops.values())
            groups.extend(stmts.values())
            callees = {}
            for line, site_nodes in sites.items():
                by_callee: dict[StructureNode, list[CCTNode]] = {}
                for site in site_nodes:
                    for frame in site.children:
                        if frame.kind is CCTKind.FRAME:
                            by_callee.setdefault(frame.struct, []).append(frame)
                callees[line] = by_callee
                groups.extend(by_callee.values())
            per_row.append((loops, stmts, sites, callees))
        # consumed below in the order queued: loops, statements, callees
        values = iter(self.aggregate_exposed(groups))
        levels = []
        for loops, stmts, sites, callees in per_row:
            rows: list[ViewNode] = []
            for struct, nodes in loops.items():
                inclusive, exclusive = next(values)
                rows.append(
                    ViewNode(
                        name=(
                            struct.name
                            if struct.kind is StructKind.INLINED_PROC
                            else f"loop at {struct.location}"
                        ),
                        category=(
                            NodeCategory.INLINED
                            if struct.kind.is_inlined
                            else NodeCategory.LOOP
                        ),
                        inclusive=inclusive,
                        exclusive=exclusive,
                        struct=struct,
                        line=struct.location.line,
                        cct_nodes=nodes,
                        expander=LevelExpander(self, nodes),
                    )
                )
            for line, nodes in stmts.items():
                inclusive, exclusive = next(values)
                rows.append(
                    ViewNode(
                        name=nodes[0].name,
                        category=NodeCategory.STATEMENT,
                        inclusive=inclusive,
                        exclusive=exclusive,
                        struct=nodes[0].struct,
                        line=line,
                        cct_nodes=nodes,
                    )
                )
            for line, site_nodes in sites.items():
                by_callee = callees[line]
                rows.extend(self._call_site_rows(
                    line, site_nodes, by_callee,
                    [next(values) for _ in by_callee],
                ))
            levels.append(rows)
        return levels

    def _call_site_rows(
        self,
        line: int,
        sites: list[CCTNode],
        by_callee: dict[StructureNode, list[CCTNode]],
        values: list[tuple[MetricValues, MetricValues]],
    ) -> list[ViewNode]:
        """Rows for one call-site line, one per callee procedure."""
        site_raw = total(s.raw for s in sites)
        if not by_callee:
            if not site_raw:
                return []
            # sampled call line whose callee was never observed on a stack
            return [
                ViewNode(
                    name=sites[0].name,
                    category=NodeCategory.STATEMENT,
                    inclusive=site_raw,
                    exclusive=site_raw,
                    struct=sites[0].struct,
                    line=line,
                    cct_nodes=sites,
                )
            ]
        rows: list[ViewNode] = []
        for (callee, frames), (inclusive, exclusive) in zip(
            by_callee.items(), values
        ):
            if self.fused:
                fused_excl = dict(exclusive)
                add_into(fused_excl, site_raw)
                incl, excl = inclusive, fused_excl
            else:
                # rule-1 dynamic scope: the call itself (node h_y of Fig. 2c)
                incl = dict(inclusive)
                add_into(incl, site_raw)
                excl = dict(site_raw)
            rows.append(
                ViewNode(
                    name=callee.name,
                    category=NodeCategory.CALL_SITE,
                    inclusive=incl,
                    exclusive=excl,
                    struct=callee,
                    line=line,
                    file=sites[0].struct.location.file if sites[0].struct else "",
                    cct_nodes=frames,
                )
            )
        return rows

    def has_children(self, payload) -> bool:
        quiet_sites: dict[int, list[CCTNode]] = {}
        for node in payload:
            for child in node.children:
                if child.kind is CCTKind.CALL_SITE:
                    if any(f.kind is CCTKind.FRAME for f in child.children):
                        return True
                    quiet_sites.setdefault(child.line, []).append(child)
                elif child.kind in (CCTKind.LOOP, CCTKind.STATEMENT):
                    return True
        # a call line with no observed callee shows only if it was sampled
        return any(total(s.raw for s in sites) for sites in quiet_sites.values())
