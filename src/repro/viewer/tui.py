"""An interactive text-mode hpcviewer.

A :mod:`cmd`-based REPL over a :class:`ViewerSession`, mirroring the
interactions the paper describes: switching among the three view tabs,
expanding scopes link by link, sorting by any metric column, pressing
the flame (hot path), flattening the Flat View, defining derived
metrics, and inspecting source through the navigation pane (the *only*
route to source — Section V-A).

Usage::

    from repro.viewer.tui import InteractiveViewer
    InteractiveViewer(experiment).cmdloop()

or non-interactively (how the test-suite drives it)::

    viewer = InteractiveViewer(experiment, stdout=buffer)
    viewer.onecmd("view callers")
    viewer.onecmd("sort PAPI_TOT_CYC excl")
    viewer.onecmd("ls")
"""

from __future__ import annotations

import cmd
import fnmatch
from typing import IO, Sequence

import numpy as np

from repro.errors import ReproError
from repro.core.metrics import MetricFlavor, MetricSpec
from repro.core.views import View, ViewKind, ViewNode
from repro.hpcprof.experiment import Experiment
from repro.query.engine import ViewFrame
from repro.viewer.format import format_cell
from repro.viewer.session import ViewerSession
from repro.viewer.table import TableOptions, _row_label

__all__ = ["InteractiveViewer"]

_VIEW_ALIASES = {
    "cct": ViewKind.CALLING_CONTEXT,
    "calling-context": ViewKind.CALLING_CONTEXT,
    "callers": ViewKind.CALLERS,
    "flat": ViewKind.FLAT,
}


def _find(view: View, pattern: str, spec: MetricSpec, limit: int = 10):
    """Scopes of *view* whose name matches the glob *pattern*, heaviest
    first (ties in preorder): at most *limit* ``(node, value, share,
    path)`` tuples, *share* taken of the column's inclusive total."""
    frame = ViewFrame(view)
    rows = np.flatnonzero(frame.name_mask(pattern))
    nodes = [frame.nodes[r] for r in rows]
    values = view.gather_columns(nodes, [spec])[:, 0]
    total = view.total(MetricSpec(spec.mid, MetricFlavor.INCLUSIVE))
    hits = []
    for i in np.argsort(-values, kind="stable")[:limit]:
        value = float(values[i])
        hits.append((nodes[i], value, (value / total) if total else 0.0,
                     frame.path(rows[i])))
    return hits


def _elide(view: View, rows: Sequence[ViewNode], patterns: Sequence[str],
           threshold: tuple[MetricSpec, float] | None = None
           ) -> list[ViewNode]:
    """The display forest of *rows* under ``filter`` and ``threshold``.

    A row whose name matches one of the glob *patterns* is elided: its
    children take its place, recursively, so no cost leaves the
    listing.  Given ``threshold = (spec, share)``, a remaining row is
    hidden when its inclusive value falls below *share* of
    ``view.total(spec)``.  Display-only: the view is never mutated.
    """
    floor = None
    if threshold is not None:
        spec, share = threshold
        total = view.total(spec)
        if total != 0.0:
            incl = MetricSpec(spec.mid, MetricFlavor.INCLUSIVE)
            floor = share * total

    out: list[ViewNode] = []
    stack = list(reversed(rows))
    while stack:
        row = stack.pop()
        if any(fnmatch.fnmatchcase(row.name, p) for p in patterns):
            stack.extend(reversed(row.children))
        elif floor is None or view.value(row, incl) >= floor:
            out.append(row)
    return out


class InteractiveViewer(cmd.Cmd):
    """Interactive tree-tabular presentation of one experiment."""

    intro = ("repro interactive viewer — 'help' lists commands, "
             "'ls' shows the current view, 'quit' exits.")
    prompt = "(hpcviewer) "

    def __init__(self, experiment: Experiment,
                 stdout: IO[str] | None = None) -> None:
        super().__init__(stdout=stdout)
        self.session = ViewerSession(experiment)
        self.max_rows = 30
        #: ``filter`` globs, and the ``threshold`` as (column, share)
        self._elided: list[str] = []
        self._threshold: tuple[MetricSpec, float] | None = None
        #: row number -> node, rebuilt on every listing
        self._rows: dict[int, ViewNode] = {}

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _say(self, text: str) -> None:
        self.stdout.write(text + "\n")

    def _node(self, arg: str) -> ViewNode | None:
        arg = arg.strip()
        if not arg:
            node = self.session.state().selected
            if node is None:
                self._say("no row selected; pass a row number or 'select N'")
            return node
        try:
            number = int(arg)
        except ValueError:
            self._say(f"expected a row number, got {arg!r}")
            return None
        node = self._rows.get(number)
        if node is None:
            self._say(f"no row #{number} in the last listing; run 'ls'")
        return node

    def _spec_of(self, name: str, flavor_word: str = "") -> MetricSpec | None:
        flavor = (MetricFlavor.EXCLUSIVE if flavor_word.startswith("exc")
                  else MetricFlavor.INCLUSIVE)
        try:
            return self.session.experiment.spec(name, flavor)
        except ReproError as exc:
            self._say(str(exc))
            return None

    # ------------------------------------------------------------------ #
    # view management
    # ------------------------------------------------------------------ #
    def do_views(self, _arg: str) -> None:
        """views — list the three view tabs and which is active."""
        for alias, kind in (("cct", ViewKind.CALLING_CONTEXT),
                            ("callers", ViewKind.CALLERS),
                            ("flat", ViewKind.FLAT)):
            marker = "*" if kind is self.session.active else " "
            self._say(f" {marker} {alias:<8} {kind.value}")

    def do_view(self, arg: str) -> None:
        """view cct|callers|flat — switch the active view tab."""
        kind = _VIEW_ALIASES.get(arg.strip().lower())
        if kind is None:
            self._say(f"unknown view {arg!r}; one of: cct, callers, flat")
            return
        self.session.show(kind)
        self._say(f"now showing {self.session.view().title}")

    def do_ls(self, _arg: str) -> None:
        """ls — list visible rows of the active view, numbered."""
        session = self.session
        view = session.view()
        state = session.state()
        column = state.column
        total = view.total(column)
        desc = view.metrics.by_id(column.mid)
        opts = TableOptions()
        self._say(f"== {view.title}: sorted by {desc.name} "
                  f"({column.flavor.value}) ==")
        self._rows.clear()
        roots = None
        if session.active is ViewKind.FLAT:
            roots = view.current_roots()
        if self._filtering():
            roots = _elide(view, view.roots if roots is None else roots,
                           self._elided, self._threshold)
        shown = 0
        for number, (row, depth) in enumerate(
            self._visible(state, roots), start=1
        ):
            if shown >= self.max_rows:
                self._say(f"... (limit {self.max_rows}; 'top N' to raise)")
                break
            self._rows[number] = row
            label = _row_label(row, state, depth, opts)
            cell = format_cell(view.value(row, column), total,
                               show_percent=desc.show_percent)
            self._say(f"{number:>4} {label:<56} {cell:>17}")
            shown += 1

    def _filtering(self) -> bool:
        return bool(self._elided) or self._threshold is not None

    def _visible(self, state, roots):
        if not self._filtering():
            yield from state.visible_rows(roots=roots)
            return

        view = state.view

        def ordered(rows):
            return iter(sorted(rows, key=lambda r: view.value(r, state.column),
                               reverse=state.descending))

        # one sorted-sibling iterator per open level (as in
        # NavigationState.visible_rows); the stack depth is the depth
        levels = [ordered(roots)]
        while levels:
            row = next(levels[-1], None)
            if row is None:
                levels.pop()
                continue
            yield row, len(levels) - 1
            if state.is_expanded(row):
                levels.append(ordered(_elide(view, row.children, self._elided,
                                             self._threshold)))

    def do_top(self, arg: str) -> None:
        """top N — show at most N rows in listings."""
        try:
            self.max_rows = max(1, int(arg))
        except ValueError:
            self._say("usage: top N")

    # ------------------------------------------------------------------ #
    # navigation
    # ------------------------------------------------------------------ #
    def do_expand(self, arg: str) -> None:
        """expand N — open row N one level."""
        node = self._node(arg)
        if node is not None:
            self.session.state().expand(node)
            self.do_ls("")

    def do_collapse(self, arg: str) -> None:
        """collapse N — close row N."""
        node = self._node(arg)
        if node is not None:
            self.session.state().collapse(node)
            self.do_ls("")

    def do_select(self, arg: str) -> None:
        """select N — make row N the current scope."""
        node = self._node(arg)
        if node is not None:
            self.session.state().select(node)
            self._say(f"selected {node.name}")

    def do_sort(self, arg: str) -> None:
        """sort <metric> [incl|excl] — sort every level by a column."""
        parts = arg.split()
        if not parts:
            self._say("usage: sort <metric name> [incl|excl]")
            return
        flavor_word = parts[-1] if parts[-1] in ("incl", "excl") else ""
        name = " ".join(parts[:-1]) if flavor_word else arg.strip()
        spec = self._spec_of(name, flavor_word)
        if spec is not None:
            self.session.state().sort_by(spec)
            self.do_ls("")

    def do_hot(self, arg: str) -> None:
        """hot [N] — expand the hot path from row N (or the top)."""
        start = self._node(arg) if arg.strip() else None
        if arg.strip() and start is None:
            return
        result = self.session.expand_hot_path(start=start)
        self._say("hot path: " + " -> ".join(n.name for n in result.path))
        self.do_ls("")

    def do_flatten(self, _arg: str) -> None:
        """flatten — elide the Flat View's current top level."""
        self.session.flatten()
        if self.session.active is ViewKind.FLAT:
            self.do_ls("")

    def do_unflatten(self, _arg: str) -> None:
        """unflatten — undo one flatten."""
        self.session.unflatten()
        if self.session.active is ViewKind.FLAT:
            self.do_ls("")

    # ------------------------------------------------------------------ #
    # metrics & filters
    # ------------------------------------------------------------------ #
    def do_metrics(self, _arg: str) -> None:
        """metrics — list metric columns."""
        for desc in self.session.experiment.metrics:
            extra = f" = {desc.formula}" if desc.formula else ""
            self._say(f"  [{desc.mid}] {desc.name} ({desc.kind.value})"
                      f"{extra}")

    def do_derive(self, arg: str) -> None:
        """derive <name> := <formula> — define a derived metric ($n refs)."""
        name, sep, formula = arg.partition(":=")
        if not sep or not name.strip() or not formula.strip():
            self._say("usage: derive <name> := <formula>   e.g. "
                      "derive waste := 4 * $0 - $1")
            return
        try:
            self.session.add_derived_metric(name.strip(), formula.strip())
        except ReproError as exc:
            self._say(str(exc))
            return
        self._say(f"defined derived metric {name.strip()!r}")

    def do_threshold(self, arg: str) -> None:
        """threshold P — hide rows below P percent of the total."""
        try:
            share = float(arg) / 100.0
        except ValueError:
            self._say("usage: threshold <percent>")
            return
        if not 0.0 <= share <= 1.0:
            self._say(f"min_share must be within [0, 1], got {share}")
            return
        self._threshold = (self.session.state().column, share)
        self.do_ls("")

    def do_filter(self, arg: str) -> None:
        """filter <glob> — elide scopes whose name matches the pattern."""
        if not arg.strip():
            self._say("usage: filter <glob pattern>")
            return
        self._elided.append(arg.strip())
        self.do_ls("")

    def do_nofilter(self, _arg: str) -> None:
        """nofilter — clear all filters."""
        self._elided = []
        self._threshold = None
        self.do_ls("")

    def do_source(self, arg: str) -> None:
        """source [N] — show source around the selected row."""
        node = self._node(arg)
        if node is not None:
            self._say(self.session.source_pane(node))

    def do_advise(self, _arg: str) -> None:
        """advise — rule-based tuning suggestions with evidence."""
        from repro.core.advisor import advise

        suggestions = advise(self.session.experiment)
        if not suggestions:
            self._say("no tuning opportunities above the evidence thresholds")
            return
        for suggestion in suggestions[:8]:
            self._say(suggestion.describe())

    def do_find(self, arg: str) -> None:
        """find <glob> — search the active view, heaviest matches first."""
        if not arg.strip():
            self._say("usage: find <glob pattern>")
            return
        try:
            hits = _find(self.session.view(), arg.strip(),
                         self.session.state().column)
        except ReproError as exc:
            self._say(str(exc))
            return
        if not hits:
            self._say("no matches")
            return
        for _node, _value, share, path in hits:
            pct = f" ({100 * share:.1f}%)" if share else ""
            self._say(f"  {' -> '.join(path)}{pct}")
        self.session.state().select(hits[0][0])
        self._say(f"selected heaviest match: {hits[0][0].name}")

    def do_annotate(self, arg: str) -> None:
        """annotate <file> [metric] — per-line exclusive costs of a file."""
        parts = arg.split()
        if not parts:
            self._say("usage: annotate <file> [metric]")
            return
        metric = (parts[1] if len(parts) > 1
                  else self.session.experiment.metrics.by_id(0).name)
        from repro.viewer.source import render_annotated_source

        try:
            self._say(render_annotated_source(
                self.session.experiment, parts[0], metric
            ))
        except ReproError as exc:
            self._say(str(exc))

    # ------------------------------------------------------------------ #
    def do_quit(self, _arg: str) -> bool:
        """quit — leave the viewer."""
        return True

    do_EOF = do_quit

    def emptyline(self) -> None:  # re-list rather than repeat last command
        self.do_ls("")

    def default(self, line: str) -> None:
        self._say(f"unknown command {line.split()[0]!r}; try 'help'")
