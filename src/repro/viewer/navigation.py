"""Navigation state for the tree-tabular presentation (Section V).

The navigation pane is where all analysis happens in hpcviewer: scopes
are expanded link by link (or whole hot paths at once), every level is
sorted by the selected metric column, and there is deliberately *no*
direct metric access from the source pane — the user is forced into
top-down analysis so attention stays on what is costly.

:class:`NavigationState` tracks which rows are expanded, which column is
selected for sorting, and the hot-path highlight; it is deliberately
independent of rendering so the same state drives interactive sessions
and batch renderings.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator

from repro.core.hotpath import DEFAULT_THRESHOLD, HotPathResult, hot_path
from repro.core.metrics import MetricFlavor, MetricSpec
from repro.core.views import View, ViewNode

__all__ = ["NavigationState"]


class NavigationState:
    """Expansion/sort/selection state for one view."""

    def __init__(self, view: View, column: MetricSpec | None = None) -> None:
        self.view = view
        if column is None:
            first = next(iter(view.metrics), None)
            column = MetricSpec(first.mid if first else 0, MetricFlavor.INCLUSIVE)
        self.column = column
        self.descending = True
        self.sort_by_name_mode = False
        self._expanded: set[int] = set()
        self._hot: set[int] = set()
        self.selected: ViewNode | None = None

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #
    def is_expanded(self, node: ViewNode) -> bool:
        return id(node) in self._expanded

    def expand(self, node: ViewNode) -> None:
        self._expanded.add(id(node))

    def collapse(self, node: ViewNode) -> None:
        self._expanded.discard(id(node))

    def toggle(self, node: ViewNode) -> None:
        if self.is_expanded(node):
            self.collapse(node)
        else:
            self.expand(node)

    def expand_to_depth(self, depth: int) -> None:
        """Expand every row down to *depth* levels.

        Breadth-first, one :meth:`~repro.core.views.View.expand_rows`
        batch per level, so a level's rows are aggregated together.
        """
        level = list(self.view.roots)
        for _ in range(depth):
            if not level:
                break
            for node in level:
                self.expand(node)
            self.view.expand_rows(level)
            level = [child for node in level for child in node.children]

    def expanded_count(self) -> int:
        return len(self._expanded)

    # ------------------------------------------------------------------ #
    # sorting / selection
    # ------------------------------------------------------------------ #
    def sort_by(self, column: MetricSpec, descending: bool = True) -> None:
        self.column = column
        self.descending = descending
        self.sort_by_name_mode = False

    def sort_by_name(self, descending: bool = False) -> None:
        """Sort siblings alphabetically by scope name.

        The paper's footnote 2: "the user can sort according to the
        source scopes in the navigation pane itself" — an orthogonality
        feature rather than a need, but part of the surface.
        """
        self.sort_by_name_mode = True
        self.descending = descending

    def select(self, node: ViewNode) -> None:
        self.selected = node

    # ------------------------------------------------------------------ #
    # hot path (the flame button)
    # ------------------------------------------------------------------ #
    def expand_hot_path(
        self,
        start: ViewNode | None = None,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> HotPathResult:
        """Press the flame: expand scopes along the hot path of the
        selected metric in the subtree rooted at *start* (or the selected
        row, or the heaviest root), and highlight them."""
        start = start or self.selected
        result = hot_path(self.view, self.column, start=start, threshold=threshold)
        for node in result.path:
            self.expand(node)
            self._hot.add(id(node))
        self.selected = result.hotspot
        return result

    def is_hot(self, node: ViewNode) -> bool:
        return id(node) in self._hot

    def clear_hot(self) -> None:
        self._hot.clear()

    # ------------------------------------------------------------------ #
    # visible rows, in display order
    # ------------------------------------------------------------------ #
    def visible_rows(self, roots=None) -> Iterator[tuple[ViewNode, int]]:
        """Yield ``(row, depth)`` in display order: sorted siblings,
        descending into expanded rows only (lazy rows stay unexpanded)."""
        key = (attrgetter("name") if self.sort_by_name_mode
               else self.view.value_getter(self.column))
        # one sorted-sibling iterator per open level; the stack depth is
        # the display depth
        levels = [iter(sorted(self.view.roots if roots is None else roots,
                              key=key, reverse=self.descending))]
        while levels:
            row = next(levels[-1], None)
            if row is None:
                levels.pop()
                continue
            yield row, len(levels) - 1
            if self.is_expanded(row):
                levels.append(iter(sorted(row.children, key=key,
                                          reverse=self.descending)))
