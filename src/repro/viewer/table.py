"""Tree-tabular rendering — the scalable presentation of Section VII.

hpcviewer presents each view as a *tree table*: a navigation pane
(indented scope tree) beside metric columns.  The paper argues this is
"generally more scalable than a graph-oriented presentation, both in
rendering speed and visibility"; the benchmark suite measures rendering
cost against CCT size.

Rendering rules implemented here, straight from Section V:

* scopes at every level sort by the selected metric column;
* zero cells render blank; values use scientific notation;
* call sites fuse with callees on one line, marked ``>>`` (the paper's
  box-with-arrow icon); loops are marked with ``@``; inlined code ``~``;
* scopes without source code render in plain style (marker ``#``),
  mirroring hpcviewer's plain-black entries;
* rows on an expanded hot path carry a flame marker ``*``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.metrics import MetricFlavor, MetricSpec
from repro.core.views import NodeCategory, View, ViewNode
from repro.viewer.format import format_cell
from repro.viewer.navigation import NavigationState

__all__ = ["TableOptions", "render_table", "render_view"]

_ICONS = {
    NodeCategory.CALL_SITE: ">>",
    NodeCategory.CALLER: "<<",
    NodeCategory.LOOP: "@",
    NodeCategory.INLINED: "~",
    NodeCategory.STATEMENT: "::",
    NodeCategory.PROCEDURE: "",
    NodeCategory.PROCEDURE_FRAME: "",
    NodeCategory.FILE: "",
    NodeCategory.LOAD_MODULE: "[]",
    NodeCategory.ROOT: "",
}


_PATH_RE = re.compile(r"(/[^\s:]+/)([^\s/:]+)")


def _shorten_paths(text: str) -> str:
    """Replace absolute directory prefixes with just the basename."""
    return _PATH_RE.sub(r"\2", text)


@dataclass
class TableOptions:
    """Knobs for batch rendering."""

    #: columns to show; default: every metric, inclusive then exclusive
    columns: Sequence[MetricSpec] | None = None
    max_rows: int = 60
    name_width: int = 52
    show_location: bool = True
    indent: str = "  "
    flame: str = "*"


def _column_header(view: View, spec: MetricSpec) -> str:
    desc = view.metrics.by_id(spec.mid)
    flavor = "(I)" if spec.flavor is MetricFlavor.INCLUSIVE else "(E)"
    return f"{desc.name} {flavor}"


def _default_columns(view: View) -> list[MetricSpec]:
    cols: list[MetricSpec] = []
    for desc in view.metrics:
        cols.append(MetricSpec(desc.mid, MetricFlavor.INCLUSIVE))
        cols.append(MetricSpec(desc.mid, MetricFlavor.EXCLUSIVE))
    return cols


def render_table(
    view: View,
    state: NavigationState,
    options: TableOptions | None = None,
    roots: Sequence[ViewNode] | None = None,
) -> str:
    """Render the visible rows of a view under a navigation state."""
    opts = options or TableOptions()
    columns = list(opts.columns) if opts.columns else _default_columns(view)
    widths = [max(len(_column_header(view, c)), 15) for c in columns]
    totals = [view.total(c) for c in columns]
    show_pct = [view.metrics.by_id(c.mid).show_percent for c in columns]
    getters = [view.value_getter(c) for c in columns]

    lines: list[str] = []
    header = " | ".join(
        [f"{'scope':<{opts.name_width}}"]
        + [f"{_column_header(view, c):>{w}}" for c, w in zip(columns, widths)]
    )
    lines.append(header)
    lines.append("-" * len(header))

    emitted = 0
    truncated = 0
    for row, depth in state.visible_rows(roots=roots):
        if emitted >= opts.max_rows:
            truncated += 1
            continue
        label = _row_label(row, state, depth, opts)
        cells = []
        for get, w, total, pct in zip(getters, widths, totals, show_pct):
            cell = format_cell(get(row), total, show_percent=pct)
            cells.append(f"{cell:>{w}}")
        lines.append(" | ".join([f"{label:<{opts.name_width}}"] + cells))
        emitted += 1
    if truncated:
        lines.append(f"... ({truncated} more rows)")
    return "\n".join(lines)


def _row_label(row: ViewNode, state: NavigationState, depth: int, opts: TableOptions) -> str:
    marker = " "
    if state.is_expanded(row):
        marker = "-"
    elif state.view.has_children(row):
        marker = "+"
    flame = opts.flame if state.is_hot(row) else " "
    icon = _ICONS.get(row.category, "")
    name = row.name if row.has_source else f"#{row.name}"
    if name.startswith("loop at ") or row.category is NodeCategory.STATEMENT:
        # long absolute paths drown the navigation pane; keep basenames
        name = _shorten_paths(name)
    bits = [opts.indent * depth, flame, marker, " "]
    if icon:
        bits.append(icon + " ")
    bits.append(name)
    # statements already carry file:line as their name
    if opts.show_location and row.line and row.category in (
        NodeCategory.CALL_SITE,
        NodeCategory.CALLER,
    ):
        file = os.path.basename(row.file) if row.file else ""
        bits.append(f" [{file}:{row.line}]" if file else f" [:{row.line}]")
    label = "".join(bits)
    if len(label) > opts.name_width:
        label = label[: opts.name_width - 3] + "..."
    return label


def render_view(
    view: View,
    metric: MetricSpec | None = None,
    depth: int = 3,
    options: TableOptions | None = None,
) -> str:
    """Convenience: expand a view to *depth* levels and render it."""
    state = NavigationState(view, column=metric)
    state.expand_to_depth(depth)
    return render_table(view, state, options=options)
