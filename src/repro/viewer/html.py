"""Self-contained HTML export of a view.

hpcviewer is an Eclipse GUI; the closest shareable artifact from a batch
toolchain is a single HTML file with the same tree-tabular presentation:
a collapsible navigation tree beside metric columns, percent-of-total
annotations, blank zero cells, call-site/loop/inlined markers, and the
hot path pre-expanded and highlighted.

The export embeds a small amount of vanilla JavaScript (expand/collapse
only) and no external resources, so the file works offline and in code
review tools.
"""

from __future__ import annotations

import html as html_mod
from typing import Sequence

from repro.core.hotpath import HotPathResult
from repro.core.metrics import MetricFlavor, MetricSpec
from repro.core.views import NodeCategory, View, ViewNode
from repro.viewer.format import format_percent, format_value
from repro.viewer.table import _default_columns

__all__ = ["render_html"]

_CSS = """
body { font-family: ui-monospace, Consolas, monospace; font-size: 13px;
       margin: 1.2em; color: #111; }
h1 { font-size: 16px; }
table { border-collapse: collapse; width: 100%; }
th, td { padding: 2px 10px; text-align: right; white-space: nowrap; }
th { border-bottom: 2px solid #444; position: sticky; top: 0;
     background: #fff; }
td.scope { text-align: left; }
tr:hover { background: #f2f6ff; }
tr.hot > td.scope { background: #fff0e6; font-weight: bold; }
.toggle { cursor: pointer; display: inline-block; width: 1.1em;
          color: #666; user-select: none; }
.icon { color: #888; padding-right: 2px; }
.pct { color: #777; font-size: 11px; padding-left: 4px; }
.nosrc { color: #555; font-style: italic; }
.hidden { display: none; }
"""

_JS = """
function toggleRow(id) {
  var rows = document.querySelectorAll('tr[data-parent=\"' + id + '\"]');
  var btn = document.getElementById('btn-' + id);
  var collapse = btn.textContent === '\\u25BE';
  btn.textContent = collapse ? '\\u25B8' : '\\u25BE';
  rows.forEach(function (row) {
    if (collapse) {
      hideSubtree(row);
    } else {
      row.classList.remove('hidden');
    }
  });
}
function hideSubtree(row) {
  row.classList.add('hidden');
  var btn = row.querySelector('.toggle[id]');
  if (btn) { btn.textContent = '\\u25B8'; }
  document.querySelectorAll(
    'tr[data-parent=\"' + row.id + '\"]'
  ).forEach(hideSubtree);
}
"""

_ICONS = {
    NodeCategory.CALL_SITE: "&#8618;",   # arrow: call site / callee
    NodeCategory.CALLER: "&#8617;",
    NodeCategory.LOOP: "&#8635;",        # loop arrow
    NodeCategory.INLINED: "&#8964;",
    NodeCategory.STATEMENT: "&#183;",
}


def render_html(
    view: View,
    title: str = "",
    columns: Sequence[MetricSpec] | None = None,
    max_depth: int = 4,
    hot: HotPathResult | None = None,
    max_rows: int = 2000,
) -> str:
    """Render a view to a standalone HTML document.

    Rows are materialized to *max_depth* (deeper levels of the hot path
    are always included); rows beyond the first two levels start
    collapsed, mirroring the top-down analysis discipline.
    """
    columns = list(columns) if columns else _default_columns(view)
    totals = [view.total(c) for c in columns]
    hot_ids = {id(n) for n in (hot.path if hot else ())}

    head = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{html_mod.escape(title or view.title)}</title>",
        f"<style>{_CSS}</style>",
        f"<script>{_JS}</script>",
        "</head><body>",
        f"<h1>{html_mod.escape(title or view.title)}</h1>",
        "<table>",
    ]
    header_cells = ["<th style='text-align:left'>scope</th>"]
    for spec in columns:
        desc = view.metrics.by_id(spec.mid)
        flavor = "I" if spec.flavor is MetricFlavor.INCLUSIVE else "E"
        header_cells.append(
            f"<th>{html_mod.escape(desc.name)} ({flavor})</th>"
        )
    head.append("<tr>" + "".join(header_cells) + "</tr>")

    body: list[str] = []
    emitted = 0
    # preorder with an explicit stack: (row, depth, parent row id, visible)
    stack = [
        (root, 0, "top", True)
        for root in reversed(sorted(
            view.roots, key=lambda r: view.value(r, columns[0]), reverse=True
        ))
    ]
    while stack and emitted < max_rows:
        node, depth, parent_id, visible = stack.pop()
        emitted += 1
        row_id = f"r{emitted}"
        is_hot = id(node) in hot_ids
        descend = depth < max_depth or (is_hot and hot is not None)
        children = node.children if descend else []
        classes = []
        if is_hot:
            classes.append("hot")
        if not visible:
            classes.append("hidden")
        cls = f" class='{' '.join(classes)}'" if classes else ""
        toggle = (
            f"<span class='toggle' id='btn-{row_id}' "
            f"onclick=\"toggleRow('{row_id}')\">"
            f"{'&#9662;' if (children and (depth < 2 or is_hot)) else ('&#9656;' if children else '&nbsp;')}"
            "</span>"
        )
        icon = _ICONS.get(node.category, "")
        icon_html = f"<span class='icon'>{icon}</span>" if icon else ""
        name = html_mod.escape(node.name)
        if not node.has_source:
            name = f"<span class='nosrc'>{name}</span>"
        indent = "&nbsp;" * (3 * depth)
        cells = [
            f"<td class='scope'>{indent}{toggle}{icon_html}{name}</td>"
        ]
        for spec, total in zip(columns, totals):
            value = view.value(node, spec)
            text = html_mod.escape(format_value(value))
            pct = format_percent(value, total)
            pct_html = f"<span class='pct'>{pct}</span>" if pct else ""
            cells.append(f"<td>{text}{pct_html}</td>")
        body.append(
            f"<tr id='{row_id}' data-parent='{parent_id}'{cls}>"
            + "".join(cells)
            + "</tr>"
        )
        child_visible = visible and (depth < 2 or is_hot)
        ordered = sorted(
            children,
            key=lambda c: view.value(c, columns[0]),
            reverse=True,
        )
        stack.extend(
            (child, depth + 1, row_id, child_visible)
            for child in reversed(ordered)
        )

    tail = ["</table>"]
    if emitted >= max_rows:
        tail.append(f"<p>(truncated at {max_rows} rows)</p>")
    tail.append("</body></html>")
    return "\n".join(head + body + tail)
