"""Property-based tests for filters, search and rendering invariants.

Filtering and search go through the one query path: the viewer's
elide helper, :meth:`Query.prune`, and queries run on random views.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ccview import CallingContextView
from repro.core.metrics import MetricFlavor, MetricSpec
from repro.query import query
from repro.query.engine import ViewFrame
from repro.viewer.format import format_cell, format_percent, format_value
from repro.viewer.navigation import NavigationState
from repro.viewer.table import TableOptions, render_table
from repro.viewer.tui import _elide
from tests.props.strategies import cct_experiments


class TestFilterProps:
    @settings(max_examples=30, deadline=None)
    @given(data=cct_experiments(),
           pattern=st.sampled_from(["p0", "p1", "p2", "p3", "*"]))
    def test_elide_preserves_total_cost(self, data, pattern):
        """Eliding any set of scopes never changes the roots' total
        inclusive cost coverage."""
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        roots = _elide(view, view.roots, [pattern])
        covered = sum(r.inclusive.get(0, 0.0) for r in roots)
        original = sum(r.inclusive.get(0, 0.0) for r in view.roots)
        # elided rows are replaced by their children, whose inclusive
        # totals can only drop by the elided scopes' own exclusive
        # cost, so coverage never exceeds the original and never goes
        # negative
        assert 0.0 <= covered <= original + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(data=cct_experiments())
    def test_prune_removes_whole_subtrees(self, data):
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        frame = ViewFrame(view)
        kept = query("*").prune("p0").run(frame)
        assert "p0" not in kept.names
        # exactly the rows with no p0 on their root path survive
        survivors = [r for r in range(frame.n)
                     if "p0" not in frame.path(r)]
        assert list(kept.rows) == survivors

    @settings(max_examples=30, deadline=None)
    @given(data=cct_experiments())
    def test_empty_filterset_is_identity(self, data):
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        assert _elide(view, view.roots, []) == view.roots


class TestSearchProps:
    @settings(max_examples=30, deadline=None)
    @given(data=cct_experiments())
    def test_search_star_finds_every_scope(self, data):
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        hits = query("*").run(view)
        walked = sum(1 for r in view.roots for _ in r.walk())
        assert hits.row_count == walked

    @settings(max_examples=30, deadline=None)
    @given(data=cct_experiments())
    def test_hits_sorted_and_paths_valid(self, data):
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        frame = ViewFrame(view)
        hits = query("*").select(flavors="inclusive").sort().run(frame)
        values = list(hits.values[:, 0])
        assert values == sorted(values, reverse=True)
        spec = MetricSpec(0, MetricFlavor.INCLUSIVE)
        for row, name, value in zip(hits.rows, hits.names, values):
            path = frame.path(row)
            assert path[-1] == name == frame.nodes[row].name
            assert value == view.value(frame.nodes[row], spec)
            # a path runs root-first through real parent links
            assert frame.nodes[row].parent is None or \
                path[-2] == frame.nodes[row].parent.name


class TestFormatProps:
    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(allow_nan=False, allow_infinity=False,
                           min_value=-1e30, max_value=1e30))
    def test_blank_iff_zero(self, value):
        text = format_value(value)
        assert (text == "") == (value == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
           total=st.floats(min_value=1e-6, max_value=1e12, allow_nan=False))
    def test_percent_parses_back(self, value, total):
        text = format_percent(value, total)
        if text:
            assert text.endswith("%")
            float(text[:-1])  # must parse

    @settings(max_examples=100, deadline=None)
    @given(value=st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    def test_cell_composition(self, value):
        cell = format_cell(value, 1e9)
        if value == 0.0:
            assert cell == ""
        else:
            assert cell.startswith(format_value(value))


class TestRenderProps:
    @settings(max_examples=20, deadline=None)
    @given(data=cct_experiments())
    def test_render_row_count_bounded(self, data):
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        state = NavigationState(view)
        state.expand_to_depth(10)
        out = render_table(view, state, options=TableOptions(max_rows=7))
        body = out.splitlines()[2:]
        data_rows = [l for l in body if not l.startswith("...")]
        assert len(data_rows) <= 7
