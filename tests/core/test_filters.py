"""Deemphasizing what doesn't matter: elide, prune and threshold.

"A presentation tool should deemphasize this data."  The interactive
viewer's ``filter`` elides scopes by name glob (their children take
their place, so costs never disappear) and its ``threshold`` hides
rows below a share of the total — both through the viewer's display
helper :func:`repro.viewer.tui._elide`.  Programmatically, scopes are
selected by name and category and whole subtrees dropped with
:meth:`repro.query.Query.prune`.
"""

from __future__ import annotations

import io

import pytest

from repro.hpcprof.experiment import Experiment
from repro.query import query
from repro.sim.workloads import fig1, s3d
from repro.viewer.tui import InteractiveViewer, _elide


@pytest.fixture(scope="module")
def exp():
    return Experiment.from_program(s3d.build())


def visible(view, rows, patterns, threshold=None):
    """Every row a fully expanded filtered listing shows."""
    for row in _elide(view, rows, patterns, threshold):
        yield row
        yield from visible(view, row.children, patterns, threshold)


class TestScopeFilter:
    def test_glob_matching(self, exp):
        view = exp.calling_context_view()
        chemkin = view.find("chemkin_m_reaction_rate")
        rhsf = view.find("rhsf")
        assert chemkin not in _elide(view, [chemkin], ["chemkin*"])
        assert _elide(view, [rhsf], ["chemkin*"]) == [rhsf]

    def test_category_restriction(self, exp):
        view = exp.calling_context_view()
        loops = query('{"name": "loop*", "category": "loop"}').run(view)
        assert loops.row_count
        assert set(loops.categories) == {"loop"}
        assert "rhsf" not in query('{"category": "loop"}').run(view).names


class TestElideAndPrune:
    def test_elide_splices_children(self, exp):
        """Eliding all loop scopes gives pure call chains — costs intact."""
        view = exp.calling_context_view()
        roots = _elide(view, view.roots, ["loop at *"])
        assert [r.name for r in roots] == ["main"]
        names = {n.name for n in visible(view, roots[:1], ["loop at *"])}
        assert "rhsf" in names and "chemkin_m_reaction_rate" in names
        assert not any(n.startswith("loop at") for n in names)

    def test_prune_drops_subtree(self, exp):
        view = exp.calling_context_view()
        names = set(query("*").prune("chemkin*").run(view).names)
        assert "chemkin_m_reaction_rate" not in names
        assert "ratt" not in names          # pruned with its parent
        assert "rhsf" in names

    def test_elide_root_promotes_children(self, exp):
        view = exp.calling_context_view()
        names = [r.name for r in _elide(view, view.roots, ["main"])]
        assert "main" not in names
        assert "solve_driver" in names


class TestThreshold:
    def test_threshold_hides_cold_rows(self, exp):
        view = exp.calling_context_view()
        spec = exp.spec("PAPI_TOT_CYC")
        main = _elide(view, view.roots, [], (spec, 0.05))[0]
        children = _elide(view, main.children, [], (spec, 0.05))
        total = exp.total("PAPI_TOT_CYC")
        # initialize_field is 1.7% of cycles: hidden at a 5% threshold
        assert all(
            view.value(c, spec) >= 0.05 * total for c in children
        )
        names = {c.name for c in children}
        assert "initialize_field" not in names

    def test_zero_threshold_keeps_everything(self, exp):
        view = exp.calling_context_view()
        spec = exp.spec("PAPI_TOT_CYC")
        assert _elide(view, view.roots, [], (spec, 0.0)) == view.roots

    def test_invalid_share(self, exp):
        viewer = InteractiveViewer(exp, stdout=io.StringIO())
        viewer.onecmd("threshold 150")
        assert "min_share must be within [0, 1], got 1.5" in \
            viewer.stdout.getvalue()
        assert viewer._threshold is None


class TestCostPreservation:
    def test_eliding_never_loses_cost(self):
        """The union of visible subtrees after eliding covers every cost."""
        exp = Experiment.from_program(fig1.build())
        mid = exp.metric_id(fig1.METRIC)
        view = exp.calling_context_view()
        roots = _elide(view, view.roots, ["f"])  # elide procedure f rows
        total = sum(r.inclusive.get(mid, 0.0) for r in roots)
        assert total == 10.0  # m's subtree still accounts for everything
