"""Metric-ranked scope search through the one query path.

Section VII: the tabular presentation "allows a user to select which
metric to observe and to automatically search for a possible performance
bottleneck."  Interactively that is the viewer's ``find`` (a ranked glob
search on the query engine's view frame); programmatically it is
:func:`repro.query.query` run on a view.
"""

from __future__ import annotations

import io

import pytest

from repro.errors import QueryError
from repro.core.metrics import MetricFlavor
from repro.hpcprof.experiment import Experiment
from repro.query import query
from repro.query.engine import ViewFrame
from repro.sim.workloads import fig1, s3d
from repro.viewer.tui import InteractiveViewer, _find


@pytest.fixture(scope="module")
def exp():
    return Experiment.from_program(s3d.build())


class TestSearch:
    def test_exact_name(self, exp):
        hits = _find(exp.calling_context_view(), "rhsf",
                     exp.spec("PAPI_TOT_CYC"))
        assert len(hits) == 1
        node, _value, _share, path = hits[0]
        assert node.name == "rhsf"
        assert path[0] == "main"
        assert path[-1] == "rhsf"

    def test_glob_ranked_by_metric(self, exp):
        hits = _find(exp.calling_context_view(), "loop at *",
                     exp.spec("PAPI_TOT_CYC"), limit=1000)
        values = [value for _node, value, _share, _path in hits]
        assert values == sorted(values, reverse=True)
        # the time-step loop is the heaviest loop
        assert "solve_driver.f90" in hits[0][0].name

    def test_share_computed_against_total(self, exp):
        hits = _find(exp.calling_context_view(), "chemkin*",
                     exp.spec("PAPI_TOT_CYC"))
        assert hits[0][2] == pytest.approx(0.422, abs=0.01)

    def test_category_filter(self, exp):
        result = query("*").filter(category="procedure").run(exp.flat_view())
        assert result.row_count
        assert set(result.categories) == {"procedure"}

    def test_exclusive_ranking(self, exp):
        result = (query('{"category": "procedure"}')
                  .sort("PAPI_TOT_CYC", "exclusive")
                  .run(exp.flat_view()))
        # derivative_m_deriv's own loops make it the top exclusive scorer
        assert result.names[0] == "derivative_m_deriv"
        hits = _find(exp.flat_view(), "derivative_m_deriv",
                     exp.spec("PAPI_TOT_CYC", MetricFlavor.EXCLUSIVE))
        assert hits[0][1] == result.values[0, result.labels.index(
            "PAPI_TOT_CYC (E)")]

    def test_limit(self, exp):
        view = exp.calling_context_view()
        assert len(_find(view, "*", exp.spec("PAPI_TOT_CYC"), limit=3)) == 3
        assert query("*").limit(3).run(view).row_count == 3

    def test_recursive_program_finds_all_instances(self):
        exp = Experiment.from_program(fig1.build())
        hits = _find(exp.calling_context_view(), "g",
                     exp.spec(fig1.METRIC))
        assert len(hits) == 3  # g1, g2, g3
        assert [value for _node, value, _share, _path in hits] == [
            6.0, 5.0, 3.0]

    def test_describe(self, exp):
        out = io.StringIO()
        InteractiveViewer(exp, stdout=out).onecmd("find rhsf")
        line = out.getvalue().splitlines()[0]
        assert "main ->" in line and line.endswith("%)")

    def test_validation(self, exp):
        view = exp.calling_context_view()
        with pytest.raises(QueryError):
            query("").run(view)
        with pytest.raises(QueryError):
            query("x").limit(0)

    def test_max_nodes_bounds_walk(self, exp):
        frame = ViewFrame(exp.calling_context_view(), max_nodes=3)
        assert frame.truncated
        assert query("*").run(frame).row_count <= 3
