"""Tests for differential experiment presentation."""

from __future__ import annotations

import pytest

from repro.errors import ViewError
from repro.core.metrics import MetricFlavor
from repro.core.views import NodeCategory
from repro.hpcprof.experiment import Experiment
from repro.hpcrun.counters import CYCLES
from repro.sim.workloads import s3d
from repro.viewer.diff import ExperimentDiff


@pytest.fixture(scope="module")
def before():
    return Experiment.from_program(s3d.build())


@pytest.fixture(scope="module")
def after():
    return Experiment.from_program(s3d.build(tuned=True))


@pytest.fixture(scope="module")
def diff(before, after):
    return ExperimentDiff(before, after, CYCLES)


class TestAlignment:
    def test_inclusive_deltas_propagate_to_ancestors(self, diff):
        """With inclusive values, every ancestor of the tuned loop moves
        by the same amount — the expected containment behaviour."""
        movers = {r.name: r for r in diff.rows}
        flux = movers["compute_diffusive_flux"]
        for ancestor in ["main", "solve_driver", "integrate_erk", "rhsf"]:
            assert movers[ancestor].delta == pytest.approx(flux.delta)

    def test_exclusive_diff_localizes_the_change(self, before, after):
        """The exclusive flavour pins the change to the changed scope."""
        ediff = ExperimentDiff(before, after, CYCLES,
                               flavor=MetricFlavor.EXCLUSIVE)
        assert ediff.rows[0].name == "compute_diffusive_flux"
        others = [r for r in ediff.rows[1:]]
        assert all(r.delta == pytest.approx(0.0) for r in others)

    def test_flux_speedup_matches_the_paper(self, diff):
        flux = next(r for r in diff.rows if r.name == "compute_diffusive_flux")
        assert flux.speedup == pytest.approx(2.9, abs=0.01)

    def test_untouched_scopes_are_stable(self, diff):
        ratt = next(r for r in diff.rows if r.name == "ratt")
        assert ratt.speedup == pytest.approx(1.0)
        assert ratt.delta == 0.0

    def test_total_speedup(self, diff, before, after):
        expected = before.total(CYCLES) / after.total(CYCLES)
        assert diff.total_speedup == pytest.approx(expected)
        assert diff.total_speedup > 1.05

    def test_improved_and_regressed(self, diff):
        improved = {r.name for r in diff.improved()}
        assert "compute_diffusive_flux" in improved
        assert diff.regressed() == []

    def test_loop_granularity(self, before, after):
        loop_diff = ExperimentDiff(before, after, CYCLES,
                                   flavor=MetricFlavor.EXCLUSIVE,
                                   granularity=NodeCategory.LOOP)
        top = loop_diff.rows[0]
        assert top.file == "diffflux.f90"
        assert top.speedup == pytest.approx(2.9, abs=0.01)

    def test_exclusive_flavor(self, before, after):
        ediff = ExperimentDiff(before, after, CYCLES,
                               flavor=MetricFlavor.EXCLUSIVE)
        flux = next(r for r in ediff.rows
                    if r.name == "compute_diffusive_flux")
        # flux's own exclusive time also shrank 2.9x
        assert flux.speedup == pytest.approx(2.9, abs=0.05)


class TestEdgeCases:
    def test_scope_only_in_one_run(self, before):
        from repro.sim.workloads import fig1

        other = Experiment.from_program(fig1.build())
        other.metrics.add(CYCLES)  # shared metric name, disjoint scopes
        diff = ExperimentDiff(other, other, CYCLES)
        assert all(not r.only_before and not r.only_after for r in diff)

    def test_missing_metric_rejected(self, before):
        from repro.sim.workloads import fig1

        other = Experiment.from_program(fig1.build())
        with pytest.raises(ViewError):
            ExperimentDiff(before, other, CYCLES)

    def test_invalid_granularity(self, before, after):
        with pytest.raises(ViewError):
            ExperimentDiff(before, after, CYCLES,
                           granularity=NodeCategory.STATEMENT)

    def test_render(self, diff):
        text = diff.render(top=5)
        assert "overall speedup" in text
        assert "compute_diffusive_flux" in text
        assert "more scopes" in text
