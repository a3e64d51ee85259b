"""Tests for the before/after presentation of two experiments.

S3D before and after the flux loop transformation of Figure 6, aligned
into a two-member ensemble: the members' Flat rows are the before/after
columns, and the ensemble diff's Flat rows are the change.
"""

from __future__ import annotations

import pytest

from repro.core.ensemble import align_experiments
from repro.core.views import NodeCategory
from repro.errors import MetricError
from repro.hpcprof.experiment import Experiment
from repro.hpcrun.counters import CYCLES
from repro.sim.workloads import s3d


@pytest.fixture(scope="module")
def before():
    return Experiment.from_program(s3d.build())


@pytest.fixture(scope="module")
def after():
    return Experiment.from_program(s3d.build(tuned=True))


@pytest.fixture(scope="module")
def ensemble(before, after):
    return align_experiments([before, after])


@pytest.fixture(scope="module")
def members(ensemble):
    return ensemble.member(0), ensemble.member(1)


@pytest.fixture(scope="module")
def diff(ensemble):
    return ensemble.diff(0, 1)


def flat_rows(exp, category=NodeCategory.PROCEDURE, flavor="inclusive"):
    """``{(file, name, line): value}`` of one Flat View granularity."""
    mid = exp.metric_id(CYCLES)
    out: dict[tuple, float] = {}
    for file_row in exp.flat_view().roots:
        for node in file_row.walk():
            if node.category is category:
                key = (node.file, node.name, node.line)
                value = getattr(node, flavor).get(mid, 0.0)
                out[key] = out.get(key, 0.0) + value
    return out


def by_name(rows):
    return {name: value for (_file, name, _line), value in rows.items()}


def speedups(members, category=NodeCategory.PROCEDURE, flavor="inclusive"):
    """``{(file, name, line): before / after}`` over scopes with cost."""
    old, new = (flat_rows(m, category, flavor) for m in members)
    return {key: old[key] / new[key] for key in old if new.get(key)}


class TestAlignment:
    @pytest.mark.parametrize("category, flavor", [
        (NodeCategory.PROCEDURE, "inclusive"),
        (NodeCategory.LOOP, "exclusive"),
    ])
    def test_members_give_the_originals_flat_values(
        self, before, after, members, category, flavor
    ):
        for original, member in zip((before, after), members):
            expected = flat_rows(original, category, flavor)
            got = flat_rows(member, category, flavor)
            assert {key: got[key] for key in expected} == expected
            assert all(got[key] == 0.0 for key in got.keys() - expected)

    def test_inclusive_deltas_propagate_to_ancestors(self, diff):
        """With inclusive values, every ancestor of the tuned loop moves
        by the same amount — the expected containment behaviour."""
        deltas = by_name(flat_rows(diff))
        flux = deltas["compute_diffusive_flux"]
        assert flux < 0.0
        for ancestor in ["main", "solve_driver", "integrate_erk", "rhsf"]:
            assert deltas[ancestor] == pytest.approx(flux)

    def test_exclusive_diff_localizes_the_change(self, diff):
        """The exclusive flavour pins the change to the changed scope."""
        deltas = by_name(flat_rows(diff, flavor="exclusive"))
        top = max(deltas, key=lambda name: abs(deltas[name]))
        assert top == "compute_diffusive_flux"
        others = [v for name, v in deltas.items() if name != top]
        assert all(v == pytest.approx(0.0) for v in others)

    def test_flux_speedup_matches_the_paper(self, members):
        flux = by_name(speedups(members))["compute_diffusive_flux"]
        assert flux == pytest.approx(2.9, abs=0.01)

    def test_untouched_scopes_are_stable(self, members, diff):
        assert by_name(speedups(members))["ratt"] == pytest.approx(1.0)
        assert by_name(flat_rows(diff))["ratt"] == 0.0

    def test_total_speedup(self, members, before, after):
        expected = before.total(CYCLES) / after.total(CYCLES)
        old, new = members
        speedup = old.total(CYCLES) / new.total(CYCLES)
        assert speedup == pytest.approx(expected)
        assert speedup > 1.05

    def test_improved_and_regressed(self, members):
        table = by_name(speedups(members))
        improved = {name for name, s in table.items() if s >= 1.05}
        assert "compute_diffusive_flux" in improved
        assert [name for name, s in table.items() if s <= 0.95] == []

    def test_loop_granularity(self, members, diff):
        deltas = flat_rows(diff, NodeCategory.LOOP, "exclusive")
        top = max(deltas, key=lambda key: abs(deltas[key]))
        assert top[0] == "diffflux.f90"
        table = speedups(members, NodeCategory.LOOP, "exclusive")
        assert table[top] == pytest.approx(2.9, abs=0.01)

    def test_exclusive_flavor(self, members):
        table = by_name(speedups(members, flavor="exclusive"))
        # flux's own exclusive time also shrank 2.9x
        assert table["compute_diffusive_flux"] == pytest.approx(2.9, abs=0.05)


class TestEdgeCases:
    def test_missing_metric_rejected(self, before):
        from repro.sim.workloads import fig1

        other = Experiment.from_program(fig1.build())
        with pytest.raises(MetricError):
            align_experiments([before, other])
