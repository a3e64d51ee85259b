"""Unit tests for the call-path profile trie and the counter model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ProfilerError
from repro.core.metrics import MetricTable
from repro.hpcrun.counters import (
    CYCLES,
    FLOPS,
    L1_DCM,
    MachineModel,
    standard_metric_table,
)
from repro.hpcrun.profile_data import Frame, ProfileData


def table():
    t = MetricTable()
    t.add("cycles")
    return t


MAIN = Frame("main", "a.c", 0)
WORK = Frame("work", "a.c", 5)
HELP = Frame("help", "b.c", 7)


class TestProfileData:
    def test_add_sample_builds_trie(self):
        p = ProfileData(table())
        p.add_sample([MAIN, WORK], 12, {0: 1.0})
        p.add_sample([MAIN, WORK], 12, {0: 2.0})
        p.add_sample([MAIN, HELP], 20, {0: 4.0})
        assert len(p) == 3  # main, work, help
        assert p.sample_count == 3
        assert p.totals() == {0: 7.0}

    def test_same_proc_different_call_lines_are_distinct(self):
        p = ProfileData(table())
        p.add_sample([MAIN, Frame("work", "a.c", 5)], 12, {0: 1.0})
        p.add_sample([MAIN, Frame("work", "a.c", 6)], 12, {0: 1.0})
        assert len(p) == 3

    def test_empty_path_rejected(self):
        p = ProfileData(table())
        with pytest.raises(ProfilerError):
            p.add_sample([], 1, {0: 1.0})

    def test_paths_round_trip(self):
        p = ProfileData(table())
        p.add_sample([MAIN, WORK], 12, {0: 1.0})
        p.add_sample([MAIN], 3, {0: 2.0})
        seen = {(tuple(f.proc for f in frames), line): costs
                for frames, line, costs in p.paths()}
        assert seen[(("main", "work"), 12)] == {0: 1.0}
        assert seen[(("main",), 3)] == {0: 2.0}

    def test_paths_and_copies_keep_preorder(self):
        """Contexts come out in trie preorder (a frame's own lines before
        its callees, callees in first-sample order), and merge_into and
        resampled rebuild the trie with that same child order."""
        p = ProfileData(table())
        p.add_sample([MAIN, HELP], 20, {0: 1.0})
        p.add_sample([MAIN, WORK, HELP], 21, {0: 2.0})
        p.add_sample([MAIN], 3, {0: 3.0})
        p.add_sample([MAIN, WORK], 12, {0: 4.0})
        p.add_sample([MAIN], 4, {0: 5.0})
        order = [(tuple(f.proc for f in frames), line)
                 for frames, line, _costs in p.paths()]
        assert order == [
            (("main",), 3), (("main",), 4), (("main", "help"), 20),
            (("main", "work"), 12), (("main", "work", "help"), 21),
        ]
        merged = ProfileData(table())
        p.merge_into(merged)
        resampled = p.resampled(period=1.0, rng=np.random.default_rng(0))
        for copy in (merged, resampled):
            assert [(tuple(f.proc for f in frames), line)
                    for frames, line, _costs in copy.paths()] == order

    def test_merge_into(self):
        a, b = ProfileData(table()), ProfileData(table())
        a.add_sample([MAIN, WORK], 12, {0: 1.0})
        b.add_sample([MAIN, WORK], 12, {0: 2.0})
        b.add_sample([MAIN, HELP], 20, {0: 5.0})
        a_profile_count = a.sample_count
        b.merge_into(a)
        assert a.totals() == {0: 8.0}
        assert a.sample_count == a_profile_count + 2

    def test_merge_requires_matching_metrics(self):
        a = ProfileData(table())
        other_table = MetricTable()
        other_table.add("different")
        b = ProfileData(other_table)
        with pytest.raises(ProfilerError):
            b.merge_into(a)

    def test_resampled_preserves_expectation(self):
        p = ProfileData(table())
        p.add_sample([MAIN], 3, {0: 10_000.0})
        rng = np.random.default_rng(0)
        draws = [p.resampled(period=1.0, rng=rng).totals().get(0, 0.0)
                 for _ in range(50)]
        assert np.mean(draws) == pytest.approx(10_000.0, rel=0.02)

    def test_resampled_rejects_bad_period(self):
        p = ProfileData(table())
        with pytest.raises(ProfilerError):
            p.resampled(period=0.0, rng=np.random.default_rng(0))

    def test_resampled_drops_zero_draws(self):
        p = ProfileData(table())
        p.add_sample([MAIN], 3, {0: 0.001})  # ~always zero samples
        rng = np.random.default_rng(1)
        out = p.resampled(period=1.0, rng=rng)
        assert out.totals().get(0, 0.0) in (0.0, 1.0)


class TestMachineModel:
    def test_standard_table(self):
        t = standard_metric_table()
        assert t.names()[:3] == [CYCLES, FLOPS, L1_DCM]

    def test_peak_compute_bound_kernel(self):
        m = MachineModel(peak_flops_per_cycle=4.0)
        costs = m.kernel_costs(flops=400.0, efficiency=1.0)
        assert costs[CYCLES] == pytest.approx(100.0)
        assert m.relative_efficiency(costs[CYCLES], costs[FLOPS]) == 1.0
        assert m.waste(costs[CYCLES], costs[FLOPS]) == 0.0

    def test_memory_bound_kernel_has_low_efficiency(self):
        m = MachineModel()
        costs = m.kernel_costs(flops=100.0, mem_refs=1000.0,
                               l1_miss_rate=0.5, efficiency=1.0)
        eff = m.relative_efficiency(costs[CYCLES], costs[FLOPS])
        assert eff < 0.01
        assert costs[L1_DCM] == 500.0

    def test_zero_costs_are_sparse(self):
        m = MachineModel()
        costs = m.kernel_costs(flops=4.0)
        assert L1_DCM not in costs

    def test_parameter_validation(self):
        m = MachineModel()
        with pytest.raises(ValueError):
            m.kernel_costs(mem_refs=10, l1_miss_rate=1.5)
        with pytest.raises(ValueError):
            m.kernel_costs(mem_refs=10, l2_miss_fraction=-0.1)
        with pytest.raises(ValueError):
            m.kernel_costs(flops=1, efficiency=0.0)

    def test_waste_and_efficiency_consistency(self):
        m = MachineModel(peak_flops_per_cycle=4.0)
        cycles, flops = 100.0, 24.0
        assert m.relative_efficiency(cycles, flops) == pytest.approx(0.06)
        assert m.waste(cycles, flops) == pytest.approx(376.0)
        assert m.relative_efficiency(0.0, 0.0) == 0.0
