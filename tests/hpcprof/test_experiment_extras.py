"""Tests for Experiment conveniences: from_sampler, describe, name sort."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.metrics import MetricFlavor, MetricSpec
from repro.hpcprof.experiment import Experiment
from repro.hpcrun.sampler import SamplingProfiler
from repro.hpcstruct.model import StructureModel
from repro.sim.workloads import fig1, s3d
from repro.viewer.navigation import NavigationState


class TestDescribe:
    def test_summary_contents(self):
        exp = Experiment.from_program(s3d.build())
        text = exp.describe()
        assert "experiment 's3d'" in text
        assert "procedure-frame=" in text
        assert "[0] PAPI_TOT_CYC (raw): total" in text
        assert "top procedures by PAPI_TOT_CYC:" in text
        assert "main" in text

    def test_recursive_top_list_uses_exposed_sums(self):
        exp = Experiment.from_program(fig1.build())
        text = exp.describe()
        # g must show 9 (exposed), not 14 (double-counted chain)
        g_line = next(l for l in text.splitlines() if l.strip().startswith("g "))
        assert "9" in g_line and "90.0%" in g_line


class TestFromSampler:
    def test_single_thread_mode(self):
        sampler = SamplingProfiler(period=0.001)
        sampler._target_tid = threading.get_ident()

        def leaf():
            return sampler.sample_once()

        leaf()
        structure = StructureModel("live")
        exp = Experiment.from_sampler(sampler, structure, name="live run")
        assert exp.name == "live run"
        assert exp.nranks == 1

    def test_all_threads_mode_builds_per_thread_trees(self):
        stop = threading.Event()

        def worker():
            x = 0.0
            while not stop.is_set():
                x += 1
            return x

        thread = threading.Thread(target=worker, daemon=True)
        sampler = SamplingProfiler(period=0.002, all_threads=True)
        thread.start()
        try:
            with sampler:
                time.sleep(0.2)
        finally:
            stop.set()
            thread.join()
        structure = StructureModel("live")
        exp = Experiment.from_sampler(sampler, structure)
        assert exp.nranks >= 2  # worker + main thread
        assert exp.cct.root.inclusive  # merged costs present


class TestNameSort:
    def test_alphabetical_ordering(self):
        exp = Experiment.from_program(s3d.build())
        view = exp.calling_context_view()
        state = NavigationState(view)
        state.expand(view.roots[0])
        state.sort_by_name()
        rows = [r.name for r, d in state.visible_rows() if d == 1]
        assert rows == sorted(rows)

    def test_metric_sort_restores(self):
        exp = Experiment.from_program(s3d.build())
        view = exp.calling_context_view()
        state = NavigationState(view)
        state.expand(view.roots[0])
        state.sort_by_name()
        state.sort_by(MetricSpec(0, MetricFlavor.INCLUSIVE))
        rows = [r for r, d in state.visible_rows() if d == 1]
        values = [view.value(r, state.column) for r in rows]
        assert values == sorted(values, reverse=True)


class TestRankExperiment:
    def test_single_rank_extraction(self):
        from repro.sim.spmd import spmd_experiment
        from repro.sim.workloads import pflotran
        from repro.hpcrun.counters import CYCLES

        exp = spmd_experiment(pflotran.build(), nranks=8)
        vec = exp.rank_vector(exp.cct.root, CYCLES)
        worst = int(vec.argmax())
        solo = exp.rank_experiment(worst)
        assert f"[rank {worst}]" in solo.name
        assert solo.nranks == 1
        assert solo.total(CYCLES) == pytest.approx(vec[worst])
        # the solo experiment supports the full analysis surface
        result = solo.hot_path(CYCLES)
        assert result.hotspot_value > 0

    def test_bounds_and_serial_rejection(self):
        from repro.errors import ViewError
        from repro.sim.spmd import spmd_experiment
        from repro.sim.workloads import pflotran

        exp = spmd_experiment(pflotran.build(), nranks=2)
        with pytest.raises(ViewError):
            exp.rank_experiment(5)
        serial = Experiment.from_program(s3d.build())
        with pytest.raises(ViewError):
            serial.rank_experiment(0)
