"""Tests for the measurement substrate: tracer, sampler, unwinding."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.errors import ProfilerError
from repro.hpcprof.experiment import Experiment
from repro.hpcrun.sampler import SamplingProfiler, sample_call
from repro.hpcrun.tracer import TracingProfiler, trace_call
from repro.hpcrun.unwind import FOREIGN_PROC
from repro.hpcstruct.pystruct import build_python_structure
from tests.hpcrun import target_workload

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = os.path.abspath(target_workload.__file__)


class TestTracingProfiler:
    @pytest.fixture(scope="class")
    def traced(self):
        result, profile = trace_call(target_workload.entry, 50, roots=[HERE])
        return result, profile

    def test_result_passthrough(self, traced):
        result, _ = traced
        assert result == target_workload.entry(50)

    def test_deterministic_event_counts(self):
        _, p1 = trace_call(target_workload.entry, 30, roots=[HERE])
        _, p2 = trace_call(target_workload.entry, 30, roots=[HERE])
        events = p1.metrics.by_name("line events").mid
        assert p1.totals()[events] == p2.totals()[events]

    def test_paths_reach_inner_kernel(self, traced):
        _, profile = traced
        leaf_procs = set()
        for frames, _line, _costs in profile.paths():
            leaf_procs.add(frames[-1].proc)
        assert "inner_kernel" in leaf_procs
        assert "entry" in leaf_procs

    def test_recursion_produces_nested_frames(self, traced):
        _, profile = traced
        depths = [
            sum(1 for f in frames if f.proc == "recursive")
            for frames, _l, _c in profile.paths()
        ]
        assert max(depths) == 4  # recursive(3, .) -> 4 nested activations

    def test_method_qualname(self, traced):
        _, profile = traced
        procs = {f.proc for frames, _l, _c in profile.paths() for f in frames}
        assert "Helper.method" in procs

    def test_nested_start_rejected(self):
        tracer = TracingProfiler()
        tracer.start()
        try:
            with pytest.raises(ProfilerError):
                tracer.start()
        finally:
            tracer.stop()

    def test_stop_idempotent(self):
        tracer = TracingProfiler()
        tracer.start()
        tracer.stop()
        tracer.stop()  # must not raise

    def test_full_pipeline_to_views(self, traced):
        """Trace -> AST structure -> correlate -> views on real Python code."""
        _, profile = traced
        structure = build_python_structure([TARGET], load_module="target")
        exp = Experiment.from_profile(profile, structure, name="traced run")
        events = "line events"
        # the inner kernel dominates the line-event count via middle()
        callers = exp.callers_view()
        kernel = next(r for r in callers.roots if r.name == "inner_kernel")
        caller_names = {c.name for c in kernel.children}
        assert {"middle", "recursive", "Helper.method"} <= caller_names
        # the loop inside inner_kernel appears as a loop scope
        from repro.core.views import NodeCategory

        flat = exp.flat_view()
        kernel_flat = flat.find("inner_kernel", category=NodeCategory.PROCEDURE)
        loops = [c for c in kernel_flat.children if c.category.value == "loop"]
        assert loops, "inner_kernel's for-loop must appear in the Flat View"
        mid = exp.metric_id(events)
        assert loops[0].inclusive[mid] > 0


class TestSamplingProfiler:
    def test_samples_attribute_to_busy_function(self):
        def busy():
            deadline = time.perf_counter() + 0.25
            x = 0.0
            while time.perf_counter() < deadline:
                x += 1.0
            return x

        sampler = SamplingProfiler(period=0.002)
        with sampler:
            busy()
        assert sampler.samples_taken > 10
        leaf_procs = [
            frames[-1].proc for frames, _l, _c in sampler.profile.paths()
        ]
        assert any("busy" in p for p in leaf_procs)

    def test_sample_once_deterministic_path(self):
        sampler = SamplingProfiler(period=0.001)
        sampler._target_tid = threading.get_ident()

        def leaf():
            return sampler.sample_once()

        def caller():
            return leaf()

        assert caller() is True
        paths = list(sampler.profile.paths())
        assert len(paths) == 1
        frames, _line, costs = paths[0]
        names = [f.proc for f in frames]  # qualnames include '<locals>'
        caller_idx = next(i for i, n in enumerate(names) if n.endswith(".caller"))
        leaf_idx = next(i for i, n in enumerate(names) if n.endswith(".leaf"))
        assert caller_idx < leaf_idx
        assert costs == {0: 0.001}

    def test_cost_equals_samples_times_period(self):
        sampler = SamplingProfiler(period=0.004)
        sampler._target_tid = threading.get_ident()
        for _ in range(5):
            sampler.sample_once()
        total = sampler.profile.totals()[0]
        assert total == pytest.approx(5 * 0.004)

    def test_sampling_missing_thread_returns_false(self):
        sampler = SamplingProfiler()
        sampler._target_tid = 2**60  # no such thread
        assert sampler.sample_once() is False

    def test_invalid_period(self):
        with pytest.raises(ProfilerError):
            SamplingProfiler(period=0.0)

    def test_foreign_collapse(self):
        sampler = SamplingProfiler(period=0.001, roots=[HERE])
        sampler._target_tid = threading.get_ident()

        called = target_workload.entry(5)  # warm import path
        assert called

        def in_roots_leaf():
            return sampler.sample_once()

        # this test file is under HERE, so frames above are foreign-collapsed
        assert in_roots_leaf() is True
        frames, _l, _c = next(iter(sampler.profile.paths()))
        assert frames[0].proc == FOREIGN_PROC or frames[0].proc.startswith("Test")

    def test_sample_call_helper(self):
        result, profile = sample_call(target_workload.entry, 2000, period=0.001)
        assert result == target_workload.entry(2000)
        assert profile.metrics.by_name("wall time (s)").period == 0.001
