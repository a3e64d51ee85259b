"""Trace mode of the measurement substrate: timestamped call-path
samples out of the exact tracer and the wall-clock sampler, feeding the
same TraceSet/window pipeline the simulator uses."""

from __future__ import annotations

import os

import pytest

from repro.errors import ProfilerError
from repro.hpcrun.sampler import SamplingProfiler
from repro.hpcrun.tracer import TracingProfiler
from repro.hpcstruct.pystruct import build_python_structure
from repro.trace import TraceSet
from tests.hpcrun import target_workload

HERE = os.path.dirname(os.path.abspath(__file__))


def _traced_run(n=40):
    tracer = TracingProfiler(roots=[HERE], trace=True)
    with tracer:
        target_workload.entry(n)
    return tracer


class TestTracerTraceMode:
    def test_off_by_default(self):
        assert TracingProfiler().trace is None

    def test_trace_is_sealed_after_stop(self):
        tracer = _traced_run()
        assert tracer.trace.sealed
        assert tracer.trace.n_events > 0

    def test_timestamps_are_monotone_from_zero(self):
        trace = _traced_run().trace
        assert trace.t_begin >= 0.0
        assert list(trace.times) == sorted(trace.times)

    def test_event_counts_agree_with_live_profile(self):
        """The integer line-event counts are identical between the live
        profile and the trace's whole-window materialization — the
        exactness half of the contract (timings agree to within float
        summation order, asserted separately)."""
        tracer = _traced_run()
        events = tracer.metrics.by_name("line events").mid
        live = tracer.profile.totals()[events]
        materialized = tracer.trace.profile().totals()[events]
        assert live == materialized

    def test_wall_totals_agree_to_summation_order(self):
        tracer = _traced_run()
        wall = tracer.metrics.by_name("wall time (s)").mid
        live = tracer.profile.totals().get(wall, 0.0)
        materialized = tracer.trace.profile().totals().get(wall, 0.0)
        assert materialized == pytest.approx(live, rel=1e-9)

    def test_windowed_experiment_builds(self):
        tracer = _traced_run()
        structure = build_python_structure(
            [os.path.abspath(target_workload.__file__)],
            load_module="target")
        traces = TraceSet([tracer.trace], structure, name="py-trace")
        mid = (traces.t_begin + traces.t_end) / 2
        early = traces.window_experiment(None, mid)
        whole = traces.window_experiment(None, None)
        assert sum(1 for _ in early.cct.walk()) <= \
            sum(1 for _ in whole.cct.walk())


class TestSamplerTraceMode:
    def test_trace_requires_single_thread(self):
        with pytest.raises(ProfilerError, match="one thread"):
            SamplingProfiler(trace=True, all_threads=True)

    def test_deterministic_samples_land_in_trace(self):
        # an hour-long period: the background thread never fires during
        # the test, so exactly the five explicit samples are recorded
        sampler = SamplingProfiler(roots=[HERE], trace=True, period=3600.0)
        sampler.start()
        try:
            for _ in range(5):
                target_workload.entry(10)
                sampler.sample_once()
        finally:
            sampler.stop()
        assert sampler.trace.sealed
        assert sampler.trace.n_events == 5
        samples = sampler.metrics.by_name("wall time (s)").mid
        assert sampler.trace.profile().totals()[samples] == \
            pytest.approx(sampler.profile.totals()[samples], rel=1e-9)
