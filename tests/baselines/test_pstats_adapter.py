"""Tests for the cProfile/pstats adapter."""

from __future__ import annotations

import cProfile
import pstats
import time

import pytest

from repro.baselines.pstats_adapter import gprof_from_pstats, profile_with_cprofile
from repro.errors import ReproError


def busy(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


def fast_path():
    return busy(1_000)


def slow_path():
    return busy(400_000)


def driver():
    return fast_path() + slow_path()


class TestAdapter:
    @pytest.fixture(scope="class")
    def gprof(self):
        _result, gprof = profile_with_cprofile(driver)
        return gprof

    def test_functions_present(self, gprof):
        assert "busy" in gprof.self_cost
        assert "fast_path" in gprof.self_cost
        assert "slow_path" in gprof.self_cost

    def test_arc_call_counts_exact(self, gprof):
        assert gprof.arc_calls[("fast_path", "busy")] == 1.0
        assert gprof.arc_calls[("slow_path", "busy")] == 1.0
        assert gprof.arc_calls[("driver", "fast_path")] == 1.0

    def test_busy_self_time_dominates(self, gprof):
        assert gprof.self_cost["busy"] > gprof.self_cost["driver"]

    def test_count_proportional_misattribution(self, gprof):
        """cProfile's model splits busy's time 50/50 between the two
        callers despite a 400:1 work ratio — the gprof blind spot, now
        demonstrated with the stdlib profiler itself."""
        fast = gprof.caller_share("fast_path", "busy")
        slow = gprof.caller_share("slow_path", "busy")
        assert fast == pytest.approx(slow)

    def test_accepts_stats_object(self):
        profiler = cProfile.Profile()
        profiler.runcall(driver)
        gprof = gprof_from_pstats(pstats.Stats(profiler))
        assert "busy" in gprof.self_cost

    def test_recursion_detected(self):
        def rec(n):
            return 0 if n == 0 else rec(n - 1) + busy(10)

        _res, gprof = profile_with_cprofile(rec, 5)
        assert gprof.in_cycle("rec")
        assert not gprof.in_cycle("busy")

    def test_rejects_other_objects(self):
        with pytest.raises(ReproError):
            gprof_from_pstats(object())

    def test_report_renders(self, gprof):
        text = gprof.report(top=5)
        assert "flat profile" in text
        assert "busy" in text
