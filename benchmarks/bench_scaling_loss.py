"""Benchmark §VI-A: the scaling-loss diff of a weak-scaled pair."""

from __future__ import annotations

import pytest

from repro.core.ensemble import align_experiments
from repro.experiments import scaling_loss
from repro.hpcrun.counters import CYCLES


@pytest.fixture(scope="module")
def pair():
    return scaling_loss.build_pair(small=8, big=32)


def test_bench_scaling_loss_diff(benchmark, pair, print_report):
    def run_once():
        return align_experiments(list(pair)).diff(0, 1, factor=4.0)

    loss = benchmark(run_once)
    assert loss.total(CYCLES) > 0.0
    print_report(scaling_loss.run())
