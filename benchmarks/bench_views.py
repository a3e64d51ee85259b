"""Benchmark view construction across CCT shape families.

Complements ``bench_scalability.py``: measures how each of the three
views scales with tree *shape* (deep chains, wide fans, recursion
ladders), since their construction costs stress different code paths —
the Callers View walks caller chains, the Flat View merges instances,
and the exposed-instance filter degrades with recursion depth.
"""

from __future__ import annotations

import pytest

from repro.hpcprof.experiment import Experiment
from repro.sim.workloads.synthetic import (
    deep_chain,
    recursive_ladder,
    uniform_tree,
    wide_flat,
)

_SHAPES = {
    "tree-6x3": lambda: uniform_tree(6, 3),
    "chain-120": lambda: deep_chain(120),
    "wide-400": lambda: wide_flat(400),
    "ladder-40x4": lambda: recursive_ladder(depth=40, contexts=4),
}


@pytest.fixture(scope="module", params=sorted(_SHAPES))
def experiment(request):
    return request.param, Experiment.from_program(_SHAPES[request.param]())


def test_bench_ccview_materialize(benchmark, experiment):
    _name, exp = experiment

    def build():
        view = exp.calling_context_view()
        return sum(1 for r in view.roots for _ in r.walk())

    assert benchmark(build) > 0


def test_bench_callers_materialize(benchmark, experiment):
    _name, exp = experiment

    def build():
        view = exp.callers_view(eager=True)
        return len(view.roots)

    assert benchmark(build) > 0


def test_bench_flat_materialize(benchmark, experiment):
    _name, exp = experiment

    def build():
        view = exp.flat_view()
        return sum(1 for r in view.roots for _ in r.walk())

    assert benchmark(build) > 0


def test_bench_search(benchmark, experiment):
    from repro.query import query

    _name, exp = experiment
    view = exp.calling_context_view()
    ranked = query("*").sort().limit(10)
    hits = benchmark(lambda: ranked.run(view))
    assert hits.row_count
