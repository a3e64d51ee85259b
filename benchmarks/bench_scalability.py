"""Benchmark §VII: scalable presentation — lazy construction and rendering.

The ablations behind the paper's scalability section:

* lazy vs eager Callers View construction (time to first render);
* tree-tabular rendering cost vs total CCT size (fixed visible window);
* view construction scaling across CCT sizes.
"""

from __future__ import annotations

import pytest

from repro.experiments import scalability
from repro.experiments.scalability import synthetic_tree_program
from repro.hpcprof.experiment import Experiment
from repro.viewer.navigation import NavigationState
from repro.viewer.table import TableOptions, render_table


@pytest.fixture(scope="module")
def experiment():
    return Experiment.from_program(synthetic_tree_program(fanout=8, depth=3))


def test_bench_lazy_callers_first_render(benchmark, experiment, print_report):
    def first_render():
        view = experiment.callers_view(eager=False)
        state = NavigationState(view)
        return render_table(view, state, options=TableOptions(max_rows=30))

    assert "scope" in benchmark(first_render)
    print_report(scalability.run())


def test_bench_eager_callers_first_render(benchmark, experiment):
    def first_render():
        view = experiment.callers_view(eager=True)
        state = NavigationState(view)
        return render_table(view, state, options=TableOptions(max_rows=30))

    assert "scope" in benchmark(first_render)


@pytest.mark.parametrize("depth", [2, 3])
def test_bench_render_window_vs_tree_size(benchmark, depth):
    exp = Experiment.from_program(synthetic_tree_program(fanout=8, depth=depth))
    view = exp.calling_context_view()
    state = NavigationState(view)
    state.expand_hot_path()

    out = benchmark(
        lambda: render_table(view, state, options=TableOptions(max_rows=50))
    )
    assert "p0_0" in out


@pytest.mark.parametrize("fanout", [4, 8, 12])
@pytest.mark.parametrize("backend", ["dict", "columnar"])
def test_bench_attribution_scaling(benchmark, fanout, backend):
    from repro.core.attribution import attribute_dicts
    from repro.core.engine import attribute_columnar

    exp = Experiment.from_program(synthetic_tree_program(fanout=fanout, depth=3))
    run = attribute_columnar if backend == "columnar" else attribute_dicts
    benchmark(lambda: run(exp.cct))
