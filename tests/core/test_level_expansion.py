"""Callers and Flat rows are aggregated a level at a time.

Counts, not timings: a depth-3 render of the 1023-row scaled store makes
one batched exposed-instance kernel call for the roots and at most one
per expanded level, with the ``+`` marker probe answered from structure.
The renders must equal those of the in-memory merge the store was
written from.
"""

from __future__ import annotations

import pytest

from repro.core.engine import MetricEngine
from repro.core.views import ViewKind
from repro.hpcprof import database
from repro.hpcprof.merge import merge_experiments, merge_rank_files
from repro.sim.scale import generate_rank_files
from repro.viewer.session import ViewerSession

DEPTH = 3


@pytest.fixture(scope="module")
def scaled(tmp_path_factory):
    root = tmp_path_factory.mktemp("levels")
    paths = generate_rank_files(str(root / "ranks"), 4, fanout=4, depth=4)
    store = str(root / "scaled.rpstore")
    merge_rank_files(paths, store, summarize="all")
    ranks = [database.load(p) for p in paths]
    reference = merge_experiments(ranks, name=ranks[0].name, summarize="all")
    return store, reference


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Group counts of every batched kernel call, in call order."""
    calls: list[int] = []
    real = MetricEngine.aggregate_exposed

    def counting(self, rows, offsets):
        calls.append(len(offsets) - 1)
        return real(self, rows, offsets)

    monkeypatch.setattr(MetricEngine, "aggregate_exposed", counting)
    return calls


@pytest.mark.parametrize("kind", [ViewKind.CALLERS, ViewKind.FLAT])
def test_one_kernel_call_per_level(scaled, kernel_calls, kind):
    store, reference = scaled
    exp = database.load(store)
    try:
        assert len(exp.cct) == 1023
        session = ViewerSession(exp)
        session.view(kind).roots
        assert len(kernel_calls) == 1  # every root row in one batch
        text = session.render(kind, expand_depth=DEPTH)
        # roots, then at most one call per expanded level; the marker
        # probe on the unexpanded last level adds none
        assert len(kernel_calls) <= 1 + DEPTH
        assert sum(kernel_calls) > len(kernel_calls)  # batches, not rows
        kernel_calls.clear()
        assert session.render(kind, expand_depth=DEPTH) == text
        assert kernel_calls == []  # already expanded: nothing recomputed
    finally:
        exp.close()
    assert text == ViewerSession(reference).render(kind, expand_depth=DEPTH)


def test_callers_level_sizes(scaled, kernel_calls):
    """The Callers View of the scaled store: 17 procedures, then every
    caller row of each level in one call."""
    store, _reference = scaled
    exp = database.load(store)
    try:
        ViewerSession(exp).render(ViewKind.CALLERS, expand_depth=DEPTH)
    finally:
        exp.close()
    assert kernel_calls == [17, 52, 144, 320]
