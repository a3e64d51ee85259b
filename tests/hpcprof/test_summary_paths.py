"""Differential battery: every summary path steps one recurrence.

The same rank set is summarized five ways —

* ``Experiment.summarize`` on an in-memory merge;
* ``merge_experiments(..., summarize="all")``;
* ``merge_rank_files`` into a column store;
* ``StoreExperiment.summarize`` on a ``create_store`` store built
  without summaries;
* the ``EnsembleView`` statistics of the same rows (members = ranks);

— and the summary columns must agree ``float.hex`` by ``float.hex``, in
node-dict key order, scope by scope.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attribution import attribute
from repro.core.ensemble import EnsembleView
from repro.core.metrics import MetricKind
from repro.core.store import create_store
from repro.hpcprof import database
from repro.hpcprof.align import align_members
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import merge_experiments, merge_rank_files
from repro.sim.scale import generate_rank_files
from tests.props.strategies import NUM_METRICS, cct_experiments


def _shape(exp) -> list[tuple]:
    return [(node.kind.value, node.name, node.line) for node in exp.cct.walk()]


def _summary_bits(exp) -> list[tuple]:
    """Every scope's summary entries as ``(mid, float.hex)``, key order kept."""
    summary = {d.mid for d in exp.metrics if d.kind is MetricKind.SUMMARY}
    return [
        tuple(
            [(mid, float(v).hex()) for mid, v in values.items()
             if mid in summary]
            for values in (node.inclusive, node.exclusive)
        )
        for node in exp.cct.walk()
    ]


def _stats_bits(ensemble: EnsembleView, metric: str, flavor: str) -> list:
    """``EnsembleView.stats`` laid out like one flavor's summary cells:
    rows no member touched carry no entries."""
    stats = ensemble.stats(metric, flavor)
    matrix = ensemble.matrix(metric, flavor)
    touched = (matrix != 0.0).any(axis=0)
    return [
        [float(a[row]).hex()
         for a in (stats.mean, stats.minimum, stats.maximum, stats.stddev)]
        if touched[row] else []
        for row in range(len(ensemble.nodes))
    ]


def _expected_stats(reference: list[tuple], column: int, ids) -> list:
    """One flavor's summary cells of one metric, from :func:`_summary_bits`."""
    out = []
    for node in reference:
        cells = dict(node[column])
        out.append([cells[mid] for mid in ids.all()] if ids.mean in cells
                   else [])
    return out


def assert_every_path_agrees(ranks: list[Experiment], tmp: str) -> list:
    """Run all five paths; return the reference summary bits."""
    paths = []
    for i, exp in enumerate(ranks):
        path = os.path.join(tmp, f"rank{i}.rpdb")
        database.save(exp, path)
        paths.append(path)
    names = [d.name for d in ranks[0].metrics if d.kind is MetricKind.RAW]

    merged = merge_experiments(ranks, summarize="all")
    reference = _summary_bits(merged)

    in_memory = merge_experiments(ranks)
    for name in names:
        in_memory.summarize(name)
    assert _shape(in_memory) == _shape(merged)
    assert _summary_bits(in_memory) == reference

    store_path = os.path.join(tmp, "m.rpstore")
    merge_rank_files(paths, store_path, summarize="all")
    stored = database.load(store_path)
    try:
        assert _shape(stored) == _shape(merged)
        assert _summary_bits(stored) == reference
    finally:
        stored.close()

    created = create_store(merge_experiments(ranks),
                           os.path.join(tmp, "c.rpstore"))
    try:
        for name in names:
            created.summarize(name)
        assert _summary_bits(created) == reference
    finally:
        created.close()

    if len(ranks) < 2:
        return reference  # an ensemble needs two members
    ensemble = EnsembleView(align_members(ranks))
    for name in names:
        ids = ensemble.attach_stats(name)
        for flavor, column in (("inclusive", 0), ("exclusive", 1)):
            assert _stats_bits(ensemble, name, flavor) == _expected_stats(
                reference, column, ids)
    assert _shape(ensemble.union) == _shape(merged)
    assert _summary_bits(ensemble.union) == reference
    return reference


@pytest.mark.parametrize("nranks", [1, 2, 13])
@pytest.mark.parametrize("imbalance", ["linear_skew", "hotspot",
                                       "lognormal_field"])
def test_generated_rank_sets(tmp_path, nranks, imbalance):
    paths = generate_rank_files(str(tmp_path / "ranks"), nranks, fanout=3,
                                depth=3, imbalance=imbalance)
    ranks = [database.load(p) for p in paths]
    reference = assert_every_path_agrees(ranks, str(tmp_path))
    assert reference[0][0]  # the root's inclusive cells are summarized


@settings(max_examples=15, deadline=None)
@given(drawn=st.lists(cct_experiments(), min_size=1, max_size=4),
       zeros=st.data())
def test_random_rank_sets_with_explicit_zeros(drawn, zeros):
    ranks = []
    for i, (cct, model, metrics) in enumerate(drawn):
        for node in cct.walk():
            if zeros.draw(st.booleans()):
                node.raw[zeros.draw(st.integers(0, NUM_METRICS - 1))] = 0.0
        attribute(cct)
        cct.invalidate_caches()
        ranks.append(Experiment(f"r{i}", metrics, model, cct))
    with tempfile.TemporaryDirectory() as tmp:
        assert_every_path_agrees(ranks, tmp)
