"""Differential properties: dict engine vs columnar engine vs mmap store.

The out-of-core tier promises *bit-identical* presentation: the same
CCT pushed through (a) the per-node dict engine, (b) the in-memory
columnar :class:`MetricEngine`, and (c) the mmap-backed column store
must produce identical Eq. 1/2 attribution, identical recursion sums,
identical hot-path selections and byte-identical rendered tables — and
the streaming k-way merge must match the in-memory merge exactly.
Hypothesis drives random canonical CCTs through all paths at once.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import given, settings

from repro.core.metrics import MetricFlavor, MetricSpec
from repro.core.store import create_store
from repro.hpcprof import binio, database
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import merge_experiments, merge_rank_files
from repro.viewer.table import TableOptions, render_view
from tests.file_backing import is_file_backed
from tests.props.strategies import NUM_METRICS, cct_experiments

_OPTS = TableOptions(max_rows=200, name_width=56)


def _renders(exp: Experiment) -> list[str]:
    spec = MetricSpec(0, MetricFlavor.INCLUSIVE)
    return [render_view(v, metric=spec, depth=5, options=_OPTS)
            for v in exp.views()]


def _node_values(exp: Experiment) -> list[tuple]:
    return [
        (node.kind.value, node.line,
         dict(node.raw), dict(node.inclusive), dict(node.exclusive))
        for node in exp.cct.walk()
    ]


@settings(max_examples=20, deadline=None)
@given(data=cct_experiments())
def test_store_round_trip_is_bit_identical(data):
    """In-memory experiment vs its mmap store: same attribution, same
    recursion sums, same hot paths, byte-identical rendered views."""
    cct, model, metrics = data
    exp = Experiment("prop", metrics, model, cct)
    with tempfile.TemporaryDirectory() as tmp:
        store_exp = create_store(exp, os.path.join(tmp, "s.rpstore"))
        try:
            # Eq. 1/2 attribution, node for node, bit-exact (== on floats)
            assert _node_values(exp) == _node_values(store_exp)
            # recursion sums survive: root-frame inclusives (which fold
            # recursive instances exactly once) agree bit-for-bit
            for a, b in zip(exp.cct.root.children, store_exp.cct.root.children):
                assert dict(a.inclusive) == dict(b.inclusive)
            assert _renders(exp) == _renders(store_exp)
            # the store engine really is the mmap one, not a fallback
            assert is_file_backed(store_exp.engine.raw)
            for mid in range(NUM_METRICS):
                a = exp.hot_path(metrics.by_id(mid).name)
                b = store_exp.hot_path(metrics.by_id(mid).name)
                assert [n.name for n in a.path] == [n.name for n in b.path]
                assert a.values == b.values
        finally:
            store_exp.close()


@settings(max_examples=20, deadline=None)
@given(data=cct_experiments())
def test_columnar_engine_matches_node_dicts(data):
    """The columnar matrices agree element-wise with the per-node dicts
    (the dict gather IS the engine's source here; this pins the row
    order and the dense scatter against the tree)."""
    cct, model, metrics = data
    exp = Experiment("prop", metrics, model, cct)
    engine = exp.engine
    for row, node in enumerate(engine.nodes):
        for mid in range(NUM_METRICS):
            assert engine.raw[row, mid] == node.raw.get(mid, 0.0)
            assert engine.inclusive[row, mid] == node.inclusive.get(mid, 0.0)
            assert engine.exclusive[row, mid] == node.exclusive.get(mid, 0.0)


@settings(max_examples=20, deadline=None)
@given(data=cct_experiments())
def test_salvage_of_intact_dump_matches_strict(data):
    """strict=False on an intact database is presentation-identical to
    strict=True, for both binary format versions."""
    cct, model, metrics = data
    exp = Experiment("prop", metrics, model, cct)
    for version in (1, 2):
        blob = binio.dumps_binary(exp, version=version)
        strict = database.loads(blob, strict=True)
        salvaged = database.loads(blob, strict=False)
        assert _renders(strict) == _renders(salvaged)
        assert _node_values(strict) == _node_values(salvaged)


@settings(max_examples=10, deadline=None)
@given(data=cct_experiments(), data2=cct_experiments())
def test_streaming_merge_matches_in_memory_merge(data, data2):
    """merge_rank_files (bounded-memory, mmap store) vs merge_experiments
    (all in RAM): same union CCT, same Eq. 1/2 values, same summary
    statistics, byte-identical views."""
    ranks = []
    for i, (cct, model, metrics) in enumerate((data, data2, data)):
        ranks.append(Experiment(f"r{i}", metrics, model, cct))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, exp in enumerate(ranks):
            path = os.path.join(tmp, f"rank{i}.rpdb")
            database.save(exp, path)
            paths.append(path)
        loaded = [database.load(p) for p in paths]
        reference = merge_experiments(loaded, name="merged", summarize="all")
        merge_rank_files(paths, os.path.join(tmp, "m.rpstore"),
                         name="merged", summarize="all")
        streamed = database.load(os.path.join(tmp, "m.rpstore"))
        try:
            assert _node_values(reference) == _node_values(streamed)
            assert _renders(reference) == _renders(streamed)
            assert streamed.nranks == 3
            # per-rank vectors match what each input contributed
            ref_nodes = list(reference.cct.walk())
            st_nodes = list(streamed.cct.walk())
            for rn, sn in zip(ref_nodes[:25], st_nodes[:25]):
                for mid in range(NUM_METRICS):
                    name = reference.metrics.by_id(mid).name
                    a = reference.rank_vector(rn, name)
                    b = streamed.rank_vector(sn, name)
                    assert np.array_equal(a, b)
        finally:
            streamed.close()
