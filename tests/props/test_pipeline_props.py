"""Property-based tests: merge algebra, databases, hot path, summaries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import total
from repro.hpcprof import binio, xmlio
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import merge_ccts
from tests.oracles import Moments
from tests.oracles import hot_path_cct
from tests.props.strategies import NUM_METRICS, cct_experiments


def snapshot(cct):
    out = []

    def visit(node, depth):
        out.append((
            depth, node.kind.value,
            node.struct.name if node.struct is not None else None,
            node.line,
            tuple(sorted((k, round(v, 6)) for k, v in node.raw.items())),
            tuple(sorted((k, round(v, 6)) for k, v in node.inclusive.items())),
            tuple(sorted((k, round(v, 6)) for k, v in node.exclusive.items())),
        ))
        for child in sorted(node.children, key=lambda c: c.key):
            visit(child, depth + 1)

    visit(cct.root, 0)
    return tuple(out)


class TestMergeAlgebra:
    @settings(max_examples=30, deadline=None)
    @given(a=cct_experiments(), b=cct_experiments())
    def test_merge_totals_add(self, a, b):
        # both strategies build against their own structure models; merge
        # requires a shared model, so merge a tree with itself and with b's
        # re-rooted copy is out of scope — totals additivity uses a+a.
        cct_a, _m, _t = a
        merged = merge_ccts([cct_a, cct_a])
        for mid in range(NUM_METRICS):
            assert merged.root.inclusive.get(mid, 0.0) == pytest.approx(
                2 * cct_a.root.inclusive.get(mid, 0.0)
            )

    @settings(max_examples=30, deadline=None)
    @given(a=cct_experiments(), n=st.integers(min_value=1, max_value=4))
    def test_merge_idempotent_shape(self, a, n):
        cct_a, _m, _t = a
        merged = merge_ccts([cct_a] * n)
        assert len(merged) == len(cct_a)

    @settings(max_examples=30, deadline=None)
    @given(a=cct_experiments())
    def test_merge_associativity_with_self(self, a):
        cct_a, _m, _t = a
        left = merge_ccts([merge_ccts([cct_a, cct_a]), cct_a])
        flat = merge_ccts([cct_a, cct_a, cct_a])
        assert snapshot(left) == snapshot(flat)


class TestDatabaseRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(data=cct_experiments())
    def test_binary_round_trip_identity(self, data):
        cct, model, metrics = data
        exp = Experiment("prop", metrics, model, cct)
        loaded = binio.loads_binary(binio.dumps_binary(exp))
        assert snapshot(loaded.cct) == snapshot(exp.cct)

    @settings(max_examples=25, deadline=None)
    @given(data=cct_experiments())
    def test_xml_round_trip_identity(self, data):
        cct, model, metrics = data
        exp = Experiment("prop", metrics, model, cct)
        loaded = xmlio.loads_xml(xmlio.dumps_xml(exp))
        assert snapshot(loaded.cct) == snapshot(exp.cct)

    @settings(max_examples=25, deadline=None)
    @given(data=cct_experiments())
    def test_formats_agree(self, data):
        cct, model, metrics = data
        exp = Experiment("prop", metrics, model, cct)
        via_bin = binio.loads_binary(binio.dumps_binary(exp))
        via_xml = xmlio.loads_xml(xmlio.dumps_xml(exp))
        assert snapshot(via_bin.cct) == snapshot(via_xml.cct)


class TestHotPathProps:
    @settings(max_examples=40, deadline=None)
    @given(data=cct_experiments(),
           threshold=st.floats(min_value=0.05, max_value=1.0))
    def test_path_connected_and_noninflating(self, data, threshold):
        cct, _m, _t = data
        result = hot_path_cct(cct.root, mid=0, threshold=threshold)
        assert result.path[0] is cct.root
        for parent, child in zip(result.path, result.path[1:]):
            assert child in parent.children
        values = list(result.values)
        assert values == sorted(values, reverse=True)

    @settings(max_examples=40, deadline=None)
    @given(data=cct_experiments())
    def test_termination_condition(self, data):
        """At the hotspot, no child reaches the threshold share."""
        cct, _m, _t = data
        result = hot_path_cct(cct.root, mid=0, threshold=0.5)
        hotspot = result.hotspot
        value = result.hotspot_value
        if hotspot.children and value > 0:
            heaviest = max(
                c.inclusive.get(0, 0.0) for c in hotspot.children
            )
            assert heaviest < 0.5 * value

    @settings(max_examples=40, deadline=None)
    @given(data=cct_experiments(),
           t_low=st.floats(min_value=0.05, max_value=0.45),
           t_high=st.floats(min_value=0.55, max_value=1.0))
    def test_lower_threshold_never_shorter(self, data, t_low, t_high):
        cct, _m, _t = data
        low = hot_path_cct(cct.root, mid=0, threshold=t_low)
        high = hot_path_cct(cct.root, mid=0, threshold=t_high)
        assert len(low) >= len(high)


class TestMomentsProps:
    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=40,
        ),
        split=st.integers(min_value=0, max_value=40),
    )
    def test_merge_equals_batch(self, values, split):
        split = min(split, len(values))
        a = Moments.of(values[:split])
        b = Moments.of(values[split:])
        a.merge(b)
        ref = Moments.of(values)
        assert a.count == ref.count
        assert a.mean == pytest.approx(ref.mean, rel=1e-9, abs=1e-6)
        assert a.stddev == pytest.approx(ref.stddev, rel=1e-6, abs=1e-6)
        assert a.minimum == ref.minimum and a.maximum == ref.maximum

    @settings(max_examples=60, deadline=None)
    @given(
        chunks=st.lists(
            st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False),
                     min_size=0, max_size=10),
            min_size=2, max_size=6,
        )
    )
    def test_merge_is_order_independent(self, chunks):
        import itertools

        forward = Moments()
        for chunk in chunks:
            forward.merge(Moments.of(chunk))
        backward = Moments()
        for chunk in reversed(chunks):
            backward.merge(Moments.of(chunk))
        assert forward.count == backward.count
        assert forward.mean == pytest.approx(backward.mean, abs=1e-6)
        assert forward.m2 == pytest.approx(backward.m2, rel=1e-6, abs=1e-6)
