"""Unit tests for metric descriptors, tables and sparse arithmetic."""

from __future__ import annotations

import pytest

from repro.errors import MetricError
from repro.core.metrics import (
    MetricDescriptor,
    MetricFlavor,
    MetricKind,
    MetricSpec,
    MetricTable,
    add_into,
    scale,
    total,
)


class TestMetricTable:
    def test_dense_sequential_ids(self):
        table = MetricTable()
        assert table.add("a").mid == 0
        assert table.add("b").mid == 1
        assert len(table) == 2
        assert table.names() == ["a", "b"]

    def test_duplicate_name_rejected(self):
        table = MetricTable()
        table.add("cycles")
        with pytest.raises(MetricError):
            table.add("cycles")

    def test_lookup(self):
        table = MetricTable()
        cyc = table.add("cycles", unit="cycles", period=2.0)
        assert table.by_id(0) is cyc
        assert table.by_name("cycles") is cyc
        assert "cycles" in table
        with pytest.raises(MetricError):
            table.by_id(3)
        with pytest.raises(MetricError):
            table.by_name("nope")

    def test_spec_helper(self):
        table = MetricTable()
        table.add("cycles")
        spec = table.spec("cycles", MetricFlavor.EXCLUSIVE)
        assert spec == MetricSpec(0, MetricFlavor.EXCLUSIVE)
        assert str(spec) == "0E"

    def test_copy_is_independent(self):
        table = MetricTable()
        table.add("a")
        clone = table.copy()
        clone.add("b")
        assert len(table) == 1 and len(clone) == 2

    def test_add_descriptor_reassigns_id(self):
        table = MetricTable()
        table.add("x")
        desc = MetricDescriptor(mid=0, name="y", unit="u")
        added = table.add_descriptor(desc)
        assert added.mid == 1
        assert added.unit == "u"


class TestDescriptorValidation:
    def test_negative_id(self):
        with pytest.raises(MetricError):
            MetricDescriptor(mid=-1, name="x")

    def test_empty_name(self):
        with pytest.raises(MetricError):
            MetricDescriptor(mid=0, name="")

    def test_nonpositive_period(self):
        with pytest.raises(MetricError):
            MetricDescriptor(mid=0, name="x", period=0.0)

    def test_derived_requires_formula(self):
        with pytest.raises(MetricError):
            MetricDescriptor(mid=0, name="x", kind=MetricKind.DERIVED)


class TestSparseArithmetic:
    def test_add_into(self):
        dst = {0: 1.0}
        add_into(dst, {0: 2.0, 1: 3.0})
        assert dst == {0: 3.0, 1: 3.0}

    def test_add_into_with_factor(self):
        dst = {}
        add_into(dst, {0: 2.0}, factor=-0.5)
        assert dst == {0: -1.0}

    def test_add_into_drops_exact_zeros(self):
        dst = {0: 1.0}
        add_into(dst, {0: -1.0})
        assert dst == {}

    def test_scale(self):
        assert scale({0: 2.0, 1: 4.0}, 0.5) == {0: 1.0, 1: 2.0}
        assert scale({0: 2.0}, 0.0) == {}

    def test_total(self):
        assert total([{0: 1.0}, {0: 2.0, 1: 1.0}, {}]) == {0: 3.0, 1: 1.0}

    def test_flavor_short_names(self):
        assert MetricFlavor.INCLUSIVE.short == "I"
        assert MetricFlavor.EXCLUSIVE.short == "E"
