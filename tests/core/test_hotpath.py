"""Unit tests for hot path analysis (Eq. 3)."""

from __future__ import annotations

import pytest

from repro.core.attribution import attribute
from repro.core.ccview import CallingContextView
from repro.errors import ViewError
from repro.core.hotpath import hot_path, hot_path_generic
from repro.core.metrics import MetricFlavor, MetricSpec
from repro.hpcprof.correlate import correlate
from repro.hpcstruct.synthstruct import build_structure
from repro.sim.executor import execute
from repro.sim.workloads import fig1
from tests.oracles import hot_path_cct


class Node:
    """Minimal tree node for exercising the generic algorithm."""

    def __init__(self, name, value, children=()):
        self.name = name
        self.value = value
        self.children = list(children)


def vfn(node):
    return node.value


def cfn(node):
    return node.children


class TestGenericHotPath:
    def test_descends_while_above_threshold(self):
        leaf = Node("leaf", 60)
        mid = Node("mid", 80, [leaf, Node("cold", 10)])
        root = Node("root", 100, [mid, Node("other", 20)])
        result = hot_path_generic(root, vfn, cfn)
        assert [n.name for n in result.path] == ["root", "mid", "leaf"]
        assert result.hotspot.name == "leaf"
        assert result.values == (100.0, 80.0, 60.0)

    def test_stops_when_cost_disperses(self):
        # three children at 33% each: no child reaches 50% of the parent
        root = Node("root", 99, [Node(f"c{i}", 33) for i in range(3)])
        result = hot_path_generic(root, vfn, cfn)
        assert result.hotspot is root
        assert len(result) == 1

    def test_threshold_is_inclusive_boundary(self):
        # child at exactly t x parent extends the path (Eq. 3 uses >=)
        child = Node("child", 50)
        root = Node("root", 100, [child])
        result = hot_path_generic(root, vfn, cfn, threshold=0.5)
        assert result.hotspot is child

    def test_lower_threshold_descends_further(self):
        c2 = Node("c2", 12)
        c1 = Node("c1", 40, [c2])
        root = Node("root", 100, [c1])
        high = hot_path_generic(root, vfn, cfn, threshold=0.5)
        low = hot_path_generic(root, vfn, cfn, threshold=0.25)
        assert high.hotspot is root
        assert low.hotspot is c2

    def test_zero_value_parent_stops(self):
        root = Node("root", 0, [Node("c", 0)])
        result = hot_path_generic(root, vfn, cfn)
        assert result.hotspot is root

    def test_invalid_threshold_rejected(self):
        root = Node("root", 1)
        with pytest.raises(ViewError):
            hot_path_generic(root, vfn, cfn, threshold=0.0)
        with pytest.raises(ViewError):
            hot_path_generic(root, vfn, cfn, threshold=1.5)

    def test_ties_resolve_deterministically_to_first_max(self):
        a = Node("a", 50)
        b = Node("b", 50)
        root = Node("root", 100, [a, b])
        result = hot_path_generic(root, vfn, cfn)
        assert result.hotspot is a


class TestHotPathOnViews:
    @pytest.fixture(scope="class")
    def setup(self):
        program = fig1.build()
        profile = execute(program)
        structure = build_structure(program)
        cct = correlate(profile, structure)
        attribute(cct)
        mid = profile.metrics.by_name(fig1.METRIC).mid
        return cct, profile.metrics, mid

    def test_cct_hot_path_finds_planted_bottleneck(self, setup):
        cct, _, mid = setup
        result = hot_path_cct(cct.root, mid)
        names = [n.name for n in result.path]
        # the raw CCT path interleaves frames with call-site scopes:
        # root -> m -> cs:7 -> f -> cs:2 -> g1 -> cs:3 -> g2 -> cs:4 -> h ...
        assert names[0] == "<program root>"
        assert names[1] == "m"
        frame_names = [
            n.name for n in result.path if n.kind.value == "procedure-frame"
        ]
        assert frame_names == ["m", "f", "g", "g", "h"]
        assert result.hotspot_value == 4.0
        assert result.hotspot.kind.value == "statement"

    def test_view_hot_path_spans_fused_call_chain(self, setup):
        cct, metrics, mid = setup
        view = CallingContextView(cct, metrics)
        spec = MetricSpec(mid, MetricFlavor.INCLUSIVE)
        result = hot_path(view, spec)
        names = [n.name for n in result.path]
        assert names[0] == "m"
        assert "g" in names and "h" in names
        assert result.values[0] == 10.0

    def test_hot_path_from_subtree(self, setup):
        """Hot path analysis applies at any subtree, not just the root."""
        cct, metrics, mid = setup
        view = CallingContextView(cct, metrics)
        spec = MetricSpec(mid, MetricFlavor.INCLUSIVE)
        g3 = next(
            r for r in view.roots[0].children if r.name == "g" and
            view.value(r, spec) == 3.0
        )
        result = hot_path(view, spec, start=g3)
        assert result.path[0] is g3
        assert result.hotspot_value == 3.0

    def test_path_is_connected(self, setup):
        cct, _, mid = setup
        result = hot_path_cct(cct.root, mid)
        for parent, node in zip(result.path, result.path[1:]):
            assert node in parent.children
