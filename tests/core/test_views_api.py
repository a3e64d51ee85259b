"""Unit tests for the ViewNode/View API surface."""

from __future__ import annotations

import pytest

from repro.errors import ViewError
from repro.core.metrics import MetricFlavor, MetricSpec
from repro.core.views import NodeCategory, ViewNode
from repro.hpcprof.experiment import Experiment
from repro.sim.workloads import fig1, s3d


@pytest.fixture(scope="module")
def exp():
    return Experiment.from_program(s3d.build())


class TestViewNode:
    def test_lazy_expansion_runs_once(self):
        calls = []

        def expander(row):
            calls.append(row)
            return [ViewNode("child", NodeCategory.STATEMENT)]

        node = ViewNode("parent", NodeCategory.PROCEDURE, expander=expander)
        assert not node.is_expanded
        assert [c.name for c in node.children] == ["child"]
        assert node.is_expanded
        node.children
        assert len(calls) == 1
        assert node.children[0].parent is node

    def test_no_expander_means_leaf(self):
        node = ViewNode("leaf", NodeCategory.STATEMENT)
        assert node.is_leaf
        assert node.children == []

    def test_set_children_reparents(self):
        parent = ViewNode("p", NodeCategory.PROCEDURE)
        child = ViewNode("c", NodeCategory.LOOP)
        parent.set_children([child])
        assert child.parent is parent
        assert parent.depth == 0 and child.depth == 1
        assert list(child.ancestors()) == [parent]

    def test_value_flavors(self):
        node = ViewNode("n", NodeCategory.PROCEDURE,
                        inclusive={0: 10.0}, exclusive={0: 4.0})
        assert node.value(MetricSpec(0, MetricFlavor.INCLUSIVE)) == 10.0
        assert node.value(MetricSpec(0, MetricFlavor.EXCLUSIVE)) == 4.0
        assert node.value(MetricSpec(1, MetricFlavor.INCLUSIVE)) == 0.0

    def test_walk_max_depth(self, exp):
        root = exp.calling_context_view().roots[0]
        shallow = list(root.walk(max_depth=1))
        assert all(n.depth - root.depth <= 1 for n in shallow)

    def test_location(self):
        node = ViewNode("n", NodeCategory.STATEMENT, file="a.c", line=12)
        assert node.location() == "a.c:12"
        assert ViewNode("m", NodeCategory.FILE, file="a.c").location() == "a.c"


class TestViewApi:
    def test_find_category_disambiguation(self, exp):
        flat = exp.flat_view()
        row = flat.find("exp", category=NodeCategory.PROCEDURE)
        assert row.category is NodeCategory.PROCEDURE

    def test_find_missing_raises(self, exp):
        with pytest.raises(ViewError):
            exp.calling_context_view().find("not-a-scope")

    def test_find_all(self):
        e = Experiment.from_program(fig1.build())
        view = e.calling_context_view()
        assert len(view.find_all("g")) == 3
        assert view.find_all("zzz") == []

    def test_invalidate_rebuilds(self, exp):
        view = exp.calling_context_view()
        first = view.roots
        view.invalidate()
        second = view.roots
        assert first is not second
        assert [r.name for r in first] == [r.name for r in second]

    def test_totals_from_cct_root(self, exp):
        view = exp.flat_view()
        spec = exp.spec("PAPI_TOT_CYC")
        assert view.total(spec) == exp.total("PAPI_TOT_CYC")

    def test_derived_value_memoized_per_view(self, exp):
        exp.add_derived_metric("twice", "2 * $0")
        view = exp.calling_context_view()
        spec = exp.spec("twice")
        row = view.roots[0]
        value = view.value(row, spec)
        assert value == 2 * exp.total("PAPI_TOT_CYC")
        # memoized on the view, NOT written into the row's metric dicts:
        # CC-view rows alias the CCT nodes' vectors, so an on-row write
        # would leak the derived column into other views' aggregations
        assert spec.mid not in row.inclusive
        assert view._derived_cache[(id(row), spec.mid, spec.flavor)] == value

    def test_derived_evaluation_does_not_bleed_across_views(self, exp):
        """Evaluating a derived column in one view must not change what
        another view over the same CCT aggregates for any column."""
        if "twice" not in exp.metrics:
            exp.add_derived_metric("twice", "2 * $0")
        spec = exp.spec("twice")
        baseline = exp.flat_view()
        expected = {r.name: baseline.value(r, spec) for r in baseline.roots}
        # pollute: walk a CC view evaluating the derived column everywhere
        ccv = exp.calling_context_view()
        for root in ccv.roots:
            for node in root.walk():
                ccv.value(node, spec)
        fresh = exp.flat_view()
        observed = {r.name: fresh.value(r, spec) for r in fresh.roots}
        assert observed == expected

    def test_derived_total(self, exp):
        exp.metrics.names()  # ensure 'twice' from the previous test or add
        if "thrice" not in exp.metrics:
            exp.add_derived_metric("thrice", "3 * $0")
        view = exp.calling_context_view()
        spec = exp.spec("thrice")
        assert view.total(spec) == 3 * exp.total("PAPI_TOT_CYC")


class TestDerivedCycleGuard:
    """The cyclic-reference guard in View.value (a real instance attribute,
    initialized in __init__, not conjured via getattr)."""

    def _cyclic_experiment(self):
        # define_derived validates referenced columns exist, which forbids
        # forward references — register the raw descriptors directly to
        # build the mutual cycle a buggy database could contain.
        from repro.core.metrics import MetricKind

        e = Experiment.from_program(fig1.build())
        a = e.metrics.add(
            "a", kind=MetricKind.DERIVED, formula=f"${len(e.metrics) + 1} + 1"
        )
        b = e.metrics.add("b", kind=MetricKind.DERIVED, formula=f"${a.mid} * 2")
        assert a.formula == f"${b.mid} + 1"
        return e, a, b

    def test_cycle_raises_view_error(self):
        e, a, _b = self._cyclic_experiment()
        view = e.calling_context_view()
        with pytest.raises(ViewError, match="cyclic derived-metric"):
            view.value(view.roots[0], MetricSpec(a.mid, MetricFlavor.INCLUSIVE))

    def test_self_reference_raises(self):
        from repro.core.metrics import MetricKind

        e = Experiment.from_program(fig1.build())
        d = e.metrics.add(
            "self", kind=MetricKind.DERIVED, formula=f"${len(e.metrics)} + 1"
        )
        view = e.calling_context_view()
        with pytest.raises(ViewError, match="cyclic derived-metric"):
            view.value(view.roots[0], MetricSpec(d.mid, MetricFlavor.EXCLUSIVE))

    def test_guard_resets_after_failure(self):
        """A failed evaluation must not poison later, acyclic ones."""
        from repro.core.derived import define_derived

        e, a, _b = self._cyclic_experiment()
        view = e.calling_context_view()
        spec_a = MetricSpec(a.mid, MetricFlavor.INCLUSIVE)
        with pytest.raises(ViewError):
            view.value(view.roots[0], spec_a)
        ok = define_derived(e.metrics, "fine", "$0 * 2")
        row = view.roots[0]
        expected = 2 * row.value(MetricSpec(0, MetricFlavor.INCLUSIVE))
        assert view.value(row, MetricSpec(ok.mid, MetricFlavor.INCLUSIVE)) == expected
        # and the guard is empty again (instance attribute, per-view state)
        assert view._eval_guard == set()

    def test_guard_is_initialized_in_init(self):
        view = Experiment.from_program(fig1.build()).calling_context_view()
        assert view._eval_guard == set()
