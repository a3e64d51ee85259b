"""The columnar MetricEngine vs. the sparse-dict reference path.

The engine is only allowed on the production path because it agrees with
the dict backend *bit for bit* — these tests assert exact equality (no
``approx``) over every node and metric id of every registered workload,
plus the engine-specific kernels (totals, top-k, hot path, exposed
aggregation, view-row gathers) against their naive counterparts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.attribution import (
    COLUMNAR_MIN_NODES,
    aggregate_exposed,
    attribute,
    attribute_dicts,
)
from repro.core.cct import CCTKind
from repro.core.engine import MetricEngine, attribute_columnar, engine_for
from repro.errors import MetricError
from repro.core.hotpath import hot_path
from repro.core.metrics import MetricFlavor, MetricSpec
from repro.hpcprof.experiment import Experiment
from repro.sim.spmd import spmd_experiment
from repro.sim.workloads import fig1, moab, pflotran, s3d
from repro.sim.workloads.synthetic import (
    deep_chain,
    mutual_ladder,
    recursive_ladder,
    uniform_tree,
    wide_flat,
)
from tests.oracles import hot_path_cct, level_exposed, per_row_exposed

WORKLOADS = {
    "fig1": fig1.build,
    "s3d": s3d.build,
    "moab": moab.build,
    "pflotran": pflotran.build,
    "tree-6x3": lambda: uniform_tree(6, 3),
    "wide-400": lambda: wide_flat(400),
    "chain-120": lambda: deep_chain(120),
    "ladder-40x4": lambda: recursive_ladder(40, 4),
    "mutual-40x3": lambda: mutual_ladder(40, 3),
}


def snapshot(cct):
    return {
        node.uid: (dict(node.inclusive), dict(node.exclusive))
        for node in cct.walk()
    }


class TestBitwiseParity:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_attribution_parity(self, name):
        """Dict and columnar attribution agree exactly, not approximately."""
        exp = Experiment.from_program(WORKLOADS[name]())
        attribute_dicts(exp.cct)
        reference = snapshot(exp.cct)
        attribute_columnar(exp.cct)
        assert snapshot(exp.cct) == reference

    def test_attribution_parity_multirank(self):
        exp = spmd_experiment(pflotran.build(), nranks=8)
        attribute_dicts(exp.cct)
        reference = snapshot(exp.cct)
        attribute_columnar(exp.cct)
        assert snapshot(exp.cct) == reference

    def test_summary_columns_match_per_vector_reference(self):
        """The columnar summary (axis reductions over the rank matrix)
        equals the per-vector np calls of the historical dict path."""
        from repro.hpcprof.merge import collect_rank_vectors

        exp = spmd_experiment(pflotran.build(), nranks=16)
        vectors = collect_rank_vectors(exp.cct, exp.rank_ccts, 0)
        ids = exp.summarize(exp.metrics.by_id(0).name)
        for node in exp.cct.walk():
            vec = vectors.get(node.uid)
            if vec is None:
                assert ids.mean not in node.inclusive
                continue
            assert node.inclusive[ids.mean] == float(np.mean(vec))
            assert node.inclusive[ids.minimum] == float(np.min(vec))
            assert node.inclusive[ids.maximum] == float(np.max(vec))
            assert node.inclusive[ids.stddev] == float(np.std(vec))

    def test_dispatcher_threshold(self):
        small = Experiment.from_program(fig1.build())
        assert len(small.cct) < COLUMNAR_MIN_NODES
        attribute(small.cct)  # small tree: dict path, engine cache dropped
        assert small.cct._engine is None
        large = Experiment.from_program(wide_flat(400))
        assert len(large.cct) >= COLUMNAR_MIN_NODES
        attribute(large.cct)  # large tree: the engine path
        assert isinstance(large.cct._engine, MetricEngine)


@pytest.fixture(scope="module")
def s3d_exp():
    return Experiment.from_program(s3d.build())


class TestEngineLayout:
    def test_preorder_and_extents(self, s3d_exp):
        eng = s3d_exp.engine
        n = len(eng)
        assert all(eng.parent_rows[row] < row for row in range(1, n))
        assert eng.parent_rows[0] == -1
        for row, node in enumerate(eng.nodes):
            end = eng.subtree_end[row]
            assert end - row == sum(1 for _ in node.walk())
            assert [eng.row_of(c) for c in node.children] == [
                r for r in range(row + 1, end) if eng.parent_rows[r] == row
            ]

    def test_row_of_foreign_node_raises(self, s3d_exp):
        other = Experiment.from_program(fig1.build())
        with pytest.raises(MetricError):
            s3d_exp.engine.row_of(other.cct.root)

    def test_totals_and_total(self, s3d_exp):
        eng = s3d_exp.engine
        for mid in range(len(s3d_exp.metrics)):
            assert eng.total(mid) == s3d_exp.cct.root.inclusive.get(mid, 0.0)
        assert list(eng.totals()) == [
            s3d_exp.cct.root.inclusive.get(m, 0.0)
            for m in range(len(s3d_exp.metrics))
        ]


class TestEngineKernels:
    def test_hot_path_threshold_validated(self, s3d_exp):
        from repro.errors import ViewError

        with pytest.raises(ViewError):
            hot_path_cct(s3d_exp.cct.root, 0, 0.0)

    def test_view_hot_path_engine_vs_dict(self, s3d_exp):
        from repro.core.ccview import CallingContextView

        with_engine = s3d_exp.calling_context_view()
        assert with_engine.engine is not None
        plain = CallingContextView(s3d_exp.cct, s3d_exp.metrics)
        spec = MetricSpec(0, MetricFlavor.INCLUSIVE)
        fast = hot_path(with_engine, spec)
        slow = hot_path(plain, spec)
        assert [n.name for n in fast.path] == [n.name for n in slow.path]
        assert fast.values == slow.values

    def test_aggregate_exposed_parity_on_fixtures(self, s3d_exp):
        eng = s3d_exp.engine
        groups = list(s3d_exp.cct.frames_by_procedure().values())
        batched = level_exposed(eng, groups)
        for frames, got in zip(groups, batched):
            assert got == aggregate_exposed(frames)
            assert got == per_row_exposed(eng, frames)
            assert level_exposed(eng, [frames]) == [got]

    def test_aggregate_exposed_counts_duplicates_like_dict_path(self, s3d_exp):
        eng = s3d_exp.engine
        frames = next(iter(s3d_exp.cct.frames_by_procedure().values()))
        doubled = list(frames) + list(frames)
        assert level_exposed(eng, [doubled]) == [aggregate_exposed(doubled)]

    def test_gather_view_values_matches_view_value(self, s3d_exp):
        view = s3d_exp.calling_context_view()
        rows = [r for root in view.roots for r in root.walk(max_depth=3)]
        for mid in range(len(s3d_exp.metrics)):
            for flavor in (MetricFlavor.INCLUSIVE, MetricFlavor.EXCLUSIVE):
                spec = MetricSpec(mid, flavor)
                values = view.engine.gather_view_values(rows, spec)
                assert values.tolist() == [row.value(spec) for row in rows]


class TestViewRouting:
    @pytest.mark.parametrize("descending", [True, False])
    def test_sorted_children_matches_dict_sort(self, s3d_exp, descending):
        from repro.core.ccview import CallingContextView

        fast_view = s3d_exp.calling_context_view()
        slow_view = CallingContextView(s3d_exp.cct, s3d_exp.metrics)
        spec = MetricSpec(0, MetricFlavor.EXCLUSIVE)

        def compare(fast_node, slow_node, depth):
            fast = fast_view.sorted_children(fast_node, spec, descending)
            slow = slow_view.sorted_children(slow_node, spec, descending)
            assert [r.name for r in fast] == [r.name for r in slow]
            if depth:
                for f, s in zip(fast, slow):
                    compare(f, s, depth - 1)

        compare(None, None, depth=3)

    def test_total_routed_through_engine(self, s3d_exp):
        view = s3d_exp.calling_context_view()
        view.totals = {}  # force the fallback that consults the engine
        spec = MetricSpec(0, MetricFlavor.INCLUSIVE)
        assert view.total(spec) == s3d_exp.cct.root.inclusive.get(0, 0.0)


class TestEngineLifecycle:
    def test_engine_cached_until_mutation(self):
        exp = Experiment.from_program(uniform_tree(4, 2))
        eng = exp.engine
        assert exp.engine is eng
        exp.cct.invalidate_caches()
        assert exp.engine is not eng

    def test_engine_grows_with_metric_table(self):
        exp = spmd_experiment(uniform_tree(4, 2), nranks=4)
        before = exp.engine
        assert before.num_metrics == 1
        ids = exp.summarize("cycles")
        after = exp.engine
        assert after is not before
        assert after.num_metrics == len(exp.metrics)
        # the new summary columns are readable through the engine
        row = after.row_of(exp.cct.root)
        assert after.inclusive[row, ids.mean] == exp.cct.root.inclusive[ids.mean]

    def test_frames_by_procedure_cached_and_invalidated(self):
        exp = Experiment.from_program(uniform_tree(4, 2))
        first = exp.cct.frames_by_procedure()
        assert exp.cct.frames_by_procedure() is first
        # a no-op prune must NOT drop the cache…
        assert exp.cct.prune() == 0
        assert exp.cct.frames_by_procedure() is first
        # …but one that removes a scope must
        next(exp.cct.frames()).ensure_statement(99)
        assert exp.cct.prune() == 1
        assert exp.cct.frames_by_procedure() is not first

    def test_prune_drops_engine(self):
        exp = Experiment.from_program(uniform_tree(4, 2))
        frame = next(exp.cct.frames())
        leaf = frame.ensure_statement(99)
        assert leaf.raw == {}
        _ = exp.engine
        removed = exp.cct.prune()
        assert removed == 1
        assert exp.cct._engine is None
        assert exp.engine.row_of(exp.cct.root) == 0

    def test_engine_for_metricless(self):
        exp = Experiment.from_program(uniform_tree(3, 2))
        assert engine_for(exp.cct, 0) is None


class TestMutualLadderParity:
    """Satellite: exposed aggregation on deep mutual recursion, both paths."""

    @pytest.mark.parametrize("depth", [10, 60, 200])
    def test_dict_and_columnar_identical(self, depth):
        exp = Experiment.from_program(mutual_ladder(depth, contexts=3))
        eng = exp.engine
        by_proc = exp.cct.frames_by_procedure()
        assert {p.name for p in by_proc} == {"main", "ping", "pong"}
        for proc, frames in by_proc.items():
            if proc.name != "main":
                assert len(frames) > 1  # recursion produced nested instances
            assert level_exposed(eng, [frames]) == [aggregate_exposed(frames)]

    def test_exposed_values_are_sane(self):
        # 3 contexts x alternating chain: each context contributes one
        # exposed ping instance whose inclusive cost covers its whole chain
        exp = Experiment.from_program(mutual_ladder(12, contexts=3))
        eng = exp.engine
        by_proc = {p.name: f for p, f in exp.cct.frames_by_procedure().items()}
        [(incl, _excl)] = level_exposed(eng, [by_proc["ping"]])
        total = exp.cct.root.inclusive[0]
        assert incl[0] == total  # ping heads every chain; main has no cost

    def test_callers_view_consistent(self):
        exp = Experiment.from_program(mutual_ladder(30, contexts=2))
        view = exp.callers_view()
        ping = view.find("ping")
        spec = MetricSpec(0, MetricFlavor.INCLUSIVE)
        assert ping.value(spec) == exp.cct.root.inclusive[0]


class TestColumnarScatterSemantics:
    def test_zero_cells_stay_absent(self):
        exp = Experiment.from_program(uniform_tree(6, 2))
        attribute_columnar(exp.cct)
        for node in exp.cct.walk():
            assert 0.0 not in node.inclusive.values()
            assert 0.0 not in node.exclusive.values()
            if node.kind in (CCTKind.STATEMENT, CCTKind.CALL_SITE):
                assert node.exclusive == node.raw
