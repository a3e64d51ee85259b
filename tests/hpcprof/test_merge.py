"""Tests for CCT merging and cross-experiment analyses."""

from __future__ import annotations

import pytest

from repro.core.attribution import attribute
from repro.core.ensemble import align_experiments
from repro.hpcprof.correlate import correlate
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import collect_rank_vectors, merge_ccts
from repro.hpcstruct.synthstruct import build_structure
from repro.sim.executor import execute
from repro.sim.program import Call, Loop, Module, Procedure, Program, Work
from repro.sim.workloads import fig1


def make_rank_program(metric="cycles"):
    """A small SPMD-like program whose work depends on the rank."""

    def work(ctx):
        return {metric: 10.0 * (1 + ctx.rank)}

    return Program(
        name="ranked",
        modules=[
            Module(
                path="main.c",
                procedures=[
                    Procedure(
                        name="main",
                        line=1,
                        body=[Call(line=2, callee="solve")],
                    ),
                    Procedure(
                        name="solve",
                        line=10,
                        body=[
                            Loop(line=11, end_line=13, trips=2,
                                 body=[Work(line=12, costs=work)]),
                        ],
                    ),
                ],
            )
        ],
        entry="main",
        metrics=[(metric, "cycles")],
    )


@pytest.fixture()
def rank_ccts():
    program = make_rank_program()
    structure = build_structure(program)
    ccts = []
    for rank in range(4):
        profile = execute(program, rank=rank, nranks=4)
        cct = correlate(profile, structure)
        attribute(cct)
        ccts.append(cct)
    return ccts


class TestMerge:
    def test_merged_totals_are_sums(self, rank_ccts):
        combined = merge_ccts(rank_ccts)
        # ranks contribute 20, 40, 60, 80 cycles (work x 2 loop trips)
        assert combined.root.inclusive.get(0) == 200.0

    def test_merge_preserves_tree_shape(self, rank_ccts):
        combined = merge_ccts(rank_ccts)
        assert len(combined) == len(rank_ccts[0])

    def test_merge_commutative(self, rank_ccts):
        a = merge_ccts(rank_ccts)
        b = merge_ccts(list(reversed(rank_ccts)))

        def snapshot(cct):
            out = {}

            def visit(node, path):
                key = path + (node.key,)
                out[key] = dict(node.inclusive)
                for child in node.children:
                    visit(child, key)

            visit(cct.root, ())
            return out

        assert snapshot(a) == snapshot(b)

    def test_merge_associative(self, rank_ccts):
        left = merge_ccts([merge_ccts(rank_ccts[:2]), merge_ccts(rank_ccts[2:])])
        flat = merge_ccts(rank_ccts)
        assert left.root.inclusive == flat.root.inclusive

    def test_merge_of_disjoint_trees_unions(self):
        p1 = fig1.build()
        structure = build_structure(p1)
        cct1 = correlate(execute(p1), structure)
        attribute(cct1)
        combined = merge_ccts([cct1, cct1])
        assert combined.root.inclusive.get(0) == 20.0


class TestRankVectors:
    def test_vector_values_per_rank(self, rank_ccts):
        combined = merge_ccts(rank_ccts)
        vectors = collect_rank_vectors(combined, rank_ccts, mid=0)
        root_vec = vectors[combined.root.uid]
        assert list(root_vec) == [20.0, 40.0, 60.0, 80.0]

    def test_absent_scope_contributes_zero(self, rank_ccts):
        # drop rank 2's profile: its slot must read 0 for every scope
        combined = merge_ccts(rank_ccts)
        sparse = [rank_ccts[0], rank_ccts[1]]
        vectors = collect_rank_vectors(combined, sparse, mid=0)
        assert list(vectors[combined.root.uid]) == [20.0, 40.0]


class TestScaleAndDifference:
    """§VI-A scale and difference, as the ensemble diff computes it."""

    @staticmethod
    def _pair(structure, base, big):
        small_run = Experiment("small", _table_copy(), structure, base)
        big_run = Experiment("big", _table_copy(), structure, big)
        diff = align_experiments([small_run, big_run]).diff(0, 1, factor=2.0)
        return diff, diff.metric_id("cycles")

    def test_perfect_scaling_has_zero_loss(self):
        program = fig1.build()
        structure = build_structure(program)
        base = correlate(execute(program), structure)
        attribute(base)
        big = merge_ccts([base, base])  # exactly 2x everywhere
        diff, loss_mid = self._pair(structure, base, big)
        assert diff.cct.root.inclusive.get(loss_mid, 0.0) == 0.0

    def test_excess_cost_is_attributed_in_context(self):
        program = fig1.build()
        structure = build_structure(program)
        base = correlate(execute(program), structure)
        attribute(base)
        big = merge_ccts([base, base])
        # plant 5 extra cycles in one specific context of the big run
        h = next(f for f in big.frames() if f.name == "h")
        stmt = next(n for n in h.walk() if n.kind.value == "statement")
        stmt.raw[0] = stmt.raw.get(0, 0.0) + 5.0
        diff, loss_mid = self._pair(structure, base, big)
        assert diff.cct.root.inclusive.get(loss_mid) == 5.0
        # the loss lands on the planted statement and nowhere else
        lossy = [n for n in diff.cct.walk() if n.raw.get(loss_mid, 0.0)]
        assert [_context(n) for n in lossy] == [_context(stmt)]
        assert lossy[0].exclusive.get(loss_mid) == 5.0
        # contexts without excess show no loss
        g3 = next(
            f for f in diff.cct.frames()
            if f.name == "g" and f.parent.enclosing_frame.name == "m"
        )
        assert g3.inclusive.get(loss_mid, 0.0) == 0.0


def _context(node):
    """A scope's identity across trees: (kind, name, line) from the root."""
    path = [node, *node.ancestors()]
    return [(n.kind, n.name, n.line) for n in reversed(path)]


def _table_copy():
    from repro.core.metrics import MetricTable

    table = MetricTable()
    table.add("cycles", unit="cycles")
    return table
