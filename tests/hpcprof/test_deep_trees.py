"""Deep-chain regression tests: no operation may recurse per tree level.

``sys.getrecursionlimit()`` defaults to 1000; a measured call chain of
5000 frames (deep recursion, co-routine trampolines, interpreters) must
still merge, attribute, prune, and difference correctly.  These trees are
built directly through the CCT API — the simulator itself executes
programs recursively, so it cannot produce them.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.attribution import attribute, attribute_dicts
from repro.core.engine import attribute_columnar
from repro.core.cct import CCT
from repro.core.ensemble import align_experiments
from repro.core.metrics import MetricTable
from repro.hpcprof.correlate import correlate
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import merge_ccts
from repro.hpcrun.profile_data import Frame, ProfileData
from repro.hpcstruct.model import StructureModel

DEPTH = 5000


@pytest.fixture(scope="module")
def structure():
    model = StructureModel("deep")
    lm = model.add_load_module("deep.x")
    file_scope = model.add_file(lm, "deep.c")
    model.add_procedure(file_scope, "rec", 1, 20)
    return model


def deep_chain_cct(structure: StructureModel, depth: int, leaf_cost: float) -> CCT:
    """``rec -> rec -> …`` *depth* frames deep, costs on every statement."""
    cct = CCT()
    proc = structure.procedure("rec")
    node = cct.root.ensure_frame(proc)
    for _ in range(depth - 1):
        node.ensure_statement(2).add_raw({0: 1.0})
        node = node.ensure_call_site(5).ensure_frame(proc)
    node.ensure_statement(2).add_raw({0: leaf_cost})
    return cct


def test_chain_is_deeper_than_recursion_limit():
    assert DEPTH > sys.getrecursionlimit()


class TestDeepChain:
    def test_merge_and_attribute(self, structure):
        a = deep_chain_cct(structure, DEPTH, leaf_cost=2.0)
        b = deep_chain_cct(structure, DEPTH, leaf_cost=3.0)
        combined = merge_ccts([a, b])  # iterative _graft: no RecursionError
        # depth-1 interior levels contribute 2.0 each (1.0 per tree)
        assert combined.root.inclusive[0] == 2.0 * (DEPTH - 1) + 5.0
        # root + (frame + statement + call-site) per level, minus the
        # leaf level's absent call site
        assert len(combined) == 3 * DEPTH

    def test_both_attribution_backends(self, structure):
        cct = deep_chain_cct(structure, DEPTH, leaf_cost=2.0)
        attribute_dicts(cct)
        reference = {
            n.uid: (dict(n.inclusive), dict(n.exclusive)) for n in cct.walk()
        }
        attribute_columnar(cct)
        got = {n.uid: (dict(n.inclusive), dict(n.exclusive)) for n in cct.walk()}
        assert got == reference
        assert cct.root.inclusive[0] == float(DEPTH) + 1.0

    def test_prune_keeps_costed_chain(self, structure):
        cct = deep_chain_cct(structure, DEPTH, leaf_cost=2.0)
        assert cct.prune() == 0

    def test_prune_removes_costless_chain(self, structure):
        cct = deep_chain_cct(structure, DEPTH, leaf_cost=2.0)
        for node in cct.walk():
            node.raw.clear()
        removed = cct.prune()
        assert removed == 3 * DEPTH - 1  # everything but the root
        assert not cct.root.children

    def test_scale_and_difference_deep(self, structure):
        runs = []
        for leaf_cost in (2.0, 10.0):
            metrics = MetricTable()
            metrics.add("cycles")
            cct = deep_chain_cct(structure, DEPTH, leaf_cost=leaf_cost)
            runs.append(Experiment(f"leaf {leaf_cost:g}", metrics,
                                   structure, cct))
        diff = align_experiments(runs).diff(0, 1, factor=1.0)
        # interior statements cancel exactly; only the leaf lost ground
        assert diff.cct.root.inclusive[diff.metric_id("cycles")] == 8.0

    def test_rank_vectors_deep(self, structure):
        from repro.hpcprof.merge import collect_rank_vectors

        ranks = [
            deep_chain_cct(structure, DEPTH, leaf_cost=float(r + 1))
            for r in range(2)
        ]
        for cct in ranks:
            attribute(cct)
        combined = merge_ccts(ranks)
        vectors = collect_rank_vectors(combined, ranks, 0)
        root_frame = combined.root.children[0]
        assert vectors[root_frame.uid].tolist() == [
            float(DEPTH) + 0.0,
            float(DEPTH) + 1.0,
        ]


class TestDeepCallPath:
    """A measured call path *DEPTH* frames deep: the profile side must
    walk it as iteratively as the CCT side (``Correlator.add_profile``
    reads :meth:`ProfileData.paths`)."""

    @staticmethod
    def deep_profile() -> ProfileData:
        metrics = MetricTable()
        metrics.add("cycles")
        profile = ProfileData(metrics)
        frames = [Frame("rec", "deep.c", 0)] + \
            [Frame("rec", "deep.c", 5)] * (DEPTH - 1)
        profile.add_sample(frames, 2, {0: 3.0})
        profile.add_sample(frames[: DEPTH // 2], 2, {0: 1.0})
        return profile

    def test_paths(self):
        paths = list(self.deep_profile().paths())
        assert [(len(frames), line, costs) for frames, line, costs in paths] \
            == [(DEPTH // 2, 2, {0: 1.0}), (DEPTH, 2, {0: 3.0})]

    def test_merge_into(self):
        profile = self.deep_profile()
        merged = ProfileData(profile.metrics)
        profile.merge_into(merged)
        profile.merge_into(merged)
        assert [(len(frames), costs) for frames, _line, costs in merged.paths()] \
            == [(DEPTH // 2, {0: 2.0}), (DEPTH, {0: 6.0})]
        assert merged.sample_count == 4

    def test_correlate_and_attribute(self, structure):
        cct = correlate(self.deep_profile(), structure)
        attribute(cct)
        assert cct.root.inclusive == {0: 4.0}
        # root + (frame + statement-or-call-site) per level, + the
        # mid-chain frame's statement
        assert len(cct) == 2 * DEPTH + 2
