"""Unit tests for the canonical CCT data structure."""

from __future__ import annotations

import pytest

from repro.core.attribution import attribute
from repro.core.cct import CCT, CCTKind, CCTNode
from repro.errors import CorrelationError
from repro.hpcstruct.model import StructKind, StructureModel


@pytest.fixture()
def structure():
    model = StructureModel("unit")
    lm = model.add_load_module("unit.x")
    f = model.add_file(lm, "a.c")
    model.add_procedure(f, "alpha", 1, 20)
    model.add_procedure(f, "beta", 30, 50)
    return model


class TestConstruction:
    def test_ensure_frame_is_idempotent(self, structure):
        cct = CCT()
        alpha = structure.procedure("alpha")
        f1 = cct.root.ensure_frame(alpha)
        f2 = cct.root.ensure_frame(alpha)
        assert f1 is f2
        assert len(cct.root.children) == 1

    def test_frames_only_under_root_or_call_site(self, structure):
        cct = CCT()
        alpha = structure.procedure("alpha")
        frame = cct.root.ensure_frame(alpha)
        with pytest.raises(CorrelationError):
            frame.ensure_frame(structure.procedure("beta"))
        site = frame.ensure_call_site(5)
        site.ensure_frame(structure.procedure("beta"))  # ok

    def test_frame_requires_procedure_scope(self, structure):
        cct = CCT()
        file_scope = structure.procedure("alpha").parent
        with pytest.raises(CorrelationError):
            cct.root.ensure_frame(file_scope)

    def test_statement_identity_by_line(self, structure):
        cct = CCT()
        frame = cct.root.ensure_frame(structure.procedure("alpha"))
        s1 = frame.ensure_statement(3)
        s2 = frame.ensure_statement(3)
        s3 = frame.ensure_statement(4)
        assert s1 is s2 and s1 is not s3

    def test_add_raw_accumulates(self, structure):
        cct = CCT()
        frame = cct.root.ensure_frame(structure.procedure("alpha"))
        stmt = frame.ensure_statement(3)
        stmt.add_raw({0: 2.0})
        stmt.add_raw({0: 3.0, 1: 1.0})
        assert stmt.raw == {0: 5.0, 1: 1.0}

    def test_add_raw_removes_cancelled_entries(self, structure):
        cct = CCT()
        frame = cct.root.ensure_frame(structure.procedure("alpha"))
        stmt = frame.ensure_statement(3)
        stmt.add_raw({0: 2.0})
        stmt.add_raw({0: -2.0})
        assert stmt.raw == {}


class TestNavigation:
    @pytest.fixture()
    def tree(self, structure):
        cct = CCT()
        alpha = cct.root.ensure_frame(structure.procedure("alpha"))
        site = alpha.ensure_call_site(5)
        beta = site.ensure_frame(structure.procedure("beta"))
        beta.ensure_statement(31).add_raw({0: 1.0})
        return cct, alpha, site, beta

    def test_call_path(self, tree):
        _cct, alpha, _site, beta = tree
        stmt = beta.children[0]
        assert [f.name for f in stmt.call_path()] == ["alpha", "beta"]
        assert [f.name for f in beta.call_path()] == ["alpha", "beta"]

    def test_enclosing_frame(self, tree):
        _cct, alpha, site, beta = tree
        assert site.enclosing_frame is alpha
        assert beta.enclosing_frame is beta
        assert beta.children[0].enclosing_frame is beta

    def test_procedure_of_inner_scope(self, tree):
        _cct, _alpha, _site, beta = tree
        stmt = beta.children[0]
        assert stmt.procedure.name == "beta"

    def test_depth(self, tree):
        cct, alpha, site, beta = tree
        assert cct.root.depth == 0
        assert alpha.depth == 1
        assert beta.depth == 3

    def test_walk_orders(self, tree):
        cct, *_ = tree
        pre = [n.kind for n in cct.root.walk()]
        post = [n.kind for n in cct.root.walk_postorder()]
        assert pre[0] is CCTKind.ROOT
        assert post[-1] is CCTKind.ROOT
        assert sorted(k.value for k in pre) == sorted(k.value for k in post)

    def test_len_counts_all_scopes(self, tree):
        cct, *_ = tree
        assert len(cct) == 5  # root, alpha, site, beta, statement


class TestPrune:
    def test_prune_removes_zero_subtrees(self, structure):
        cct = CCT()
        alpha = cct.root.ensure_frame(structure.procedure("alpha"))
        hot = alpha.ensure_statement(3)
        hot.add_raw({0: 1.0})
        site = alpha.ensure_call_site(5)
        site.ensure_frame(structure.procedure("beta"))  # no cost anywhere
        removed = cct.prune()
        assert removed == 2
        assert [c.kind for c in alpha.children] == [CCTKind.STATEMENT]

    def test_prune_keeps_parents_of_costly_scopes(self, structure):
        cct = CCT()
        alpha = cct.root.ensure_frame(structure.procedure("alpha"))
        site = alpha.ensure_call_site(5)
        beta = site.ensure_frame(structure.procedure("beta"))
        beta.ensure_statement(31).add_raw({0: 1.0})
        assert cct.prune() == 0
        assert len(cct) == 5

    def test_prune_empty_tree(self):
        cct = CCT()
        assert cct.prune() == 0


class TestFramesIndex:
    def test_frames_by_procedure_groups_instances(self, structure):
        cct = CCT()
        alpha_struct = structure.procedure("alpha")
        beta_struct = structure.procedure("beta")
        a = cct.root.ensure_frame(alpha_struct)
        s1 = a.ensure_call_site(5)
        s2 = a.ensure_call_site(6)
        s1.ensure_frame(beta_struct)
        s2.ensure_frame(beta_struct)
        index = cct.frames_by_procedure()
        assert len(index[alpha_struct]) == 1
        assert len(index[beta_struct]) == 2
