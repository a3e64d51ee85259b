"""Unit tests for the static structure model."""

from __future__ import annotations

import pytest

from repro.errors import StructureError
from repro.hpcstruct.model import (
    SourceLocation,
    StructKind,
    StructureModel,
    StructureNode,
)


@pytest.fixture()
def model():
    m = StructureModel("app")
    lm = m.add_load_module("app.x")
    f = m.add_file(lm, "solver.c")
    m.add_procedure(f, "solve", 10, 80)
    return m


class TestSourceLocation:
    def test_end_line_clamped(self):
        loc = SourceLocation(file="a.c", line=10, end_line=5)
        assert loc.end_line == 10

    def test_contains_line(self):
        loc = SourceLocation(file="a.c", line=10, end_line=20)
        assert loc.contains_line(10)
        assert loc.contains_line(20)
        assert not loc.contains_line(9)
        assert not loc.contains_line(21)


class TestHierarchy:
    def test_add_load_module_idempotent(self, model):
        lm1 = model.add_load_module("app.x")
        lm2 = model.add_load_module("app.x")
        assert lm1 is lm2

    def test_add_file_idempotent(self, model):
        lm = model.add_load_module("app.x")
        f1 = model.add_file(lm, "solver.c")
        f2 = model.add_file(lm, "solver.c")
        assert f1 is f2

    def test_file_requires_load_module(self, model):
        proc = model.procedure("solve")
        with pytest.raises(StructureError):
            model.add_file(proc, "x.c")

    def test_procedure_requires_file(self, model):
        lm = model.add_load_module("app.x")
        with pytest.raises(StructureError):
            model.add_procedure(lm, "oops", 1)

    def test_duplicate_child_key_rejected(self, model):
        lm = model.add_load_module("app.x")
        f = model.add_file(lm, "solver.c")
        with pytest.raises(StructureError):
            model.add_procedure(f, "solve", 10)  # same (name, line)

    def test_enclosing_navigation(self, model):
        proc = model.procedure("solve")
        loop = StructureNode(
            StructKind.LOOP, "loop@20",
            SourceLocation("solver.c", 20, 40), parent=proc,
        )
        assert loop.enclosing_procedure is proc
        assert loop.enclosing_file.name == "solver.c"
        assert [a.kind for a in loop.ancestors()][0] is StructKind.PROCEDURE

    def test_describe(self, model):
        assert "procedure solve" in model.procedure("solve").describe()


class TestProcedureLookup:
    def test_by_name_and_file(self, model):
        assert model.procedure("solve", "solver.c").name == "solve"

    def test_ambiguous_name_needs_file(self, model):
        lm = model.add_load_module("app.x")
        f2 = model.add_file(lm, "other.c")
        model.add_procedure(f2, "solve", 5)
        with pytest.raises(StructureError):
            model.procedure("solve")
        assert model.procedure("solve", "other.c").location.line == 5

    def test_unknown(self, model):
        with pytest.raises(StructureError):
            model.procedure("nope")
        with pytest.raises(StructureError):
            model.procedure("solve", "wrong.c")
        assert model.find_procedure("nope") is None

    def test_procedures_iterator(self, model):
        assert [p.name for p in model.procedures()] == ["solve"]


class TestScopeChain:
    def test_nested_chain_resolution(self, model):
        proc = model.procedure("solve")
        outer = StructureNode(StructKind.LOOP, "loop@20",
                              SourceLocation("solver.c", 20, 60), parent=proc)
        inner = StructureNode(StructKind.LOOP, "loop@30",
                              SourceLocation("solver.c", 30, 50), parent=outer)
        chain = StructureModel.scope_chain_for_line(proc, 35)
        assert chain == [outer, inner]
        assert StructureModel.scope_chain_for_line(proc, 25) == [outer]
        assert StructureModel.scope_chain_for_line(proc, 70) == []

    def test_sibling_loops(self, model):
        proc = model.procedure("solve")
        l1 = StructureNode(StructKind.LOOP, "loop@20",
                           SourceLocation("solver.c", 20, 30), parent=proc)
        l2 = StructureNode(StructKind.LOOP, "loop@40",
                           SourceLocation("solver.c", 40, 50), parent=proc)
        assert StructureModel.scope_chain_for_line(proc, 45) == [l2]
        assert StructureModel.scope_chain_for_line(proc, 25) == [l1]

    def test_inlined_scopes_participate(self, model):
        proc = model.procedure("solve")
        inl = StructureNode(StructKind.INLINED_PROC, "find",
                            SourceLocation("solver.c", 20, 40), parent=proc)
        inner = StructureNode(StructKind.INLINED_LOOP, "loop@25",
                              SourceLocation("solver.c", 25, 35), parent=inl)
        assert StructureModel.scope_chain_for_line(proc, 30) == [inl, inner]


class TestMergeAndStats:
    def test_merge_from_unions_structure(self, model):
        other = StructureModel("app")
        lm = other.add_load_module("app.x")
        f = other.add_file(lm, "solver.c")
        other.add_procedure(f, "solve", 10, 80)      # same as model
        other.add_procedure(f, "helper", 90, 120)    # new
        model.merge_from(other)
        assert model.find_procedure("helper") is not None
        assert model.stats()["procedure"] == 2
        # no duplicates created
        assert model.stats()["file"] == 1

    def test_stats(self, model):
        stats = model.stats()
        assert stats == {"root": 1, "load-module": 1, "file": 1, "procedure": 1}

    def test_kind_predicates(self):
        assert StructKind.INLINED_LOOP.is_loop
        assert StructKind.LOOP.is_loop
        assert StructKind.INLINED_PROC.is_inlined
        assert not StructKind.PROCEDURE.is_inlined
