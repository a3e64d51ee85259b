"""Tests for AST-based structure recovery."""

from __future__ import annotations

import textwrap

import pytest

from repro.errors import StructureError
from repro.hpcstruct.model import StructKind, StructureModel
from repro.hpcstruct.pystruct import build_python_structure


@pytest.fixture()
def make_module(tmp_path):
    def _make(source: str, name: str = "mod.py") -> StructureModel:
        path = tmp_path / name
        path.write_text(textwrap.dedent(source))
        return build_python_structure([str(path)], load_module="test")

    return _make


class TestProcedures:
    def test_top_level_function(self, make_module):
        model = make_module(
            """
            def f():
                return 1
            """
        )
        proc = model.procedure("f")
        assert proc.location.line == 2
        assert proc.location.end_line == 3

    def test_module_procedure_exists(self, make_module):
        model = make_module("x = 1\n")
        assert model.procedure("<module>") is not None

    def test_method_qualname(self, make_module):
        model = make_module(
            """
            class Store:
                def get(self):
                    return 1

                def put(self, v):
                    self.v = v
            """
        )
        assert model.procedure("Store.get").location.line == 3
        assert model.procedure("Store.put").location.line == 6

    def test_nested_function_qualname(self, make_module):
        model = make_module(
            """
            def outer():
                def inner():
                    return 2
                return inner()
            """
        )
        assert model.procedure("outer.<locals>.inner").location.line == 3

    def test_nested_class_method(self, make_module):
        model = make_module(
            """
            class A:
                class B:
                    def m(self):
                        return 0
            """
        )
        assert model.find_procedure("A.B.m") is not None


class TestLoops:
    def test_for_loop_scope(self, make_module):
        model = make_module(
            """
            def f(n):
                total = 0
                for i in range(n):
                    total += i
                return total
            """
        )
        proc = model.procedure("f")
        loops = [c for c in proc.children if c.kind is StructKind.LOOP]
        assert len(loops) == 1
        assert loops[0].location.line == 4
        assert loops[0].location.end_line == 5

    def test_nested_loops(self, make_module):
        model = make_module(
            """
            def f(n):
                for i in range(n):
                    for j in range(n):
                        x = i * j
                while n > 0:
                    n -= 1
            """
        )
        proc = model.procedure("f")
        outer = [c for c in proc.children if c.kind is StructKind.LOOP]
        assert len(outer) == 2
        fors = next(l for l in outer if l.location.line == 3)
        inner = [c for c in fors.children if c.kind is StructKind.LOOP]
        assert len(inner) == 1 and inner[0].location.line == 4

    def test_loop_in_if_branch(self, make_module):
        model = make_module(
            """
            def f(n):
                if n > 0:
                    for i in range(n):
                        pass
            """
        )
        proc = model.procedure("f")
        loops = [c for c in proc.children if c.kind is StructKind.LOOP]
        assert len(loops) == 1

    def test_loop_in_try_and_with(self, make_module):
        model = make_module(
            """
            def f(n):
                try:
                    for i in range(n):
                        pass
                except ValueError:
                    while n:
                        n -= 1
                with open("x") as fh:
                    for line in fh:
                        pass
            """
        )
        proc = model.procedure("f")
        loops = [c for c in proc.walk() if c.kind is StructKind.LOOP]
        assert len(loops) == 3

    def test_scope_chain_for_line(self, make_module):
        model = make_module(
            """
            def f(n):
                for i in range(n):
                    for j in range(n):
                        x = 1
                return x
            """
        )
        proc = model.procedure("f")
        chain = StructureModel.scope_chain_for_line(proc, 5)
        assert [s.location.line for s in chain] == [3, 4]
        assert StructureModel.scope_chain_for_line(proc, 6) == []


class TestCallSites:
    def test_call_lines_recorded(self, make_module):
        model = make_module(
            """
            def f(n):
                g(n)
                return h(n) + 1

            def g(n):
                return n

            def h(n):
                return n
            """
        )
        calls = dict(model.procedure("f").calls)
        assert calls[3] == "g"
        assert calls[4] == "h"

    def test_method_and_nested_calls(self, make_module):
        model = make_module(
            """
            def f(obj):
                return obj.method(len(obj.items))
            """
        )
        calls = model.procedure("f").calls
        names = {c for _l, c in calls}
        assert {"method", "len"} <= names

    def test_calls_in_loop_header(self, make_module):
        model = make_module(
            """
            def f(n):
                for i in range(n):
                    pass
            """
        )
        assert (3, "range") in model.procedure("f").calls

    def test_decorator_call_recorded(self, make_module):
        model = make_module(
            """
            @decorate(1)
            def f():
                pass
            """
        )
        calls = model.procedure("<module>").calls
        assert (2, "decorate") in calls


class TestErrors:
    def test_missing_file(self):
        with pytest.raises(StructureError):
            build_python_structure(["/nonexistent/never.py"])

    def test_syntax_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(StructureError):
            build_python_structure([str(bad)])

    def test_unknown_procedure_lookup(self, make_module):
        model = make_module("def f():\n    pass\n")
        with pytest.raises(StructureError):
            model.procedure("nope")
        assert model.find_procedure("nope") is None
