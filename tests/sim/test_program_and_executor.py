"""Unit tests for the synthetic program DSL and its executor."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.executor import execute
from repro.sim.program import (
    Call,
    ExecContext,
    Inlined,
    Loop,
    Module,
    Procedure,
    Program,
    Work,
    resolve_costs,
    resolve_number,
)


def one_proc_program(body, metrics=(("c", "units"),), entry="main", extra=()):
    return Program(
        name="t",
        modules=[Module(path="t.c",
                        procedures=[Procedure(name="main", line=1, body=body),
                                    *extra])],
        entry=entry,
        metrics=list(metrics),
    )


class TestValidation:
    def test_duplicate_procedure_names_rejected(self):
        with pytest.raises(SimulationError):
            Program(
                name="dup",
                modules=[
                    Module(path="a.c", procedures=[Procedure("f", line=1)]),
                    Module(path="b.c", procedures=[Procedure("f", line=1)]),
                ],
                entry="f",
            )

    def test_missing_entry_rejected(self):
        with pytest.raises(SimulationError):
            one_proc_program([], entry="nope")

    def test_undefined_callee_rejected(self):
        with pytest.raises(SimulationError):
            one_proc_program([Call(line=2, callee="ghost")])

    def test_callee_check_descends_into_loops_and_inlines(self):
        with pytest.raises(SimulationError):
            one_proc_program([
                Loop(line=2, body=[
                    Inlined(line=3, name="inl",
                            body=[Call(line=4, callee="ghost")])
                ])
            ])

    def test_lookup_helpers(self):
        prog = one_proc_program([])
        assert prog.procedure("main").name == "main"
        assert prog.module_of("main").path == "t.c"
        with pytest.raises(SimulationError):
            prog.procedure("nope")
        with pytest.raises(SimulationError):
            prog.module_of("nope")

    def test_extent_inference(self):
        loop = Loop(line=5, body=[Work(line=8), Work(line=12)])
        assert loop.end_line == 12
        inl = Inlined(line=3, name="x", body=[loop])
        assert inl.end_line == 12
        proc = Procedure(name="p", line=1, body=[inl])
        assert proc.end_line == 12


class TestExecContext:
    def test_helpers(self):
        ctx = ExecContext(path=("m", "f", "g"))
        assert ctx.current == "g"
        assert ctx.caller == "f"
        assert ctx.depth_of("g") == 1
        assert ctx.called_from("f")
        assert ctx.called_from("m", "f")
        assert not ctx.called_from("g")

    def test_entry_has_no_caller(self):
        assert ExecContext(path=("m",)).caller is None

    def test_resolvers(self):
        ctx = ExecContext(path=("m",), rank=3)
        assert resolve_number(5, ctx) == 5.0
        assert resolve_number(lambda c: c.rank * 2, ctx) == 6.0
        assert resolve_costs(None, ctx) == {}
        assert resolve_costs({"c": 2, "z": 0.0}, ctx) == {"c": 2.0}
        assert resolve_costs(lambda c: {"c": c.rank}, ctx) == {"c": 3.0}


class TestExecutor:
    def test_loop_trips_multiply_costs(self):
        prog = one_proc_program([
            Loop(line=2, trips=3, body=[
                Loop(line=3, trips=4, body=[Work(line=4, costs={"c": 1.0})])
            ])
        ])
        profile = execute(prog)
        assert profile.totals() == {0: 12.0}

    def test_zero_trips_skip_body(self):
        prog = one_proc_program([
            Loop(line=2, trips=0, body=[Work(line=3, costs={"c": 1.0})])
        ])
        assert execute(prog).totals() == {}

    def test_call_count_scales_callee(self):
        callee = Procedure(name="leaf", line=10,
                           body=[Work(line=11, costs={"c": 2.0})])
        prog = one_proc_program([Call(line=2, callee="leaf", count=5)],
                                extra=[callee])
        assert execute(prog).totals() == {0: 10.0}

    def test_site_costs_attributed_at_call_line(self):
        callee = Procedure(name="leaf", line=10,
                           body=[Work(line=11, costs={"c": 1.0})])
        prog = one_proc_program(
            [Call(line=2, callee="leaf", site_costs={"c": 0.5})],
            extra=[callee],
        )
        profile = execute(prog)
        by_line = {
            (frames[-1].proc, line): costs
            for frames, line, costs in profile.paths()
        }
        assert by_line[("main", 2)] == {0: 0.5}
        assert by_line[("leaf", 11)] == {0: 1.0}

    def test_inlined_work_stays_in_frame(self):
        prog = one_proc_program([
            Inlined(line=2, name="inlme",
                    body=[Work(line=3, costs={"c": 7.0})])
        ])
        profile = execute(prog)
        frames, line, costs = next(iter(profile.paths()))
        assert [f.proc for f in frames] == ["main"]
        assert line == 3 and costs == {0: 7.0}

    def test_runaway_recursion_guarded(self):
        rec = Procedure(name="rec", line=10,
                        body=[Call(line=11, callee="rec")])
        prog = one_proc_program([Call(line=2, callee="rec")], extra=[rec])
        with pytest.raises(SimulationError):
            execute(prog, max_depth=50)

    def test_bounded_recursion_by_context(self):
        rec = Procedure(
            name="rec", line=10,
            body=[
                Work(line=11, costs={"c": 1.0}),
                Call(line=12, callee="rec",
                     count=lambda ctx: 1.0 if ctx.depth_of("rec") < 4 else 0.0),
            ],
        )
        prog = one_proc_program([Call(line=2, callee="rec")], extra=[rec])
        assert execute(prog).totals() == {0: 4.0}

    def test_unknown_metric_autoregistered(self):
        prog = one_proc_program([Work(line=2, costs={"surprise": 1.0})],
                                metrics=[("c", "u")])
        profile = execute(prog)
        assert "surprise" in profile.metrics
        assert profile.totals()[profile.metrics.by_name("surprise").mid] == 1.0

    def test_rank_and_params_reach_context(self):
        prog = one_proc_program([
            Work(line=2, costs=lambda ctx: {
                "c": ctx.rank * 100 + ctx.params["boost"]
            })
        ])
        profile = execute(prog, rank=2, nranks=4, params={"boost": 7})
        assert profile.totals() == {0: 207.0}

    def test_deterministic_under_seed(self):
        prog = one_proc_program([
            Work(line=2, costs=lambda ctx: {"c": float(ctx.rng.integers(1, 100))})
        ])
        a = execute(prog, seed=42).totals()
        b = execute(prog, seed=42).totals()
        c = execute(prog, seed=43).totals()
        assert a == b
        assert a != c
