"""Tests for source-line metric annotation."""

from __future__ import annotations

import os
import textwrap

import pytest

from repro.errors import ViewError
from repro.hpcprof.experiment import Experiment
from repro.hpcrun.counters import CYCLES
from repro.hpcrun.tracer import trace_call
from repro.hpcstruct.pystruct import build_python_structure
from repro.sim.workloads import fig1, s3d
from repro.viewer.source import annotate_file, render_annotated_source


@pytest.fixture(scope="module")
def s3d_exp():
    return Experiment.from_program(s3d.build())


class TestAnnotateSynthetic:
    def test_costed_lines_for_synthetic_file(self, s3d_exp):
        rows = annotate_file(s3d_exp, "getrates.f")
        lines = {r.line for r in rows}
        assert {25, 85, 145} <= lines  # the three phase-loop bodies

    def test_rows_sorted_by_cost(self, s3d_exp):
        mid = s3d_exp.metric_id(CYCLES)
        rows = annotate_file(s3d_exp, "rhsf.f90")
        values = [r.values.get(mid, 0.0) for r in rows]
        assert values == sorted(values, reverse=True)

    def test_all_contexts_aggregate(self):
        """In fig1, line 2 of file2.c (g's self cost) sums over g1+g2+g3."""
        exp = Experiment.from_program(fig1.build())
        mid = exp.metric_id(fig1.METRIC)
        rows = {r.line: r.values.get(mid, 0.0)
                for r in annotate_file(exp, "file2.c")}
        assert rows[2] == 5.0   # 1 + 1 + 3 across the three contexts
        assert rows[10] == 4.0  # the l2 loop body

    def test_unknown_file_reports_candidates(self, s3d_exp):
        with pytest.raises(ViewError) as err:
            annotate_file(s3d_exp, "nope.f90")
        assert "profiled files" in str(err.value)
        with pytest.raises(ViewError):
            annotate_file(s3d_exp, "")

    def test_render_without_source_text(self, s3d_exp):
        out = render_annotated_source(s3d_exp, "getrates.f", CYCLES)
        assert "annotated with exclusive PAPI_TOT_CYC" in out
        assert "source text not on disk" in out
        assert "    25 " in out


class TestAnnotateRealSource:
    @pytest.fixture(scope="class")
    def real(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("annot")
        path = os.path.join(str(workdir), "job.py")
        with open(path, "w") as fh:
            fh.write(textwrap.dedent(
                """
                def hot(n):
                    total = 0
                    for i in range(n):
                        total += i * i
                    return total

                def run():
                    return hot(3000) + hot(10)
                """
            ))
        namespace: dict = {}
        exec(compile(open(path).read(), path, "exec"), namespace)
        _res, profile = trace_call(namespace["run"], roots=[str(workdir)])
        structure = build_python_structure([path])
        return Experiment.from_profile(profile, structure), path

    def test_gutter_marks_hot_loop(self, real):
        exp, path = real
        out = render_annotated_source(exp, path, "line events")
        body_line = next(l for l in out.splitlines() if "total += i * i" in l)
        assert "%" in body_line  # a cost in the gutter
        def_line = next(l for l in out.splitlines() if "def hot" in l)
        assert def_line.split("|")[0].strip() == ""  # no cost on the def

    def test_basename_matching(self, real):
        exp, path = real
        rows = annotate_file(exp, os.path.basename(path))
        assert rows

    def test_context_only_elides_cold_regions(self, real):
        exp, path = real
        out = render_annotated_source(exp, path, "line events",
                                      context_only=True)
        assert "total += i * i" in out
