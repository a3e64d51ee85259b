"""Direct unit tests for the correlation step."""

from __future__ import annotations

import pytest

from repro.core.attribution import attribute
from repro.core.cct import CCTKind
from repro.core.metrics import MetricTable
from repro.hpcprof.correlate import Correlator, correlate
from repro.hpcrun.profile_data import Frame, ProfileData
from repro.hpcstruct.model import (
    SourceLocation,
    StructKind,
    StructureModel,
    StructureNode,
)


@pytest.fixture()
def structure():
    model = StructureModel("corr")
    lm = model.add_load_module("corr.x")
    f = model.add_file(lm, "corr.c")
    main = model.add_procedure(f, "main", 1, 40)
    model.add_procedure(f, "kernel", 50, 90)
    # a loop in main spanning lines 10-30, with the kernel call inside
    StructureNode(StructKind.LOOP, "loop@10",
                  SourceLocation("corr.c", 10, 30), parent=main)
    main.calls = ((20, "kernel"),)
    return model


def make_profile(samples):
    table = MetricTable()
    table.add("cost")
    profile = ProfileData(table)
    for frames, line, value in samples:
        profile.add_sample(frames, line, {0: value})
    return profile


MAIN = Frame("main", "corr.c", 0)


class TestCorrelation:
    def test_call_site_nests_inside_enclosing_loop(self, structure):
        profile = make_profile([
            ([MAIN, Frame("kernel", "corr.c", 20)], 55, 3.0),
        ])
        cct = correlate(profile, structure)
        attribute(cct)
        main = next(iter(cct.root.children))
        loop = next(c for c in main.children if c.kind is CCTKind.LOOP)
        site = next(c for c in loop.children if c.kind is CCTKind.CALL_SITE)
        kernel = next(c for c in site.children if c.kind is CCTKind.FRAME)
        assert kernel.name == "kernel"
        assert loop.inclusive == {0: 3.0}

    def test_leaf_sample_at_known_call_line_hits_call_site(self, structure):
        """A sample whose PC sits at a call instruction attributes to the
        CALL_SITE scope (main.calls marks line 20), merging with the
        call path that runs through that site."""
        profile = make_profile([
            ([MAIN], 20, 1.0),                                  # at the call
            ([MAIN, Frame("kernel", "corr.c", 20)], 55, 2.0),   # through it
        ])
        cct = correlate(profile, structure)
        attribute(cct)
        main = next(iter(cct.root.children))
        loop = next(c for c in main.children if c.kind is CCTKind.LOOP)
        sites = [c for c in loop.children if c.kind is CCTKind.CALL_SITE]
        assert len(sites) == 1              # merged, not duplicated
        assert sites[0].raw == {0: 1.0}
        assert sites[0].inclusive == {0: 3.0}
        assert main.exclusive == {0: 1.0}   # the call-line cost is main's

    def test_sample_outside_any_loop_is_direct_statement(self, structure):
        profile = make_profile([([MAIN], 35, 4.0)])
        cct = correlate(profile, structure)
        main = next(iter(cct.root.children))
        stmt = next(c for c in main.children if c.kind is CCTKind.STATEMENT)
        assert stmt.line == 35

    def test_unknown_procedure_synthesized_under_unknown_module(self, structure):
        profile = make_profile([
            ([MAIN, Frame("libc_read", "", 20)], 0, 1.0),
        ])
        cct = correlate(profile, structure)
        frames = {f.name: f for f in cct.frames()}
        assert "libc_read" in frames
        lib = frames["libc_read"].struct
        assert lib.enclosing_file.parent.name == "<unknown load module>"
        # and it is now findable for subsequent samples
        assert structure.find_procedure("libc_read") is not None

    def test_multiple_profiles_merge_into_one_correlator(self, structure):
        correlator = Correlator(structure)
        correlator.add_profile(make_profile([([MAIN], 35, 1.0)]))
        correlator.add_profile(make_profile([([MAIN], 35, 2.0)]))
        attribute(correlator.cct)
        assert correlator.cct.root.inclusive == {0: 3.0}
        assert len(correlator.cct) == 3  # root, main, statement

    def test_empty_profile_gives_empty_tree(self, structure):
        cct = correlate(make_profile([]), structure)
        assert len(cct) == 1

    def test_ambiguous_fileless_name_reuses_synthesized_procedure(self, structure):
        """An unknown ``kernel`` in z.c makes a file-less ``kernel``
        ambiguous; every later correlation (a second correlator, or the
        next rank of one) resolves it to the ``<unknown file>`` procedure
        the first one synthesized instead of synthesizing it again."""
        from repro.hpcprof.experiment import Experiment

        profile = make_profile([
            ([MAIN, Frame("kernel", "z.c", 20)], 5, 1.0),
            ([MAIN, Frame("kernel", "", 20)], 5, 2.0),
        ])
        first = correlate(profile, structure)
        second = correlate(profile, structure)
        ranks = Experiment.from_profiles([profile, profile], structure)
        synthesized = structure.procedure("kernel", "<unknown file>")
        assert [p.location.file for p in structure.procedures_named("kernel")] \
            == ["corr.c", "z.c", "<unknown file>"]
        for cct, total in ((first, 3.0), (second, 3.0), (ranks.cct, 6.0),
                           *((tree, 3.0) for tree in ranks.rank_ccts)):
            attribute(cct)
            assert synthesized in {f.struct for f in cct.frames()}
            assert cct.root.inclusive == {0: total}
