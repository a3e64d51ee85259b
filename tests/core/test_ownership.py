"""Ownership: every tree a read session builds is acyclic.

A CCT owns its nodes, a structure model its scopes, a view its rows;
the links back up (``parent``) are weak, and a view's lazy rows hold its
row-free :class:`~repro.core.views.LevelBuilder` rather than the view.
So dropping a session frees it by reference counting, with no work left
for the cyclic garbage collector — checked here by counting: with
automatic collection off, ``gc.collect()`` after the session is dropped
must find nothing.

A node is valid while its owner lives.  Once the owner is gone, a
non-owning link raises a structured error; it never reads as "no
parent".
"""

from __future__ import annotations

import gc

import pytest

from repro.core.derived import define_derived
from repro.core.ensemble import align_experiments, detect_regressions
from repro.core.hotpath import hot_path
from repro.core.store import create_store
from repro.core.views import ViewKind
from repro.errors import StructureError, ViewError
from repro.hpcprof import database
from repro.hpcprof.correlate import correlate
from repro.hpcprof.experiment import Experiment
from repro.hpcstruct.synthstruct import build_structure
from repro.query import Query, query, run_query
from repro.sim.executor import execute
from repro.sim.scale import scale_program
from repro.sim.spmd import trace_spmd
from repro.sim.workloads import fig1, s3d
from repro.trace import create_trace_store, flame_slab, idleness_series, open_trace
from repro.viewer.session import ViewerSession

QUERY = {"ops": [{"op": "match", "pattern": "** / *"},
                 {"op": "groupby", "key": "name"}]}


def cyclic_garbage(session, *args) -> int:
    """Objects only the cyclic collector would free after *session* ran
    and everything it built was dropped."""
    gc.collect()
    gc.disable()
    try:
        session(*args)
        return gc.collect()
    finally:
        gc.enable()


def analyze(exp) -> None:
    """Three renders, a hot path, a query and a derived metric."""
    session = ViewerSession(exp)
    for kind in (ViewKind.CALLING_CONTEXT, ViewKind.CALLERS, ViewKind.FLAT):
        assert session.render(kind, expand_depth=3)
    spec = exp.spec(exp.metrics.by_id(0).name)
    assert hot_path(session.view(ViewKind.CALLING_CONTEXT), spec).path
    assert run_query(Query.from_spec(QUERY), exp).row_count
    define_derived(exp.metrics, "derived (k)", "$0 / 1000")
    assert session.render(ViewKind.FLAT, expand_depth=3)


class TestSessionsFreeByReferenceCount:
    def test_store_session(self, tmp_path):
        path = str(tmp_path / "scaled.rpstore")
        exp = Experiment.from_program(scale_program(fanout=3, depth=3), nranks=2)
        create_store(exp, path).close()
        del exp

        def session():
            exp = database.load(path)
            try:
                analyze(exp)
            finally:
                exp.close()

        assert cyclic_garbage(session) == 0

    def test_experiment_session_with_ensemble_diff(self):
        def session():
            members = [Experiment.from_program(s3d.build(tuned=tuned))
                       for tuned in (False, True)]
            analyze(members[0])
            ensemble = align_experiments(members)
            assert ensemble.diff(0, 1).cct.root.inclusive
            detect_regressions(ensemble)

        assert cyclic_garbage(session) == 0

    def test_trace_window_session(self, tmp_path):
        path = str(tmp_path / "trace.rpstore")
        traces = trace_spmd(scale_program(fanout=3, depth=3), nranks=2,
                            seed=5, trace_slices=6, name="owned")
        span = traces.t_end - traces.t_begin
        create_trace_store(traces, path, chunk_duration=span / 8).close()
        lo, hi = traces.t_begin + 0.25 * span, traces.t_begin + 0.5 * span
        metric = traces.metrics.by_id(0).name
        del traces

        def session():
            store = open_trace(path)
            try:
                result = run_query(query("**/*").window(lo, hi).sort(metric)
                                   .limit(50), store)
                assert result.row_count
                flame_slab(store, rank=1, t0=lo, t1=hi)
                idleness_series(store, lo, hi, bins=16)
            finally:
                store.close()

        assert cyclic_garbage(session) == 0


class TestNodesAreValidWhileTheirOwnerLives:
    def test_cct_node_parent_raises_once_the_tree_is_dropped(self):
        exp = Experiment.from_program(fig1.build())
        leaf = next(n for n in exp.cct.walk() if not n.children)
        assert leaf.parent is not None
        del exp
        with pytest.raises(StructureError, match="dropped"):
            leaf.parent
        with pytest.raises(StructureError):
            list(leaf.ancestors())

    def test_structure_scope_parent_raises_once_the_model_is_dropped(self):
        model = build_structure(fig1.build())
        proc = model.procedure("g")
        assert proc.parent.kind.value == "file"
        del model
        with pytest.raises(StructureError, match="dropped"):
            proc.parent
        with pytest.raises(StructureError):
            proc.enclosing_file

    def test_a_cct_pins_its_structure_model(self):
        """``correlate`` returns a CCT while the caller drops the model:
        its scopes must still name their files (a weak model would read
        as ``<unknown file>``, a silently wrong answer)."""
        program = fig1.build()
        cct = correlate(execute(program), build_structure(program))
        assert "file2.c" in {node.file for node in cct.walk()}

    def test_view_row_parent_raises_once_the_view_is_dropped(self):
        exp = Experiment.from_program(fig1.build())
        view = exp.calling_context_view()
        row = view.roots[0].children[0]
        assert row.parent is view.roots[0]
        del view
        with pytest.raises(ViewError, match="dropped"):
            row.parent
        with pytest.raises(ViewError):
            row.depth

    def test_rows_kept_past_their_view_still_expand(self):
        exp = Experiment.from_program(fig1.build())
        roots = exp.callers_view().roots
        g = next(row for row in roots if row.name == "g")
        assert not g.is_expanded
        assert g.children  # built through the builder, not the dropped view
        assert g.children[0].parent is g
