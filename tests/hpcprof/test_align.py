"""Unit tests for N-way structural alignment (:mod:`repro.hpcprof.align`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.attribution import attribute
from repro.errors import DatabaseError, MetricError
from repro.hpcprof import database
from repro.hpcprof.align import align_members
from repro.hpcprof.experiment import Experiment
from repro.hpcstruct.synthstruct import build_structure
from repro.sim.executor import execute
from repro.sim.scale import scale_program
from repro.sim.workloads import fig1


def _scale_member(rank: int, nranks: int = 4, metric: str = "cycles",
                  name: str | None = None) -> Experiment:
    program = scale_program(fanout=2, depth=2, metric=metric)
    structure = build_structure(program)
    profile = execute(program, rank=rank, nranks=nranks, seed=5)
    return Experiment.from_profile(profile, structure,
                                   name=name or f"m{rank}")


def test_requires_at_least_two_members():
    with pytest.raises(MetricError, match="at least two"):
        align_members([_scale_member(0)])


def test_union_covers_all_members_and_marks_absences():
    """A member missing a subtree aligns: union keeps the scopes, its
    matrix row is zero exactly where the member had no values."""
    full = _scale_member(0)
    holed = _scale_member(1)
    holed.cct.prune(
        lambda n: not any(f.name == "p2_1" for f in n.call_path())
    )
    attribute(holed.cct)
    holed.cct.invalidate_caches()

    alignment = align_members([full, holed])
    union_names = {n.name for n in alignment.nodes}
    assert "p2_1" in union_names  # the dropped subtree survives in the union
    assert len(alignment.nodes) == len(list(full.cct.walk()))

    mid = alignment.mids[0]
    raw = alignment.matrix(mid, "raw")
    dropped_rows = [row for row, node in enumerate(alignment.nodes)
                    if any(f.name == "p2_1" for f in node.call_path())]
    assert dropped_rows
    assert np.all(raw[1, dropped_rows] == 0.0)
    assert np.any(raw[0, dropped_rows] != 0.0)


def test_union_raw_values_are_member_sums():
    a, b = _scale_member(0), _scale_member(1)
    alignment = align_members([a, b])
    mid = alignment.mids[0]
    total = alignment.union.cct.root.inclusive.get(mid, 0.0)
    assert total == pytest.approx(
        a.cct.root.inclusive.get(mid, 0.0)
        + b.cct.root.inclusive.get(mid, 0.0)
    )


def test_metric_signature_mismatch_is_refused():
    with pytest.raises(MetricError, match="cannot align member 1"):
        align_members([_scale_member(0),
                       _scale_member(1, metric="flops")])


def test_flavor_and_mid_validation():
    alignment = align_members([_scale_member(0), _scale_member(1)])
    with pytest.raises(MetricError, match="unknown flavor"):
        alignment.matrix(alignment.mids[0], "sideways")
    with pytest.raises(MetricError, match="not a raw metric"):
        alignment.matrix(999)


def test_working_set_budget_is_enforced():
    with pytest.raises(DatabaseError, match="working-set"):
        align_members([_scale_member(0), _scale_member(1)],
                      working_set_bytes=256)


def test_multi_rank_members_are_welcome(tmp_path):
    """Unlike the rank merge, alignment accepts multi-rank databases."""
    multi = Experiment.from_program(fig1.build(), nranks=2, seed=7)
    single = Experiment.from_program(fig1.build(), nranks=1, seed=7)
    path = tmp_path / "multi.rpdb"
    database.save(multi, str(path))
    alignment = align_members([single, str(path)])
    assert alignment.n_members == 2
    mid = alignment.mids[0]
    incl = alignment.matrix(mid, "inclusive")
    assert incl[1, 0] == multi.cct.root.inclusive.get(mid, 0.0)


def test_report_shape_and_summary():
    alignment = align_members([_scale_member(0), _scale_member(1)])
    report = alignment.report
    assert report.n_members == 2
    assert report.nnodes == len(alignment.nodes)
    assert report.matrix_bytes == (
        len(alignment.matrices) * 2 * report.nnodes * 8
    )
    text = report.summary()
    assert "aligned 2 experiment(s)" in text
    payload = report.to_payload()
    assert payload["union_scopes"] == report.nnodes


def test_members_are_not_mutated():
    a, b = _scale_member(0), _scale_member(1)
    before = [(n.kind, n.line, dict(n.raw)) for n in a.cct.walk()]
    metrics_before = len(a.metrics)
    align_members([a, b])
    assert [(n.kind, n.line, dict(n.raw)) for n in a.cct.walk()] == before
    assert len(a.metrics) == metrics_before


def test_each_path_member_decoded_once(tmp_path, monkeypatch):
    """One decode per ``.rpdb`` member and one store open (one skeleton
    decode) per ``.rpstore`` member; in-memory members decode nothing."""
    from repro.core import store
    from repro.hpcprof import binio
    from repro.hpcprof.merge import merge_rank_files
    from repro.sim.scale import generate_rank_files

    paths = generate_rank_files(str(tmp_path / "ranks"), 3,
                                fanout=2, depth=2)
    store_path = str(tmp_path / "m.rpstore")
    merge_rank_files(paths, store_path)
    in_memory = database.load(paths[0])

    opened, stores, decodes = [], [], []
    real_open, real_decode = binio.StreamingDatabase.__init__, binio._decode_v2
    real_store = store.open_store
    monkeypatch.setattr(binio.StreamingDatabase, "__init__",
                        lambda db, path: opened.append(path)
                        or real_open(db, path))
    monkeypatch.setattr(binio, "_decode_v2",
                        lambda *args: decodes.append(1) or real_decode(*args))
    monkeypatch.setattr(store, "open_store",
                        lambda path: stores.append(path) or real_store(path))
    alignment = align_members(paths + [store_path, in_memory])
    assert alignment.n_members == 5
    assert opened == paths + [store.ColumnStore(store_path).skeleton_path]
    assert stores == [store_path]
    assert len(decodes) == len(paths) + 1
