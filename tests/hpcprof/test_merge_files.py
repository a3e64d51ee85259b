"""Unit tests for the bounded-memory rank-file merge
(:func:`repro.hpcprof.merge.merge_rank_files` and friends)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.metrics import MetricKind
from repro.errors import DatabaseError
from repro.hpcprof import database
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import (
    map_structure,
    merge_experiments,
    merge_rank_files,
    remap_cct,
)
from repro.hpcstruct.synthstruct import build_structure
from repro.sim.executor import execute
from repro.sim.scale import generate_rank_files, scale_program
from repro.sim.workloads import fig1
from repro.viewer.table import render_view


@pytest.fixture()
def rank_paths(tmp_path):
    return generate_rank_files(str(tmp_path / "ranks"), 5,
                               fanout=3, depth=2)


class TestMergeRankFiles:
    def test_matches_in_memory_merge(self, rank_paths, tmp_path):
        out = str(tmp_path / "m.rpstore")
        report = merge_rank_files(rank_paths, out, summarize="all")
        assert report.nranks == 5
        assert os.path.samefile(report.out_path, out)
        streamed = database.load(out)
        reference = merge_experiments(
            [database.load(p) for p in rank_paths], summarize="all"
        )
        try:
            for a, b in zip(reference.views(), streamed.views()):
                assert render_view(a) == render_view(b)
            for rn, sn in zip(reference.cct.walk(), streamed.cct.walk()):
                assert dict(rn.inclusive) == dict(sn.inclusive)
                assert dict(rn.exclusive) == dict(sn.exclusive)
                assert np.array_equal(
                    reference.rank_vector(rn, "cycles"),
                    streamed.rank_vector(sn, "cycles"),
                )
        finally:
            streamed.close()

    def test_summary_describes_shape(self, rank_paths, tmp_path):
        report = merge_rank_files(rank_paths, str(tmp_path / "m.rpstore"))
        text = report.summary()
        assert "5 rank database(s)" in text
        assert "budget" in text

    def test_selective_summarize(self, rank_paths, tmp_path):
        report = merge_rank_files(rank_paths, str(tmp_path / "m.rpstore"),
                                  summarize=("cycles",))
        assert report.summarized == (0,)
        exp = database.load(report.out_path)
        try:
            assert any("(mean)" in d.name for d in exp.metrics)
        finally:
            exp.close()

    def test_no_summaries(self, rank_paths, tmp_path):
        report = merge_rank_files(rank_paths, str(tmp_path / "m.rpstore"),
                                  summarize=())
        assert report.summarized == ()
        exp = database.load(report.out_path)
        try:
            assert len(exp.metrics) == 1
        finally:
            exp.close()

    def test_working_set_budget_enforced(self, rank_paths, tmp_path):
        with pytest.raises(DatabaseError, match="working-set budget"):
            merge_rank_files(rank_paths, str(tmp_path / "m.rpstore"),
                             working_set_bytes=1024)

    def test_each_rank_file_decoded_once(self, rank_paths, tmp_path,
                                         monkeypatch):
        from repro.hpcprof import binio

        opened, decodes = [], []
        real_open = binio.StreamingDatabase.__init__
        real_decode = binio.StreamingDatabase.records
        monkeypatch.setattr(binio.StreamingDatabase, "__init__",
                            lambda db, path: opened.append(path)
                            or real_open(db, path))
        monkeypatch.setattr(binio.StreamingDatabase, "records",
                            lambda db, *args: decodes.append(db.path)
                            or real_decode(db, *args))
        merge_rank_files(rank_paths, str(tmp_path / "m.rpstore"))
        assert opened == rank_paths
        assert decodes == rank_paths

    def test_store_bytes_without_reopening(self, rank_paths, tmp_path,
                                           monkeypatch):
        from repro.core import store

        def refuse(path):
            raise AssertionError("merge_rank_files re-opened its output")

        monkeypatch.setattr(store, "open_store", refuse)
        out = str(tmp_path / "m.rpstore")
        report = merge_rank_files(rank_paths, out)
        walked = sum(
            os.path.getsize(os.path.join(base, name))
            for base, _dirs, files in os.walk(out)
            for name in files
        )
        assert report.store_bytes == walked

    def test_multi_rank_input_rejected(self, tmp_path):
        # serialization never writes rank trees, so the guard can only
        # trip on an in-memory multi-rank experiment
        multi = Experiment.from_program(fig1.build(), nranks=3)
        with pytest.raises(DatabaseError, match="single-rank"):
            merge_rank_files([multi], str(tmp_path / "m.rpstore"))

    def test_metric_signature_mismatch_rejected(self, rank_paths, tmp_path):
        odd_prog = scale_program(fanout=3, depth=2, metric="instructions")
        odd = Experiment.from_profile(
            execute(odd_prog, rank=0, nranks=1, seed=1),
            build_structure(odd_prog),
        )
        odd_path = str(tmp_path / "odd.rpdb")
        database.save(odd, odd_path)
        with pytest.raises(DatabaseError, match="metric"):
            merge_rank_files(rank_paths + [odd_path],
                             str(tmp_path / "m.rpstore"))

    def test_raw_values_on_a_non_raw_metric_rejected(self, tmp_path):
        # the writer drops such values, so only an in-memory experiment
        # (or crafted bytes) carries them; a store built from one would
        # hold them in its raw column but not in its skeleton
        exp = Experiment.from_program(fig1.build())
        mid = exp.metrics.add("odd", kind=MetricKind.SUMMARY).mid
        next(node for node in exp.cct.walk() if node.raw).raw[mid] = 1.0
        out = tmp_path / "m.rpstore"
        with pytest.raises(DatabaseError, match="non-raw metric"):
            merge_rank_files([exp, exp], str(out))
        assert not out.exists()

    def test_no_inputs_rejected(self, tmp_path):
        with pytest.raises(DatabaseError):
            merge_rank_files([], str(tmp_path / "m.rpstore"))

    def test_overwrite_flag(self, rank_paths, tmp_path):
        out = str(tmp_path / "m.rpstore")
        merge_rank_files(rank_paths, out)
        with pytest.raises(DatabaseError, match="already exists"):
            merge_rank_files(rank_paths, out)
        report = merge_rank_files(rank_paths[:3], out, overwrite=True)
        assert report.nranks == 3

    def test_failed_merge_does_not_block_its_retry(self, rank_paths,
                                                   tmp_path):
        out = str(tmp_path / "m.rpstore")
        with pytest.raises(DatabaseError, match="working-set budget"):
            merge_rank_files(rank_paths, out, working_set_bytes=1024)
        assert not os.path.exists(out)  # nothing left behind
        report = merge_rank_files(rank_paths, out)
        assert report.nranks == 5
        database.load(out).close()

    def test_overwrite_refuses_a_foreign_directory(self, rank_paths,
                                                   tmp_path):
        out = tmp_path / "m.rpstore"
        (out / "columns").mkdir(parents=True)
        (out / "notes.txt").write_text("mine")
        with pytest.raises(DatabaseError, match="non-store"):
            merge_rank_files(rank_paths, str(out), overwrite=True)
        assert (out / "notes.txt").read_text() == "mine"


class TestMergeExperiments:
    def test_summarized_merge_leaves_its_inputs_unchanged(self, rank_paths):
        loaded = [database.load(p) for p in rank_paths]

        def tables():
            return [[(d.mid, d.name, d.kind) for d in exp.metrics]
                    for exp in loaded]

        before = tables()
        first = merge_experiments(loaded, summarize="all")
        assert tables() == before
        again = merge_experiments(loaded, summarize="all")
        assert tables() == before
        assert [(d.mid, d.name) for d in again.metrics] == [
            (d.mid, d.name) for d in first.metrics
        ]

        def bits(exp):
            return [
                [(mid, v.hex()) for values in (n.inclusive, n.exclusive)
                 for mid, v in values.items()]
                for n in exp.cct.walk()
            ]

        assert bits(again) == bits(first)


def _scale_experiment(fanout: int, depth: int) -> Experiment:
    program = scale_program(fanout=fanout, depth=depth)
    return Experiment.from_profile(
        execute(program, rank=0, nranks=1, seed=1), build_structure(program)
    )


def _scopes(exp: Experiment) -> int:
    return sum(1 for _ in exp.structure.root.walk())


class TestMergesLeaveTheirFirstInputAlone:
    """Uniting structure models grows a fresh canonical model, never the
    first input's."""

    def test_merge_experiments(self):
        small, big = _scale_experiment(2, 1), _scale_experiment(3, 2)
        assert (_scopes(small), _scopes(big)) == (6, 10)
        merged = merge_experiments([small, big])
        assert _scopes(small) == 6
        assert _scopes(merged) == 15
        assert merged.structure is not small.structure

    def test_merge_rank_files_of_experiments(self, tmp_path):
        small, big = _scale_experiment(2, 1), _scale_experiment(3, 2)
        out = str(tmp_path / "m.rpstore")
        merge_rank_files([small, big], out)
        assert _scopes(small) == 6
        merged = database.load(out)
        try:
            assert _scopes(merged) == 15
        finally:
            merged.close()


class TestStructureMapping:
    def test_map_structure_bridges_uids(self):
        prog = scale_program(fanout=2, depth=2)
        a = build_structure(prog)
        b = build_structure(prog)  # same shape, independent uids
        mapping = map_structure(a, b)
        assert mapping[b.root.uid] is a.root
        # every node of b maps to the identically-keyed node of a
        a_uids = {node.uid for node in a.root.walk()}
        for node in b.root.walk():
            mapped = mapping[node.uid]
            assert mapped.key == node.key
            assert mapped.uid in a_uids

    def test_remap_cct_preserves_values_and_order(self):
        prog = scale_program(fanout=2, depth=2)
        structure = build_structure(prog)
        other = build_structure(prog)
        exp = Experiment.from_profile(
            execute(prog, rank=0, nranks=1, seed=5), other
        )
        mapping = map_structure(structure, other)
        remapped = remap_cct(exp.cct, mapping)
        canonical_uids = {node.uid for node in structure.root.walk()}
        for orig, new in zip(exp.cct.walk(), remapped.walk()):
            assert orig.kind == new.kind
            assert orig.line == new.line
            assert dict(orig.raw) == dict(new.raw)
            assert dict(orig.inclusive) == dict(new.inclusive)
            if new.struct is not None:
                assert new.struct.uid in canonical_uids
