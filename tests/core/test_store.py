"""Unit tests for the out-of-core column store (:mod:`repro.core.store`)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.store import (
    StoreExperiment,
    create_store,
    is_store_path,
    open_store,
)
from repro.errors import DatabaseError, ViewError
from repro.hpcprof import database
from repro.hpcprof.experiment import Experiment
from repro.sim.workloads import fig1
from repro.viewer.table import render_view
from tests.file_backing import is_file_backed


@pytest.fixture()
def experiment():
    return Experiment.from_program(fig1.build(), nranks=4, seed=3)


@pytest.fixture()
def store_exp(experiment, tmp_path):
    exp = create_store(experiment, str(tmp_path / "s.rpstore"))
    yield exp
    exp.close()


class TestCreateOpen:
    def test_round_trip_renders_identically(self, experiment, store_exp):
        for a, b in zip(experiment.views(), store_exp.views()):
            assert render_view(a) == render_view(b)

    def test_engine_is_memory_mapped(self, store_exp):
        assert is_file_backed(store_exp.engine.raw)
        assert is_file_backed(store_exp.engine.inclusive)

    def test_rank_vectors_survive(self, experiment, store_exp):
        for orig, stored in zip(experiment.cct.walk(), store_exp.cct.walk()):
            assert np.array_equal(
                experiment.rank_vector(orig, "cycles"),
                store_exp.rank_vector(stored, "cycles"),
            )

    def test_is_store_path(self, store_exp, tmp_path):
        assert is_store_path(store_exp.store.path)
        assert not is_store_path(str(tmp_path))

    def test_metricless_experiment_refused(self, tmp_path):
        from repro.core.metrics import MetricTable
        from repro.core.cct import CCT
        from repro.hpcstruct.model import StructureModel

        empty = Experiment("e", MetricTable(), StructureModel("e"), CCT())
        with pytest.raises(DatabaseError, match="metric-less"):
            create_store(empty, str(tmp_path / "e.rpstore"))

    def test_refuses_to_clobber_foreign_directory(self, experiment, tmp_path):
        victim = tmp_path / "precious"
        victim.mkdir()
        (victim / "data.txt").write_text("keep me")
        with pytest.raises(DatabaseError, match="already exists"):
            create_store(experiment, str(victim))
        with pytest.raises(DatabaseError, match="non-store"):
            create_store(experiment, str(victim), overwrite=True)
        assert (victim / "data.txt").read_text() == "keep me"


class TestDatabaseDispatch:
    def test_save_rpstore_extension_builds_store(self, experiment, tmp_path):
        path = str(tmp_path / "x.rpstore")
        size = database.save(experiment, path)
        assert size > 0
        assert is_store_path(path)

    def test_load_store_directory(self, experiment, tmp_path):
        path = str(tmp_path / "x.rpstore")
        database.save(experiment, path)
        exp = database.load(path)
        try:
            assert isinstance(exp, StoreExperiment)
            assert exp.nranks == 4
        finally:
            exp.close()

    def test_load_plain_directory_still_canonical_error(self, tmp_path):
        with pytest.raises(DatabaseError,
                           match="database path is a directory"):
            database.load(str(tmp_path))


class TestManifestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatabaseError):
            open_store(str(tmp_path / "nope.rpstore"))

    def test_corrupt_manifest_json(self, store_exp):
        path = store_exp.store.path
        store_exp.close()
        manifest = os.path.join(path, "manifest.json")
        with open(manifest, "w") as fh:
            fh.write("{not json")
        with pytest.raises(DatabaseError):
            open_store(path)

    def test_truncated_column_file(self, store_exp):
        path = store_exp.store.path
        store_exp.close()
        column = os.path.join(path, "columns", "inclusive.f64")
        with open(column, "r+b") as fh:
            fh.truncate(8)
        # the columns are cross-checked at open, so the size check fires there
        with pytest.raises(DatabaseError, match="inclusive.f64"):
            open_store(path)

    def test_manifest_skeleton_disagreement(self, store_exp):
        path = store_exp.store.path
        store_exp.close()
        manifest = os.path.join(path, "manifest.json")
        with open(manifest) as fh:
            data = json.load(fh)
        data["nnodes"] += 1
        with open(manifest, "w") as fh:
            json.dump(data, fh)
        with pytest.raises(DatabaseError, match="corrupt store"):
            open_store(path)


class TestColumnCrossCheck:
    """Open checks each mapped column against the skeleton's attribution."""

    @pytest.mark.parametrize("name", ["raw", "inclusive", "exclusive"])
    def test_flipped_byte_in_column_is_refused(self, store_exp, name):
        path = store_exp.store.path
        matrix = {"raw": store_exp.engine.raw,
                  "inclusive": store_exp.engine.inclusive,
                  "exclusive": store_exp.engine.exclusive}[name]
        # a byte inside the last nonzero cell (a zero cell could flip to -0.0)
        cell = int(np.flatnonzero(matrix.ravel())[-1])
        store_exp.close()
        column = os.path.join(path, "columns", f"{name}.f64")
        with open(column, "r+b") as fh:
            fh.seek(cell * 8 + 3)
            byte = fh.read(1)[0]
            fh.seek(cell * 8 + 3)
            fh.write(bytes([byte ^ 0xFF]))
        with pytest.raises(DatabaseError, match=f"columns/{name}.f64"):
            open_store(path)

    def test_intact_store_opens_with_one_engine(self, store_exp):
        exp = open_store(store_exp.store.path)
        try:
            assert exp.cct._engine is exp.engine
            assert is_file_backed(exp.engine.inclusive)
        finally:
            exp.close()


class TestLifecycle:
    def test_closed_store_rank_data_errors(self, store_exp):
        node = next(iter(store_exp.cct.walk()))
        store_exp.close()
        with pytest.raises(ViewError, match="closed"):
            store_exp.rank_vector(node, "cycles")

    def test_release_then_reuse_reopens_maps(self, store_exp):
        before = render_view(store_exp.views()[0])
        store_exp.release()
        assert render_view(store_exp.views()[0]) == before

    def test_mutation_falls_back_to_gathered_engine(self, store_exp):
        assert is_file_backed(store_exp.engine.raw)
        store_exp.add_derived_metric("double", "2 * $0")
        engine = store_exp.engine
        assert not is_file_backed(engine.raw)
        # and the derived column actually renders
        assert "double" in render_view(store_exp.views()[2])

    def test_summarize_on_demand_matches_in_memory(self, experiment,
                                                   tmp_path):
        ids = experiment.summarize("cycles")
        store = create_store(experiment, str(tmp_path / "u.rpstore"))
        try:
            # summaries were baked at create time; same metric ids resolve
            got = store.summarize("cycles")
            assert got == ids
            for orig, stored in zip(experiment.cct.walk(),
                                    store.cct.walk()):
                for mid in (ids.mean, ids.minimum, ids.maximum, ids.stddev):
                    assert orig.inclusive.get(mid) == stored.inclusive.get(mid)
        finally:
            store.close()
