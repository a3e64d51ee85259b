"""The blessed ``repro.api`` facade and the error taxonomy's one home.

Pins the Python-side v1 promise: every facade name resolves, the
one-call :func:`repro.api.open_database` works on both database
formats, and the error classes live only in :mod:`repro.errors` — the
old ``repro.core.errors`` / ``repro.server.errors`` paths are gone.
"""

from __future__ import annotations

import pytest

import repro.api as api


class TestFacadeSurface:
    def test_all_names_resolve(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []

    def test_all_is_sorted_by_section_not_duplicated(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_star_import(self):
        namespace: dict = {}
        exec("from repro.api import *", namespace)
        assert set(api.__all__) <= set(namespace)


class TestOpenDatabase:
    @pytest.fixture(scope="class")
    def experiment(self):
        from repro.sim.workloads import fig1
        from repro.hpcprof.experiment import Experiment

        return Experiment.from_program(fig1.build())

    def test_binary_round_trip(self, experiment, tmp_path):
        path = str(tmp_path / "exp.rpdb")
        api.save(experiment, path)
        session = api.open_database(path)
        assert isinstance(session, api.ViewerSession)
        for kind in api.ViewKind:
            text = api.render_view(session.view(kind), depth=2)
            assert experiment.name in text or text

    def test_xml_round_trip(self, experiment, tmp_path):
        path = str(tmp_path / "experiment.xml")
        api.save(experiment, path)
        session = api.open_database(path)
        assert len(session.experiment.cct) == len(experiment.cct)

    def test_missing_file_raises_taxonomy(self, tmp_path):
        with pytest.raises(api.DatabaseError):
            api.open_database(str(tmp_path / "absent.rpdb"))

    def test_salvage_flag(self, experiment, tmp_path):
        from repro.hpcprof import binio

        blob = binio.dumps_binary(experiment)
        path = tmp_path / "cut.rpdb"
        path.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(api.DatabaseError):
            api.open_database(str(path))
        session = api.open_database(str(path), salvage=True)
        assert session.experiment.load_report is not None


class TestDeprecationShims:
    @pytest.mark.parametrize("module", ["repro.core.errors",
                                        "repro.server.errors"])
    def test_moved_error_modules_no_longer_import(self, module):
        """The taxonomy has one home, :mod:`repro.errors`."""
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_wire_codes_cover_every_domain_family(self):
        from repro import errors

        for exc_type in errors.WIRE_CODES:
            assert issubclass(exc_type, errors.ReproError)
        code, status = errors.wire_code(errors.FormulaError("x"))
        assert (code, status) == ("bad-formula", 400)
        # MRO walk: an unlisted subclass maps through its parent
        class CustomMetricError(errors.MetricError):
            pass

        code, status = errors.wire_code(CustomMetricError("x"))
        assert (code, status) == ("bad-metric", 400)
