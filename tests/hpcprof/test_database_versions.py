"""Version and schema robustness of the experiment databases."""

from __future__ import annotations

import struct

import pytest

from repro.errors import DatabaseError
from repro.hpcprof import binio, xmlio
from repro.hpcprof.experiment import Experiment
from repro.sim.workloads import fig1


@pytest.fixture(scope="module")
def blob():
    return binio.dumps_binary(Experiment.from_program(fig1.build()))


class TestBinaryVersioning:
    def test_future_version_rejected(self, blob):
        bumped = blob[:4] + struct.pack("<H", 99) + blob[6:]
        with pytest.raises(DatabaseError) as err:
            binio.loads_binary(bumped)
        assert "version" in str(err.value)

    def test_bad_magic_rejected(self, blob):
        with pytest.raises(DatabaseError):
            binio.loads_binary(b"XXXX" + blob[4:])

    def test_empty_input(self):
        with pytest.raises(DatabaseError):
            binio.loads_binary(b"")

    @pytest.mark.parametrize("cut", [10, 50, 100, 200])
    def test_truncation_at_many_offsets(self, blob, cut):
        if cut < len(blob):
            with pytest.raises(DatabaseError):
                binio.loads_binary(blob[:cut])


class TestXmlSchema:
    def test_sparse_metric_ids_rejected(self):
        doc = (
            b"<CallPathExperiment version='1.0' name='x'>"
            b"<MetricTable><Metric i='1' n='a' u='' p='1.0' k='raw' f='' "
            b"d='' pct='1'/></MetricTable>"
            b"<Structure><S i='0' k='root' n='x' f='' l='0' e='0' c=''/>"
            b"</Structure><CCT><N k='root' s='-1' l='0'/></CCT>"
            b"</CallPathExperiment>"
        )
        with pytest.raises(DatabaseError) as err:
            xmlio.loads_xml(doc)
        assert "dense" in str(err.value)

    def test_multiple_structure_roots_rejected(self):
        doc = (
            b"<CallPathExperiment version='1.0' name='x'>"
            b"<MetricTable/>"
            b"<Structure>"
            b"<S i='0' k='root' n='x' f='' l='0' e='0' c=''/>"
            b"<S i='1' k='root' n='y' f='' l='0' e='0' c=''/>"
            b"</Structure><CCT><N k='root' s='-1' l='0'/></CCT>"
            b"</CallPathExperiment>"
        )
        with pytest.raises(DatabaseError):
            xmlio.loads_xml(doc)

    def test_minimal_valid_document(self):
        doc = (
            b"<CallPathExperiment version='1.0' name='tiny'>"
            b"<MetricTable><Metric i='0' n='c' u='' p='1.0' k='raw' f='' "
            b"d='' pct='1'/></MetricTable>"
            b"<Structure><S i='0' k='root' n='t' f='' l='0' e='0' c=''/>"
            b"</Structure><CCT><N k='root' s='-1' l='0'/></CCT>"
            b"</CallPathExperiment>"
        )
        exp = xmlio.loads_xml(doc)
        assert exp.name == "tiny"
        assert exp.metrics.names() == ["c"]
        assert len(exp.cct) == 1
