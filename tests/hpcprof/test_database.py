"""Round-trip tests for the XML and binary experiment databases."""

from __future__ import annotations

import struct

import pytest

from repro.core.errors import DatabaseError
from repro.core.metrics import MetricKind
from repro.hpcprof import binio, database, recovery, xmlio
from repro.hpcprof.experiment import Experiment
from repro.sim.workloads import fig1
from repro.testing import replace_section
from tests.hpcprof.test_merge import make_rank_program


def tree_snapshot(cct):
    """Structural + metric content of a CCT, identity-free."""
    out = []

    def visit(node, depth):
        struct_key = (
            (node.struct.kind.value, node.struct.name, node.struct.location.file,
             node.struct.location.line)
            if node.struct is not None
            else None
        )
        out.append(
            (
                depth,
                node.kind.value,
                struct_key,
                node.line,
                tuple(sorted(node.raw.items())),
                tuple(sorted(node.inclusive.items())),
                tuple(sorted(node.exclusive.items())),
            )
        )
        for child in sorted(node.children, key=lambda c: c.key):
            visit(child, depth + 1)

    visit(cct.root, 0)
    return out


@pytest.fixture()
def experiment():
    exp = Experiment.from_program(fig1.build())
    exp.add_derived_metric("double", "2 * $0")
    return exp


@pytest.fixture()
def parallel_experiment():
    exp = Experiment.from_program(make_rank_program(), nranks=4)
    exp.summarize("cycles")
    return exp


@pytest.mark.parametrize("codec", [xmlio, binio], ids=["xml", "binary"])
class TestRoundTrip:
    def dumps(self, codec, exp):
        return codec.dumps_xml(exp) if codec is xmlio else codec.dumps_binary(exp)

    def loads(self, codec, data):
        return codec.loads_xml(data) if codec is xmlio else codec.loads_binary(data)

    def test_cct_round_trip_identity(self, codec, experiment):
        loaded = self.loads(codec, self.dumps(codec, experiment))
        assert tree_snapshot(loaded.cct) == tree_snapshot(experiment.cct)

    def test_metric_table_round_trip(self, codec, experiment):
        loaded = self.loads(codec, self.dumps(codec, experiment))
        assert loaded.metrics.names() == experiment.metrics.names()
        derived = loaded.metrics.by_name("double")
        assert derived.kind is MetricKind.DERIVED
        assert derived.formula == "2 * $0"

    def test_name_round_trip(self, codec, experiment):
        loaded = self.loads(codec, self.dumps(codec, experiment))
        assert loaded.name == experiment.name

    def test_structure_round_trip(self, codec, experiment):
        loaded = self.loads(codec, self.dumps(codec, experiment))
        assert loaded.structure.stats() == experiment.structure.stats()
        g = loaded.structure.procedure("g")
        assert g.location.file == "file2.c"
        assert (3, "g") in g.calls and (4, "h") in g.calls

    def test_views_work_after_load(self, codec, experiment):
        loaded = self.loads(codec, self.dumps(codec, experiment))
        mid = loaded.metric_id(fig1.METRIC)
        callers = loaded.callers_view()
        g = next(r for r in callers.roots if r.name == "g")
        assert (g.inclusive[mid], g.exclusive[mid]) == (9.0, 4.0)

    def test_summary_metrics_survive(self, codec, parallel_experiment):
        ids = parallel_experiment.summarize("cycles")
        loaded = self.loads(codec, self.dumps(codec, parallel_experiment))
        root = loaded.cct.root
        assert root.inclusive[ids.mean] == 50.0
        assert root.inclusive[ids.maximum] == 80.0

    def test_double_round_trip_is_stable(self, codec, experiment):
        once = self.loads(codec, self.dumps(codec, experiment))
        twice = self.loads(codec, self.dumps(codec, once))
        assert tree_snapshot(once.cct) == tree_snapshot(twice.cct)


class TestDispatch:
    def test_save_load_by_extension(self, experiment, tmp_path):
        for name in ["db.xml", "db.rpdb"]:
            path = str(tmp_path / name)
            size = database.save(experiment, path)
            assert size > 0
            loaded = database.load(path)
            assert tree_snapshot(loaded.cct) == tree_snapshot(experiment.cct)

    def test_binary_is_smaller_than_xml(self, parallel_experiment, tmp_path):
        xml_size = database.save(parallel_experiment, str(tmp_path / "db.xml"))
        bin_size = database.save(parallel_experiment, str(tmp_path / "db.rpdb"))
        assert bin_size < xml_size

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DatabaseError):
            database.load(str(tmp_path / "nope.rpdb"))

    def test_load_garbage(self, tmp_path):
        path = tmp_path / "garbage.rpdb"
        path.write_bytes(b"definitely not a database")
        with pytest.raises(DatabaseError):
            database.load(str(path))

    def test_truncated_binary(self, experiment, tmp_path):
        data = binio.dumps_binary(experiment)
        with pytest.raises(DatabaseError):
            binio.loads_binary(data[: len(data) // 2])

    def test_malformed_xml(self):
        with pytest.raises(DatabaseError):
            xmlio.loads_xml(b"<CallPathExperiment><oops></CallPathExperiment>")
        with pytest.raises(DatabaseError):
            xmlio.loads_xml(b"<SomethingElse/>")


# --------------------------------------------------------------------- #
# crafted, CRC-valid payloads the strict loader must refuse
# --------------------------------------------------------------------- #
def overlay_on_raw_metric(blob: bytes, value: float = 12345.0) -> bytes:
    """*blob* whose CCT root carries a stored summary overlay
    ``(inclusive, mid 0, value)`` on metric 0, re-framed CRC-valid."""
    frames = {sid: (at, end) for sid, _h, at, end in binio.section_frames(blob)}
    at, end = frames[binio.SEC_CCT]
    payload = blob[at:end]
    head = struct.Struct("<BIIHH")
    pos = 4  # past the declared node count
    kind, sid, line, nraw, nsummary = head.unpack_from(payload, pos)
    raw_end = pos + head.size + nraw * struct.calcsize("<Id")
    crafted = (
        payload[:pos]
        + head.pack(kind, sid, line, nraw, nsummary + 1)
        + payload[pos + head.size:raw_end]
        + struct.pack("<BId", 0, 0, value)
        + payload[raw_end:]
    )
    return replace_section(blob, binio.SEC_CCT, crafted)


def structure_count_overstated(blob: bytes, extra: int = 3) -> bytes:
    """*blob* whose structure section declares *extra* more nodes than
    it holds, re-framed CRC-valid."""
    frames = {sid: (at, end) for sid, _h, at, end in binio.section_frames(blob)}
    at, end = frames[binio.SEC_STRUCTURE]
    (declared,) = struct.unpack_from("<I", blob, at)
    crafted = struct.pack("<I", declared + extra) + blob[at + 4:end]
    return replace_section(blob, binio.SEC_STRUCTURE, crafted)


class TestCraftedPayloads:
    def test_summary_overlay_on_raw_metric_is_refused(self):
        exp = Experiment.from_program(fig1.build())
        assert exp.metrics.by_id(0).kind is MetricKind.RAW
        assert exp.cct.root.inclusive[0] == 10.0
        crafted = overlay_on_raw_metric(binio.dumps_binary(exp))
        with pytest.raises(DatabaseError, match="non-summary metric"):
            binio.loads_binary(crafted)
        # salvage drops the same overlay, so the stream is not clean
        salvaged = recovery.salvage_loads(crafted)
        assert not salvaged.load_report.clean
        assert salvaged.load_report.values_dropped == 1
        assert salvaged.cct.root.inclusive[0] == 10.0

    def test_structure_count_mismatch_is_unclean(self):
        blob = binio.dumps_binary(Experiment.from_program(fig1.build()))
        crafted = structure_count_overstated(blob)
        with pytest.raises(DatabaseError, match="structure section declares"):
            binio.loads_binary(crafted)
        report = recovery.probe_bytes(crafted)
        assert not report.clean
        assert any("declares" in err for err in report.errors)

    def test_exact_end_refuses_trailing_bytes(self):
        exp = Experiment.from_program(fig1.build())
        for version in (1, 2):
            blob = binio.dumps_binary(exp, version=version)
            binio.loads_binary(blob, exact=True)
            binio.loads_binary(blob + b"\0")  # lenient by default
            with pytest.raises(DatabaseError, match="trailing|END frame"):
                binio.loads_binary(blob + b"\0", exact=True)
