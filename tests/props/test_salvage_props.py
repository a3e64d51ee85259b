"""Salvage-loading properties: the fault-tolerant ingestion contract.

Exhaustive (every byte position of a small round-tripped ``.rpdb``) and
property-based checks of the two loading modes:

* **strict** (`database.loads(strict=True)`) — corrupt or truncated
  input raises :class:`DatabaseError`, never ``struct.error``,
  ``UnicodeDecodeError``, ``MemoryError``, or any other leak;
* **salvage** (`strict=False`) — never raises on corrupt/truncated
  input; returns an :class:`Experiment` whose recovered prefix passes
  the same validation as a clean load, tagged with an accurate
  :class:`LoadReport`.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatabaseError
from repro.hpcprof import binio, database
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.recovery import salvage_loads, validate_experiment
from repro.sim.workloads import fig1
from repro.testing import bit_flip, frame_boundaries, truncate
from tests.golden import corpus


@pytest.fixture(scope="module")
def experiment():
    return Experiment.from_program(fig1.build())


@pytest.fixture(scope="module")
def blob(experiment):
    return binio.dumps_binary(experiment)


@pytest.fixture(scope="module")
def blob_v1():
    """A frozen legacy v1 stream (only v2 is written)."""
    return _golden("fig1-serial.v1.rpdb")


def _golden(name: str) -> bytes:
    with open(os.path.join(corpus.DATA_DIR, name), "rb") as fh:
        return fh.read()


def _strict_must_contain(data: bytes) -> None:
    """Strict loads: success or DatabaseError, nothing else."""
    try:
        exp = database.loads(data, strict=True)
    except DatabaseError:
        return
    validate_experiment(exp)


def _salvage_must_hold(data: bytes) -> None:
    """Salvage loads: never raise once the header is intact; the
    recovered experiment validates; the report's accounting closes."""
    exp = database.loads(data, origin="<fault>", strict=False)
    validate_experiment(exp)
    report = exp.load_report
    assert report.mode == "salvage"
    assert report.bytes_total == len(data)
    assert report.bytes_recovered + report.bytes_lost == report.bytes_total
    assert 0 <= report.bytes_recovered <= report.bytes_total
    assert report.nodes_recovered == len(exp.cct)
    if report.nodes_declared is not None:
        assert report.nodes_dropped == max(
            0, report.nodes_declared - report.nodes_recovered
        )


# --------------------------------------------------------------------- #
# exhaustive sweeps (satellite: every byte position of a small database)
# --------------------------------------------------------------------- #
class TestExhaustiveTruncation:
    def test_every_offset_strict(self, blob):
        for cut in range(len(blob)):
            try:
                database.loads(truncate(blob, cut), strict=True)
            except DatabaseError:
                continue
            except Exception as exc:  # noqa: BLE001 - the assertion
                pytest.fail(f"cut={cut} leaked {type(exc).__name__}: {exc}")
            pytest.fail(f"cut={cut}: truncated database loaded strictly")

    def test_every_offset_salvage(self, blob):
        for cut in range(6, len(blob) + 1):
            try:
                _salvage_must_hold(truncate(blob, cut))
            except Exception as exc:  # noqa: BLE001
                pytest.fail(f"cut={cut}: salvage raised {type(exc).__name__}: {exc}")

    def test_every_offset_salvage_v1(self, blob_v1):
        for cut in range(6, len(blob_v1) + 1):
            try:
                _salvage_must_hold(truncate(blob_v1, cut))
            except Exception as exc:  # noqa: BLE001
                pytest.fail(f"v1 cut={cut}: salvage raised {type(exc).__name__}: {exc}")


class TestExhaustiveBitFlips:
    def test_every_byte_strict(self, blob):
        for offset in range(len(blob)):
            try:
                _strict_must_contain(bit_flip(blob, offset, offset % 8))
            except Exception as exc:  # noqa: BLE001
                pytest.fail(
                    f"offset={offset} leaked {type(exc).__name__}: {exc}"
                )

    def test_every_byte_salvage(self, blob):
        for offset in range(len(blob)):
            mutated = bit_flip(blob, offset, offset % 8)
            if mutated[:4] != b"RPDB" or offset in (4, 5):
                # the magic/version prefix is identity, not payload:
                # salvage refuses input it cannot recognize at all
                with pytest.raises(DatabaseError):
                    salvage_loads(mutated)
                continue
            try:
                _salvage_must_hold(mutated)
            except Exception as exc:  # noqa: BLE001
                pytest.fail(
                    f"offset={offset}: salvage raised {type(exc).__name__}: {exc}"
                )


# --------------------------------------------------------------------- #
# frame-boundary recovery guarantees
# --------------------------------------------------------------------- #
class TestFrameBoundaries:
    def test_boundaries_cover_all_sections(self, blob):
        cuts = frame_boundaries(blob)
        assert 0 in cuts and len(blob) in cuts
        assert len(cuts) >= 2 * len(binio.section_frames(blob))

    def test_cut_at_each_boundary_recovers_prefix(self, blob, experiment):
        """Cutting exactly at a frame boundary loses whole trailing
        sections and nothing else: every section fully before the cut is
        recovered intact."""
        frames = binio.section_frames(blob)
        for _sid, header, _payload, end in frames:
            exp = salvage_loads(truncate(blob, header))
            report = exp.load_report
            # sections whose frames end at or before the cut survive whole
            survived = [f for f in frames if f[3] <= header]
            if any(f[0] == binio.SEC_METRICS for f in survived):
                assert report.metrics_recovered == len(experiment.metrics)
            if any(f[0] == binio.SEC_CCT for f in survived):
                assert report.nodes_recovered == len(experiment.cct)
                assert report.nodes_dropped == 0
            else:
                assert "cct" in (
                    report.sections_skipped + report.sections_truncated
                ) or report.nodes_recovered <= len(experiment.cct)

    def test_full_stream_salvage_is_clean(self, blob, experiment):
        exp = salvage_loads(blob)
        report = exp.load_report
        assert report.clean
        assert report.bytes_lost == 0
        assert report.nodes_recovered == len(experiment.cct)
        assert report.nodes_dropped == 0
        assert not report.sections_skipped and not report.sections_truncated

    def test_corrupt_middle_section_localized(self, blob, experiment):
        """Corrupting the STRUCTURE payload (CRC fails) skips only that
        section — the framing still recovers the CCT after it."""
        frames = {sid: f for sid, *f in binio.section_frames(blob)}
        _header, payload_at, _end = frames[binio.SEC_STRUCTURE]
        mutated = bit_flip(blob, payload_at + 8)
        exp = salvage_loads(mutated)
        report = exp.load_report
        assert "structure" in report.sections_skipped
        assert report.metrics_recovered == len(experiment.metrics)
        validate_experiment(exp)


# --------------------------------------------------------------------- #
# version compatibility
# --------------------------------------------------------------------- #
class TestV1Compatibility:
    def test_v1_and_v2_load_identically(self, blob_v1):
        """A frozen v1 database re-encodes as exactly its v2 twin —
        backward compatibility is exact, not approximate."""
        twin = _golden("fig1-serial.v2.rpdb")
        e1, e2 = binio.loads_binary(blob_v1), binio.loads_binary(twin)
        assert binio.dumps_binary(e1) == binio.dumps_binary(e2) == twin

    def test_v2_round_trip_stable(self, blob):
        assert binio.dumps_binary(binio.loads_binary(blob)) == blob


# --------------------------------------------------------------------- #
# randomized reinforcement of the exhaustive sweeps
# --------------------------------------------------------------------- #
class TestRandomizedCorruption:
    @settings(max_examples=100, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=10_000),
           bit=st.integers(min_value=0, max_value=7))
    def test_flip_then_both_modes(self, blob, offset, bit):
        mutated = bit_flip(blob, offset % len(blob), bit)
        _strict_must_contain(mutated)
        if mutated[:6] == blob[:6]:
            _salvage_must_hold(mutated)

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(min_size=0, max_size=300))
    def test_salvage_arbitrary_bytes(self, data):
        """Salvage accepts anything carrying a valid header; everything
        else raises DatabaseError — never another exception type."""
        try:
            _salvage_must_hold(b"RPDB" + data)
        except DatabaseError:
            pass
