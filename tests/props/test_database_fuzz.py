"""Fuzzing the database loaders: garbage in, DatabaseError out — never
a crash, hang, or silent misparse."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatabaseError
from repro.hpcprof import binio, xmlio
from repro.hpcprof.experiment import Experiment
from repro.sim.workloads import fig1


@pytest.fixture(scope="module")
def blob():
    return binio.dumps_binary(Experiment.from_program(fig1.build()))


class TestBinaryFuzz:
    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(min_size=0, max_size=256))
    def test_random_bytes_never_crash(self, data):
        try:
            binio.loads_binary(data)
        except DatabaseError:
            pass  # the only acceptable failure mode

    @settings(max_examples=100, deadline=None)
    @given(offset=st.integers(min_value=6, max_value=2000),
           value=st.integers(min_value=0, max_value=255))
    def test_single_byte_corruption(self, blob, offset, value):
        """Flip one byte anywhere: load must either succeed (the byte was
        a metric value or harmless string char) or raise DatabaseError —
        never an unhandled exception."""
        if offset >= len(blob):
            offset = offset % len(blob)
        mutated = blob[:offset] + bytes([value]) + blob[offset + 1:]
        try:
            binio.loads_binary(mutated)
        except DatabaseError:
            pass
        except (UnicodeDecodeError, ValueError, KeyError, IndexError,
                MemoryError, OverflowError) as exc:
            pytest.fail(f"leaked {type(exc).__name__} at offset {offset}")

    @settings(max_examples=50, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=4000))
    def test_any_truncation(self, blob, cut):
        if cut >= len(blob):
            return
        with pytest.raises(DatabaseError):
            binio.loads_binary(blob[:cut])


class TestXmlFuzz:
    @settings(max_examples=100, deadline=None)
    @given(data=st.text(max_size=200))
    def test_random_text_never_crashes(self, data):
        try:
            xmlio.loads_xml(data.encode("utf-8"))
        except DatabaseError:
            pass

    @settings(max_examples=50, deadline=None)
    @given(tag=st.sampled_from(["Metric", "S", "N", "M"]),
           attr=st.sampled_from(["i", "k", "v", "l", "s"]))
    def test_dropped_attributes(self, tag, attr):
        """Strip an attribute from every element of one kind: DatabaseError
        or success, never a raw TypeError/KeyError."""
        import re

        exp = Experiment.from_program(fig1.build())
        doc = xmlio.dumps_xml(exp).decode("utf-8")
        mutated = re.sub(
            rf'(<{tag}\b[^>]*?)\s{attr}="[^"]*"', r"\1", doc
        ).encode("utf-8")
        try:
            xmlio.loads_xml(mutated)
        except DatabaseError:
            pass
        except (TypeError, KeyError, AttributeError, ValueError) as exc:
            pytest.fail(f"leaked {type(exc).__name__} dropping {tag}@{attr}")
