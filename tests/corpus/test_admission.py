"""Upload admission: one strict decode decides, and the salvage report agrees.

A differential battery over one small upload.  For every mutated
payload — every truncation offset, a bit 0 and a bit 7 flip at every
byte, trailing bytes, and two CRC-valid crafted files — three answers
must coincide:

* the catalog admits the payload (and stores it byte-for-byte);
* an independent oracle: a strict load succeeds *and* the stream ends
  exactly at its END frame;
* ``probe_bytes(payload).clean`` (the salvage loader's verdict).
"""

from __future__ import annotations

import pytest

from repro.corpus import CorpusCatalog
from repro.errors import DatabaseError
from repro.hpcprof import binio, recovery
from repro.testing import bit_flip, truncate
from tests.hpcprof.test_database import (
    overlay_on_raw_metric,
    structure_count_overstated,
)


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    root = tmp_path_factory.mktemp("admission") / "corpus"
    with CorpusCatalog(str(root), create=True) as corpus:
        yield corpus


def _admitted(catalog, data: bytes) -> bool:
    try:
        stored = catalog._validated_payload(data, salvage=False)
    except DatabaseError:
        return False
    assert stored == data, "admitted payloads are stored verbatim"
    return True


def _strict_exact(data: bytes) -> bool:
    """Strict load succeeds and the last frame is an empty END at the end."""
    try:
        binio.loads_binary(data)
    except DatabaseError:
        return False
    sid, _header, payload_at, end = binio.section_frames(data)[-1]
    return sid == binio.SEC_END and payload_at == end == len(data)


def _probe_clean(data: bytes) -> bool:
    try:
        return recovery.probe_bytes(data).clean
    except DatabaseError:  # not a binary database at all
        return False


def _mutations(blob: bytes):
    for offset in range(len(blob) + 1):
        yield f"truncate@{offset}", truncate(blob, offset)
    for offset in range(len(blob)):
        for bit in (0, 7):
            yield f"flip@{offset}.{bit}", bit_flip(blob, offset, bit)
    yield "trailing-zero", blob + b"\0"
    yield "trailing-frame", blob + blob[-9:]
    yield "overlay-on-raw", overlay_on_raw_metric(blob)
    yield "structure-count", structure_count_overstated(blob)


def test_admission_matches_strict_exact_and_probe(catalog, profile_bytes):
    admitted_cases = []
    for label, data in _mutations(profile_bytes):
        admitted = _admitted(catalog, data)
        assert admitted == _strict_exact(data), label
        assert _probe_clean(data) == admitted, label
        if admitted:
            admitted_cases.append(label)
    # the untouched upload is admitted and every truncation, trailing
    # byte and crafted file is refused; the only admitted flips are in
    # the END frame's CRC field, which covers an empty payload and is
    # checked by neither loader
    assert f"truncate@{len(profile_bytes)}" in admitted_cases
    assert not any(
        label.startswith(("truncate", "trailing", "overlay", "structure"))
        and label != f"truncate@{len(profile_bytes)}"
        for label in admitted_cases
    )


@pytest.mark.parametrize("craft", [overlay_on_raw_metric,
                                   structure_count_overstated])
def test_crafted_uploads_refused_then_salvaged_loadable(catalog,
                                                        profile_bytes, craft):
    data = craft(profile_bytes)
    with pytest.raises(DatabaseError, match="failed validation"):
        catalog._validated_payload(data, salvage=False)
    stored = catalog._validated_payload(data, salvage=True)
    assert stored != data
    binio.loads_binary(stored, exact=True)


def test_v1_upload_admitted_only_when_exact(catalog, profile_bytes):
    blob = binio.dumps_binary(binio.loads_binary(profile_bytes), version=1)
    assert _admitted(catalog, blob)
    assert _probe_clean(blob)
    for data in (blob + b"\0", truncate(blob, len(blob) - 1)):
        assert not _admitted(catalog, data)
        assert not _probe_clean(data)
