"""Compact binary experiment-database format.

The paper's ongoing work includes "replacing our XML format for profiles
with a more compact binary format"; this module implements it.  Two
on-disk versions exist (all integers little-endian):

**v1 (legacy, unframed)** — magic ``RPDB``, u16 version, then the
payload sections concatenated with no framing:

* header: length-prefixed experiment name;
* string table: u32 count, then length-prefixed UTF-8 strings — every
  name/file/formula is stored once and referenced by index;
* metric table: u32 count, then per metric: name/unit/formula/description
  string refs, f64 period, u8 kind, u8 show_percent;
* structure tree: preorder records ``(u8 kind, u32 name, u32 file,
  u32 line, u32 end_line, u16 ncalls [u32 line, u32 callee]..., u32
  nchildren)`` — node ids are implicit preorder positions;
* CCT: preorder records ``(u8 kind, u32 struct_id+1, u32 line, u16 nraw
  [u32 mid, f64]..., u16 nsummary [u8 flavor, u32 mid, f64]..., u32
  nchildren)``.

**v2 (framed, default)** — the same record encodings, but each section
is wrapped in a checksummed frame ``(u8 section id, u32 payload length,
u32 crc32(payload))`` and the structure/CCT payloads lead with a u32
total node count.  The framing is what makes fault-tolerant ingestion
possible (see :mod:`repro.hpcprof.recovery`): a flipped bit is caught
by the section CRC instead of surfacing as a misparse, a corrupt middle
section can be skipped without losing the sections after it, and the
declared node counts let a salvage load report exactly how much of a
truncated tree it recovered.  A zero-length ``END`` frame terminates
the stream so truncation after the last section is detectable.

Readers and writers are iterative (explicit stacks), so arbitrarily
deep call chains — e.g. the 5000-frame recursion regressions — survive
a round trip without tripping the interpreter recursion limit.

Varint-free and mmap-friendly; the size/speed advantage over XML is
quantified by ``benchmarks/bench_database.py`` and the checksum
overhead by ``benchmarks/run_server_bench.py``.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import zlib

from repro.core.attribution import attribute
from repro.core.cct import CCT, CCTKind, CCTNode
from repro.errors import (
    CorrelationError,
    DatabaseError,
    MetricError,
    StructureError,
)
from repro.core.metrics import MetricKind, MetricTable
from repro.hpcprof.experiment import Experiment
from repro.hpcstruct.model import (
    SourceLocation,
    StructKind,
    StructureModel,
    StructureNode,
)

__all__ = [
    "write_binary",
    "read_binary",
    "read_binary_streaming",
    "dumps_binary",
    "loads_binary",
    "loads_basis",
    "StreamingDatabase",
    "FORMAT_VERSION",
    "section_frames",
]

_MAGIC = b"RPDB"
_V1 = 1
_V2 = 2
FORMAT_VERSION = _V2

# v2 section ids, in stream order
SEC_NAME = 1
SEC_STRINGS = 2
SEC_METRICS = 3
SEC_STRUCTURE = 4
SEC_CCT = 5
SEC_END = 0xFF

SECTION_NAMES = {
    SEC_NAME: "name",
    SEC_STRINGS: "strings",
    SEC_METRICS: "metrics",
    SEC_STRUCTURE: "structure",
    SEC_CCT: "cct",
    SEC_END: "end",
}

_FRAME_HEADER = struct.Struct("<BII")  # section id, payload length, crc32

_STRUCT_KINDS = list(StructKind)
_CCT_KINDS = list(CCTKind)
_METRIC_KINDS = list(MetricKind)

#: exceptions that single-byte corruption can surface as, converted to
#: DatabaseError at the loads_binary boundary so the loader presents
#: exactly one failure mode for bad bytes
MALFORMED_EXCEPTIONS = (
    IndexError,
    KeyError,
    ValueError,
    OverflowError,
    MemoryError,
    UnicodeDecodeError,
    RecursionError,
    struct.error,
    StructureError,
    CorrelationError,
    MetricError,
)


class _StringTable:
    def __init__(self) -> None:
        self.strings: list[str] = []
        self._index: dict[str, int] = {}

    def ref(self, s: str) -> int:
        idx = self._index.get(s)
        if idx is None:
            idx = len(self.strings)
            self.strings.append(s)
            self._index[s] = idx
        return idx


def _pack_str(buf: io.BytesIO, s: str) -> None:
    raw = s.encode("utf-8")
    buf.write(struct.pack("<I", len(raw)))
    buf.write(raw)


class _Reader:
    """A bounds-checked cursor over one buffer (or a slice of one)."""

    def __init__(self, data: bytes, pos: int = 0, end: int | None = None) -> None:
        self.data = data
        self.pos = pos
        self.end = len(data) if end is None else end

    @property
    def remaining(self) -> int:
        return self.end - self.pos

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > self.end:
            raise DatabaseError("truncated binary database")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return out

    def read_str(self) -> str:
        (length,) = self.unpack("<I")
        if self.pos + length > self.end:
            raise DatabaseError("truncated string in binary database")
        raw = self.data[self.pos : self.pos + length]
        self.pos += length
        return raw.decode("utf-8")

    def check_count(self, count: int, min_record: int, what: str) -> None:
        """Reject a hostile count field before looping on it."""
        if count * min_record > self.remaining:
            raise DatabaseError(
                f"implausible {what} count {count} for "
                f"{self.remaining} remaining bytes"
            )


# --------------------------------------------------------------------- #
# section writers (shared by v1 and v2: identical record encodings)
# --------------------------------------------------------------------- #
def _dump_metrics(body: io.BytesIO, metrics: MetricTable, strings: _StringTable) -> None:
    body.write(struct.pack("<I", len(metrics)))
    for desc in metrics:
        body.write(
            struct.pack(
                "<IIIIdBB",
                strings.ref(desc.name),
                strings.ref(desc.unit),
                strings.ref(desc.formula),
                strings.ref(desc.description),
                desc.period,
                _METRIC_KINDS.index(desc.kind),
                1 if desc.show_percent else 0,
            )
        )


def _dump_structure(
    body: io.BytesIO, root: StructureNode, strings: _StringTable
) -> dict[int, int]:
    """Write the structure tree preorder; returns uid -> implicit id."""
    struct_ids: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        struct_ids[node.uid] = len(struct_ids)
        body.write(
            struct.pack(
                "<BIIII",
                _STRUCT_KINDS.index(node.kind),
                strings.ref(node.name),
                strings.ref(node.location.file),
                node.location.line,
                node.location.end_line,
            )
        )
        body.write(struct.pack("<H", len(node.calls)))
        for line, callee in node.calls:
            body.write(struct.pack("<II", line, strings.ref(callee)))
        body.write(struct.pack("<I", len(node.children)))
        stack.extend(reversed(node.children))
    return struct_ids


def _dump_cct(
    body: io.BytesIO,
    root: CCTNode,
    metrics: MetricTable,
    struct_ids: dict[int, int],
) -> int:
    """Write the CCT preorder; returns the number of nodes written."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        sid = struct_ids.get(node.struct.uid, -1) if node.struct is not None else -1
        raw_items = [
            (mid, v)
            for mid, v in sorted(node.raw.items())
            if metrics.by_id(mid).kind is MetricKind.RAW
        ]
        summary_items = [
            (0, mid, v)
            for mid, v in sorted(node.inclusive.items())
            if metrics.by_id(mid).kind is MetricKind.SUMMARY
        ] + [
            (1, mid, v)
            for mid, v in sorted(node.exclusive.items())
            if metrics.by_id(mid).kind is MetricKind.SUMMARY
        ]
        body.write(
            struct.pack(
                "<BIIHH",
                _CCT_KINDS.index(node.kind),
                sid + 1,
                node.line,
                len(raw_items),
                len(summary_items),
            )
        )
        for mid, value in raw_items:
            body.write(struct.pack("<Id", mid, value))
        for flavor, mid, value in summary_items:
            body.write(struct.pack("<BId", flavor, mid, value))
        body.write(struct.pack("<I", len(node.children)))
        stack.extend(reversed(node.children))
    return count


def dumps_binary(experiment: Experiment, version: int = FORMAT_VERSION) -> bytes:
    """Serialize to the framed v2 format (or legacy v1 on request)."""
    if version not in (_V1, _V2):
        raise DatabaseError(f"cannot write binary database version {version}")
    strings = _StringTable()

    metrics_body = io.BytesIO()
    _dump_metrics(metrics_body, experiment.metrics, strings)

    struct_body = io.BytesIO()
    struct_ids = _dump_structure(struct_body, experiment.structure.root, strings)

    cct_body = io.BytesIO()
    node_count = _dump_cct(
        cct_body, experiment.cct.root, experiment.metrics, struct_ids
    )

    # the string table is complete only after every section interned into it
    strings_body = io.BytesIO()
    strings_body.write(struct.pack("<I", len(strings.strings)))
    for s in strings.strings:
        _pack_str(strings_body, s)

    out = io.BytesIO()
    out.write(_MAGIC)
    out.write(struct.pack("<H", version))
    if version == _V1:
        _pack_str(out, experiment.name)
        out.write(strings_body.getvalue())
        out.write(metrics_body.getvalue())
        out.write(struct_body.getvalue())
        out.write(cct_body.getvalue())
        return out.getvalue()

    name_body = io.BytesIO()
    _pack_str(name_body, experiment.name)

    def frame(section_id: int, payload: bytes) -> None:
        out.write(_FRAME_HEADER.pack(section_id, len(payload),
                                     zlib.crc32(payload)))
        out.write(payload)

    frame(SEC_NAME, name_body.getvalue())
    frame(SEC_STRINGS, strings_body.getvalue())
    frame(SEC_METRICS, metrics_body.getvalue())
    frame(SEC_STRUCTURE,
          struct.pack("<I", len(struct_ids)) + struct_body.getvalue())
    frame(SEC_CCT, struct.pack("<I", node_count) + cct_body.getvalue())
    frame(SEC_END, b"")
    return out.getvalue()


def write_binary(experiment: Experiment, path: str,
                 version: int = FORMAT_VERSION) -> None:
    with open(path, "wb") as fh:
        fh.write(dumps_binary(experiment, version=version))


# --------------------------------------------------------------------- #
# section readers (shared by the strict loader and the salvage loader)
# --------------------------------------------------------------------- #
def read_strings(reader: _Reader) -> list[str]:
    (nstrings,) = reader.unpack("<I")
    reader.check_count(nstrings, 4, "string")
    return [reader.read_str() for _ in range(nstrings)]


def read_metrics(reader: _Reader, strings: list[str]) -> MetricTable:
    metrics = MetricTable()
    (nmetrics,) = reader.unpack("<I")
    reader.check_count(nmetrics, struct.calcsize("<IIIIdBB"), "metric")
    for _ in range(nmetrics):
        read_one_metric(reader, strings, metrics)
    return metrics


def read_one_metric(
    reader: _Reader, strings: list[str], metrics: MetricTable
) -> None:
    sname, sunit, sformula, sdesc, period, kind_idx, pct = reader.unpack(
        "<IIIIdBB"
    )
    metrics.add(
        strings[sname],
        unit=strings[sunit],
        period=period,
        kind=_METRIC_KINDS[kind_idx],
        formula=strings[sformula],
        description=strings[sdesc],
        show_percent=bool(pct),
    )


def read_structure(
    reader: _Reader,
    strings: list[str],
    *,
    errors: list[str] | None = None,
) -> tuple[StructureModel, list[StructureNode]]:
    """Read the preorder structure stream iteratively.

    When *errors* is given the reader runs in salvage mode: the first
    malformed record stops the parse with a message appended to *errors*
    and the clean prefix read so far is returned.  Records are parsed
    completely before any node is constructed, so the prefix never
    contains a half-read scope.
    """
    model = StructureModel()
    by_id: list[StructureNode] = []

    def read_one(parent: StructureNode | None) -> tuple[StructureNode, int]:
        kind_idx, sname, sfile, line, end_line = reader.unpack("<BIIII")
        kind = _STRUCT_KINDS[kind_idx]
        name = strings[sname]
        file = strings[sfile]
        (ncalls,) = reader.unpack("<H")
        reader.check_count(ncalls, 8, "call-edge")
        calls = []
        for _ in range(ncalls):
            cline, callee = reader.unpack("<II")
            calls.append((cline, strings[callee]))
        (nchildren,) = reader.unpack("<I")
        reader.check_count(nchildren, 23, "structure child")
        # record fully parsed — only now mutate the model
        if kind is StructKind.ROOT:
            if parent is not None:
                raise DatabaseError("structure root below the root")
            node = model.root
            node.name = name
        else:
            if parent is None:
                raise DatabaseError("structure stream does not start at a root")
            node = StructureNode(
                kind,
                name=name,
                location=SourceLocation(file=file, line=line, end_line=end_line),
                parent=parent,
            )
        node.calls = tuple(calls)
        if kind is StructKind.PROCEDURE:
            model._register_procedure(node)
        by_id.append(node)
        return node, nchildren

    # stack of [node, remaining children to read]
    stack: list[list] = []
    try:
        root, nchildren = read_one(None)
        stack.append([root, nchildren])
        while stack:
            top = stack[-1]
            if top[1] == 0:
                stack.pop()
                continue
            top[1] -= 1
            child, n = read_one(top[0])
            stack.append([child, n])
    except (DatabaseError, *MALFORMED_EXCEPTIONS) as exc:
        if errors is None:
            raise
        errors.append(f"structure: {exc!r}")
    return model, by_id


def read_cct(
    reader: _Reader,
    by_id: list[StructureNode],
    *,
    errors: list[str] | None = None,
) -> tuple[CCT, list[tuple[CCTNode, list[tuple[int, int, float]]]], int]:
    """Read the preorder CCT stream iteratively.

    Returns the tree, the stored summary overlays ``(node, [(flavor,
    mid, value), ...])`` — the caller re-applies them after attribution
    so stored summary columns survive the Eq. 1/2 recomputation — and
    the number of nodes parsed, so callers need not walk the tree to
    count it.  *errors*
    enables salvage mode exactly as in :func:`read_structure`: records
    are parsed completely before the node is attached, and the first
    malformed record ends the recovered prefix.
    """
    cct = CCT()
    stored: list[tuple[CCTNode, list[tuple[int, int, float]]]] = []

    def read_one(parent: CCTNode | None) -> tuple[CCTNode, int]:
        kind_idx, sid, line, nraw, nsummary = reader.unpack("<BIIHH")
        kind = _CCT_KINDS[kind_idx]
        if kind is not CCTKind.ROOT and sid > len(by_id):
            raise DatabaseError(f"CCT references unknown structure id {sid}")
        reader.check_count(nraw, 12, "raw metric")
        raw: dict[int, float] = {}
        for _ in range(nraw):
            mid, value = reader.unpack("<Id")
            raw[mid] = value
        summaries = []
        reader.check_count(nsummary, 13, "summary metric")
        for _ in range(nsummary):
            flavor, mid, value = reader.unpack("<BId")
            summaries.append((flavor, mid, value))
        (nchildren,) = reader.unpack("<I")
        reader.check_count(nchildren, 17, "CCT child")
        # record fully parsed — only now attach the node to the tree
        if kind is CCTKind.ROOT:
            if parent is not None:
                raise DatabaseError("CCT root below the root")
            node = cct.root
        else:
            if parent is None:
                raise DatabaseError("CCT stream does not start at a root")
            struct_ref = by_id[sid - 1] if sid > 0 else None
            node = CCTNode(kind, struct=struct_ref, line=line, parent=parent)
        node.raw.update(raw)
        if summaries:
            stored.append((node, summaries))
        return node, nchildren

    stack: list[list] = []
    count = 0
    try:
        root, nchildren = read_one(None)
        count = 1
        stack.append([root, nchildren])
        while stack:
            top = stack[-1]
            if top[1] == 0:
                stack.pop()
                continue
            top[1] -= 1
            child, n = read_one(top[0])
            count += 1
            stack.append([child, n])
    except (DatabaseError, *MALFORMED_EXCEPTIONS) as exc:
        if errors is None:
            raise
        errors.append(f"cct: {exc!r}")
    return cct, stored, count


def apply_summaries(
    cct: CCT,
    stored: list[tuple[CCTNode, list[tuple[int, int, float]]]],
) -> None:
    """Overlay stored summary values after :func:`attribute` ran."""
    for node, summaries in stored:
        for flavor, mid, value in summaries:
            store = node.inclusive if flavor == 0 else node.exclusive
            store[mid] = value
    if stored:
        cct.invalidate_caches()


# --------------------------------------------------------------------- #
# reading
# --------------------------------------------------------------------- #
def loads_binary(
    data: bytes, verify_checksums: bool = True, exact: bool = False
) -> Experiment:
    """Deserialize, converting any malformed-input failure to DatabaseError.

    Fuzzing showed single-byte corruption can surface as IndexError (bad
    string/struct references), ValueError (bad enum ordinals), Unicode
    errors, RecursionError (corrupted child counts), or MetricError (a
    flipped byte in a descriptor field failing validation); a loader must
    present exactly one failure mode for bad bytes.

    *verify_checksums* (v2 only) can be switched off to measure the CRC
    cost in isolation — production callers always leave it on.

    *exact* also refuses bytes past the end of the database: a v2 stream
    must end with a zero-length END frame at ``len(data)``, and a v1
    decode must consume every byte.  This is the corpus admission rule —
    exactly the streams a salvage load reports clean.
    """
    try:
        return _loads_binary(data, verify_checksums=verify_checksums,
                             exact=exact)
    except DatabaseError:
        raise
    except MALFORMED_EXCEPTIONS as exc:
        raise DatabaseError(f"malformed binary database: {exc!r}") from exc


def read_header(data: bytes) -> int:
    """Check the magic and return the format version."""
    if data[:4] != _MAGIC:
        raise DatabaseError("not a binary experiment database (bad magic)")
    if len(data) < 6:
        raise DatabaseError("truncated binary database")
    (version,) = struct.unpack_from("<H", data, 4)
    if version not in (_V1, _V2):
        raise DatabaseError(f"unsupported binary database version {version}")
    return version


def section_frames(data: bytes) -> list[tuple[int, int, int, int]]:
    """The v2 frame layout: ``(section id, header offset, payload offset,
    end offset)`` per section, in stream order.

    The fault-injection harness uses this to truncate a database at
    every frame boundary; it does not verify checksums.
    """
    if read_header(data) != _V2:
        raise DatabaseError("section_frames requires a framed v2 database")
    frames = []
    pos = 6
    while pos < len(data):
        if pos + _FRAME_HEADER.size > len(data):
            raise DatabaseError("truncated section header")
        section_id, length, _crc = _FRAME_HEADER.unpack_from(data, pos)
        payload_at = pos + _FRAME_HEADER.size
        if payload_at + length > len(data):
            raise DatabaseError("truncated section payload")
        frames.append((section_id, pos, payload_at, payload_at + length))
        pos = payload_at + length
        if section_id == SEC_END:
            break
    return frames


def _decode_v1(reader: _Reader) -> Experiment:
    """Decode the unframed v1 payload from a positioned reader."""
    name = reader.read_str()
    strings = read_strings(reader)
    metrics = read_metrics(reader, strings)
    model, by_id = read_structure(reader, strings)
    cct, stored, _count = read_cct(reader, by_id)
    return _finish_experiment(name, metrics, model, cct, stored)


def _decode_v2(sections) -> Experiment:
    """Decode framed v2 sections; *sections* maps section id → _Reader.

    Works for both eager slicing (:func:`_read_v2_sections`) and the
    lazy, CRC-on-demand access of :class:`StreamingDatabase` — anything
    with a ``__getitem__`` yielding positioned readers.
    """
    name = sections[SEC_NAME].read_str()
    strings, metrics, model, by_id = _decode_v2_basis(sections)
    cct_reader = sections[SEC_CCT]
    (declared_cct,) = cct_reader.unpack("<I")
    cct, stored, count = read_cct(cct_reader, by_id)
    if count != declared_cct:
        raise DatabaseError(
            f"CCT section declares {declared_cct} nodes, parsed {count}"
        )
    return _finish_experiment(name, metrics, model, cct, stored)


def _decode_v2_basis(sections):
    """The string table, metric table and structure of framed sections."""
    strings = read_strings(sections[SEC_STRINGS])
    metrics = read_metrics(sections[SEC_METRICS], strings)
    struct_reader = sections[SEC_STRUCTURE]
    (declared_struct,) = struct_reader.unpack("<I")
    model, by_id = read_structure(struct_reader, strings)
    if len(by_id) != declared_struct:
        raise DatabaseError(
            f"structure section declares {declared_struct} nodes, "
            f"parsed {len(by_id)}"
        )
    return strings, metrics, model, by_id


def loads_basis(data: bytes) -> tuple[MetricTable, StructureModel]:
    """Only the metric table and structure model of a framed v2 database.

    The CCT section is CRC-checked like every other but neither decoded
    nor attributed: this is what correlating new profiles against a
    stored experiment's structure needs.  Malformed input raises
    :class:`DatabaseError`, as in :func:`loads_binary`.
    """
    try:
        sections = _read_v2_sections(data, verify_checksums=True)
        _strings, metrics, model, _by_id = _decode_v2_basis(sections)
        return metrics, model
    except DatabaseError:
        raise
    except MALFORMED_EXCEPTIONS as exc:
        raise DatabaseError(f"malformed binary database: {exc!r}") from exc


def _finish_experiment(name, metrics, model, cct, stored) -> Experiment:
    _check_metric_refs(cct, stored, metrics)
    attribute(cct)
    apply_summaries(cct, stored)
    return Experiment(name, metrics, model, cct)


def _loads_binary(
    data: bytes, verify_checksums: bool = True, exact: bool = False
) -> Experiment:
    version = read_header(data)
    if version == _V1:
        reader = _Reader(data, pos=6)
        exp = _decode_v1(reader)
        if exact and reader.remaining:
            raise DatabaseError(
                f"{reader.remaining} trailing bytes after the database"
            )
        return exp
    return _decode_v2(_read_v2_sections(data, verify_checksums, exact))


def _check_metric_refs(cct: CCT, stored, metrics: MetricTable) -> None:
    """Every metric id the tree references must exist in the table, and
    stored summary overlays may only target SUMMARY metrics — an overlay
    on any other metric would overwrite an attributed value."""
    nmetrics = len(metrics)
    for node in cct.walk():
        for mid in node.raw:
            if not 0 <= mid < nmetrics:
                raise DatabaseError(f"CCT references unknown metric id {mid}")
    for _node, summaries in stored:
        for _flavor, mid, _value in summaries:
            if not 0 <= mid < nmetrics:
                raise DatabaseError(f"CCT references unknown metric id {mid}")
            if metrics.by_id(mid).kind is not MetricKind.SUMMARY:
                raise DatabaseError(
                    f"CCT stores a summary overlay on non-summary metric "
                    f"id {mid}"
                )


def _read_v2_sections(
    data: bytes, verify_checksums: bool, exact: bool = False
) -> dict[int, _Reader]:
    """Slice a framed stream into per-section readers, verifying CRCs.

    With *exact*, the END frame must be empty and end the data.
    """
    sections: dict[int, _Reader] = {}
    saw_end = False
    for section_id, _header_at, payload_at, end in section_frames(data):
        if section_id == SEC_END:
            if exact and (end != payload_at or end != len(data)):
                raise DatabaseError(
                    f"database does not end at its END frame "
                    f"({len(data) - payload_at} bytes after the frame header)"
                )
            saw_end = True
            break
        if section_id in sections or section_id not in SECTION_NAMES:
            raise DatabaseError(f"unexpected section id {section_id}")
        if verify_checksums:
            (_sid, _length, crc) = _FRAME_HEADER.unpack_from(
                data, _header_at
            )
            actual = zlib.crc32(data[payload_at:end])
            if actual != crc:
                name = SECTION_NAMES[section_id]
                raise DatabaseError(
                    f"checksum mismatch in {name} section "
                    f"(stored {crc:#010x}, computed {actual:#010x})"
                )
        sections[section_id] = _Reader(data, pos=payload_at, end=end)
    if not saw_end:
        raise DatabaseError("truncated binary database (missing end frame)")
    missing = [
        SECTION_NAMES[sid]
        for sid in (SEC_NAME, SEC_STRINGS, SEC_METRICS, SEC_STRUCTURE, SEC_CCT)
        if sid not in sections
    ]
    if missing:
        raise DatabaseError(f"missing sections: {', '.join(missing)}")
    return sections


def read_binary(path: str) -> Experiment:
    with open(path, "rb") as fh:
        return loads_binary(fh.read())


# --------------------------------------------------------------------- #
# streaming (out-of-core) reading
# --------------------------------------------------------------------- #
class _LazySections:
    """Section-id → reader adapter over a :class:`StreamingDatabase`."""

    __slots__ = ("_db",)

    def __init__(self, db: "StreamingDatabase") -> None:
        self._db = db

    def __getitem__(self, section_id: int) -> _Reader:
        return self._db.section(section_id)


class StreamingDatabase:
    """An open binary database decoded section-by-section on demand.

    The eager loader (:func:`loads_binary`) needs the whole byte string
    in memory before the first record is parsed; for large databases
    that doubles the peak footprint (bytes + decoded tree) and pays the
    read cost even for callers that only want the header or one
    section.  This class instead memory-maps the file: only the frame
    headers are touched at open time, each section's CRC is verified
    the first time that section is read, and the OS pages payload bytes
    in (and out) as the decode cursor moves — the working set is one
    section, not the file.

    Legacy v1 streams (unframed) are supported too: the mapping is
    still lazy, but there is no per-section independence — sections
    decode sequentially on the first :meth:`experiment` call.

    Use as a context manager; decoded experiments own no mapping state
    and stay valid after :meth:`close`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            self._fh = open(path, "rb")
        except FileNotFoundError:
            raise DatabaseError(f"no such database: {path}") from None
        except IsADirectoryError:
            raise DatabaseError(
                f"database path is a directory: {path}"
            ) from None
        except PermissionError:
            raise DatabaseError(f"database is not readable: {path}") from None
        except OSError as exc:
            raise DatabaseError(f"cannot read database {path}: {exc}") from None
        try:
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty or unmappable file
            self._fh.close()
            raise DatabaseError(f"truncated binary database: {path}") from None
        try:
            self.version = read_header(self._mm)
            self._frames: dict[int, tuple[int, int, int]] = {}
            if self.version == _V2:
                for sid, header_at, payload_at, end in section_frames(self._mm):
                    if sid == SEC_END:
                        break
                    if sid in self._frames or sid not in SECTION_NAMES:
                        raise DatabaseError(f"unexpected section id {sid}")
                    self._frames[sid] = (header_at, payload_at, end)
        except Exception:
            self.close()
            raise
        self._verified: set[int] = set()

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "StreamingDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release the mapping; previously decoded objects stay valid."""
        mm, self._mm = getattr(self, "_mm", None), None
        if mm is not None:
            mm.close()
        fh, self._fh = getattr(self, "_fh", None), None
        if fh is not None:
            fh.close()

    @property
    def closed(self) -> bool:
        return self._mm is None

    @property
    def size_bytes(self) -> int:
        return os.path.getsize(self.path)

    # ------------------------------------------------------------------ #
    def section(self, section_id: int) -> _Reader:
        """A positioned reader over one v2 section, CRC-checked once."""
        if self._mm is None:
            raise DatabaseError(f"database {self.path} is closed")
        if self.version != _V2:
            raise DatabaseError(
                "per-section access requires a framed v2 database"
            )
        frame = self._frames.get(section_id)
        if frame is None:
            name = SECTION_NAMES.get(section_id, str(section_id))
            raise DatabaseError(f"missing sections: {name}")
        header_at, payload_at, end = frame
        if section_id not in self._verified:
            (_sid, _length, crc) = _FRAME_HEADER.unpack_from(self._mm, header_at)
            actual = zlib.crc32(self._mm[payload_at:end])
            if actual != crc:
                name = SECTION_NAMES[section_id]
                raise DatabaseError(
                    f"checksum mismatch in {name} section "
                    f"(stored {crc:#010x}, computed {actual:#010x})"
                )
            self._verified.add(section_id)
        return _Reader(self._mm, pos=payload_at, end=end)

    def name(self) -> str:
        """The experiment name, decoding only the header section."""
        if self.version == _V1:
            return _Reader(self._mm, pos=6).read_str()
        return self.section(SEC_NAME).read_str()

    def experiment(self) -> Experiment:
        """Decode the full experiment (strict semantics, one section at
        a time), converting malformed input to :class:`DatabaseError`
        exactly like :func:`loads_binary`."""
        if self._mm is None:
            raise DatabaseError(f"database {self.path} is closed")
        try:
            if self.version == _V1:
                return _decode_v1(_Reader(self._mm, pos=6))
            return _decode_v2(_LazySections(self))
        except DatabaseError:
            raise
        except MALFORMED_EXCEPTIONS as exc:
            raise DatabaseError(f"malformed binary database: {exc!r}") from exc


def read_binary_streaming(path: str) -> Experiment:
    """Load a binary database through the mmap-backed streaming reader.

    Strict-mode equivalent of :func:`read_binary` with a bounded byte
    working set; the decoded :class:`Experiment` is identical.
    """
    with StreamingDatabase(path) as db:
        return db.experiment()
