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

import functools
import io
import mmap
import os
import struct
import zlib

import numpy as np

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
    "DatabaseRecords",
    "StructureRecords",
    "CCTRecords",
    "parse_structure",
    "parse_cct",
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
_CCT_HEADER = struct.Struct("<BIIHH")  # kind, struct id + 1, line, nraw, nsummary
_U32 = struct.Struct("<I")
_RAW_ENTRY = 12  # u32 mid, f64 value
_SUMMARY_ENTRY = 13  # u8 flavor, u32 mid, f64 value


@functools.lru_cache(maxsize=256)
def _entries(fmt: str, count: int) -> struct.Struct:
    """A precompiled struct for *count* consecutive *fmt* entries."""
    return struct.Struct("<" + fmt * count)


@functools.lru_cache(maxsize=64)
def _struct(fmt: str) -> struct.Struct:
    """A precompiled struct for one format string."""
    return struct.Struct(fmt)


_STRUCT_FIXED = struct.Struct("<BIIII")  # kind, name, file, line, end line
_STRUCT_HEADER = struct.Struct("<BIIIIH")  # the fixed fields, then ncalls

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
        compiled = _struct(fmt)
        if self.pos + compiled.size > self.end:
            raise DatabaseError("truncated binary database")
        out = compiled.unpack_from(self.data, self.pos)
        self.pos += compiled.size
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
    # _Reader.read_str, inlined: one per string
    data, end, u32 = reader.data, reader.end, _U32
    out = []
    for _ in range(nstrings):
        pos = reader.pos
        if pos + 4 > end:
            raise DatabaseError("truncated binary database")
        (length,) = u32.unpack_from(data, pos)
        reader.pos = pos = pos + 4
        if pos + length > end:
            raise DatabaseError("truncated string in binary database")
        reader.pos = pos + length
        out.append(str(data[pos:pos + length], "utf-8"))
    return out


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


class StructureRecords:
    """The structure stream parsed into per-record lists, in preorder.

    Record *i* has static kind ``kinds[i]``, ``names[i]``, source
    ``files[i]`` / ``lines[i]`` / ``end_lines[i]``, its call targets
    ``calls[i]`` as ``((line, callee name), ...)`` and its parent record
    ``parents[i]`` (-1 for the root, record 0).  ``ends[i]`` is the
    stream offset just past the record.  ``error`` is the exception
    that stopped the parse (None when it ran to the end); the lists then
    hold the clean prefix before the failing record.
    """

    __slots__ = ("kinds", "names", "files", "lines", "end_lines", "calls",
                 "parents", "ends", "error")

    def __init__(self) -> None:
        self.kinds: list[StructKind] = []
        self.names: list[str] = []
        self.files: list[str] = []
        self.lines: list[int] = []
        self.end_lines: list[int] = []
        self.calls: list[tuple] = []
        self.parents: list[int] = []
        self.ends: list[int] = []
        self.error: Exception | None = None

    def __len__(self) -> int:
        return len(self.kinds)

    def children(self) -> list[list[int]]:
        """Each record's child records, in stream (child) order."""
        out: list[list[int]] = [[] for _ in self.kinds]
        for row, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent].append(row)
        return out


def parse_structure(reader: _Reader, strings: list[str]) -> StructureRecords:
    """Parse the preorder structure stream; the one structure parser.

    Every record is bounds- and count-checked, its kind and string
    references resolved, and the root placement enforced (one root,
    first).  The first malformed record stops the parse: the exception
    lands in ``error`` and :attr:`_Reader.pos` stays where the failing
    read left it, exactly as a record-at-a-time reader would.
    """
    out = StructureRecords()
    data, end = reader.data, reader.end
    kinds, names, files, lines = out.kinds, out.names, out.files, out.lines
    end_lines, calls, parents, ends = (out.end_lines, out.calls,
                                       out.parents, out.ends)
    header, u32 = _STRUCT_HEADER, _U32
    stack: list[list[int]] = []  # [record, children still to read]
    try:
        while True:
            if stack:
                top = stack[-1]
                if top[1] == 0:
                    stack.pop()
                    if not stack:
                        break
                    continue
                top[1] -= 1
                parent = top[0]
            else:
                parent = -1
            pos = reader.pos
            if pos + 19 <= end:  # fixed fields and call count in one read
                kind_idx, sname, sfile, line, end_line, ncalls = \
                    header.unpack_from(data, pos)
            elif pos + 17 <= end:
                kind_idx, sname, sfile, line, end_line = \
                    _STRUCT_FIXED.unpack_from(data, pos)
                ncalls = None
            else:
                raise DatabaseError("truncated binary database")
            reader.pos = pos + 17
            kind = _STRUCT_KINDS[kind_idx]
            name = strings[sname]
            file = strings[sfile]
            if ncalls is None:
                raise DatabaseError("truncated binary database")
            reader.pos = pos = pos + 19
            record_calls: tuple = ()
            if ncalls:
                reader.check_count(ncalls, 8, "call-edge")
                pairs = []
                for _ in range(ncalls):
                    cline, callee = reader.unpack("<II")
                    pairs.append((cline, strings[callee]))
                record_calls = tuple(pairs)
                pos = reader.pos
            if pos + u32.size > end:
                raise DatabaseError("truncated binary database")
            (nchildren,) = u32.unpack_from(data, pos)
            reader.pos = pos = pos + u32.size
            if nchildren * 23 > end - pos:  # _Reader.check_count, inlined
                raise DatabaseError(
                    f"implausible structure child count {nchildren} for "
                    f"{end - pos} remaining bytes"
                )
            if kind is StructKind.ROOT:
                if parent >= 0:
                    raise DatabaseError("structure root below the root")
            elif parent < 0:
                raise DatabaseError("structure stream does not start at a root")
            stack.append([len(kinds), nchildren])
            kinds.append(kind)
            names.append(name)
            files.append(file)
            lines.append(line)
            end_lines.append(end_line)
            calls.append(record_calls)
            parents.append(parent)
            ends.append(pos)
    except (DatabaseError, *MALFORMED_EXCEPTIONS) as exc:
        out.error = exc
    return out


def build_structure(
    records: StructureRecords,
) -> tuple[StructureModel, list[StructureNode], Exception | None]:
    """A :class:`StructureModel` from parsed structure records.

    Returns the model, its nodes by record index, and the error that
    ended the clean prefix: the parse's own, or a scope duplicating a
    sibling's key, which stops the build at that record.
    """
    model = StructureModel()
    by_id: list[StructureNode] = []
    for row, kind in enumerate(records.kinds):
        try:
            if kind is StructKind.ROOT:
                node = model.root
                node.name = records.names[row]
            else:
                node = StructureNode(
                    kind,
                    name=records.names[row],
                    location=SourceLocation(
                        file=records.files[row],
                        line=records.lines[row],
                        end_line=records.end_lines[row],
                    ),
                    parent=by_id[records.parents[row]],
                )
        except StructureError as exc:  # a duplicate sibling scope
            return model, by_id, exc
        node.calls = records.calls[row]
        if kind is StructKind.PROCEDURE:
            model._register_procedure(node)
        by_id.append(node)
    return model, by_id, records.error


def read_structure(
    reader: _Reader,
    strings: list[str],
    *,
    errors: list[str] | None = None,
) -> tuple[StructureModel, list[StructureNode]]:
    """Read the preorder structure stream into a :class:`StructureModel`.

    :func:`parse_structure` then :func:`build_structure`.  When *errors*
    is given the reader runs in salvage mode: the first malformed record
    stops the read with a message appended to *errors*, and the clean
    prefix before it is returned.
    """
    records = parse_structure(reader, strings)
    model, by_id, error = build_structure(records)
    if len(by_id) < len(records):  # the build stopped: leave the cursor
        reader.pos = records.ends[len(by_id)]  # past the refused record
    if error is not None:
        if errors is None:
            raise error
        errors.append(f"structure: {error!r}")
    return model, by_id


class CCTRecords:
    """The CCT stream parsed into per-record lists, in preorder.

    Record *i* has kind code ``kinds[i]`` (the index into
    :class:`~repro.core.cct.CCTKind`, which is also the engine's kind
    code), structure reference ``sids[i]`` (structure record + 1, 0 for
    none), call line ``lines[i]``, parent record ``parents[i]`` (-1 for
    the root) and depth ``depths[i]``.  ``raws[i]`` is its raw run as a
    flat ``(mid, value, mid, value, ...)`` tuple in stream order and
    ``summaries[i]`` its stored overlays as ``(flavor, mid, value,
    ...)``.  ``error`` is as in :class:`StructureRecords`.
    """

    __slots__ = ("kinds", "sids", "lines", "parents", "depths", "raws",
                 "summaries", "error")

    def __init__(self) -> None:
        self.kinds: list[int] = []
        self.sids: list[int] = []
        self.lines: list[int] = []
        self.parents: list[int] = []
        self.depths: list[int] = []
        self.raws: list[tuple] = []
        self.summaries: list[tuple] = []
        self.error: Exception | None = None

    def __len__(self) -> int:
        return len(self.kinds)

    def raw_run(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every record's raw values as ``(rows, mids, values)`` arrays.

        Row-major in preorder and, within a record, in the order a dict
        built from the run holds them: a mid repeated within one record
        keeps its first position and its last value.
        """
        rows: list[int] = []
        flat: list = []
        for row, run in enumerate(self.raws):
            if run:
                rows.extend([row] * (len(run) // 2))
                flat.extend(run)
        values = np.array(flat, dtype=np.float64)
        mids = values[0::2].astype(np.int64)
        return _dict_run(np.array(rows, dtype=np.int64), mids,
                        values[1::2].copy())


def _dict_run(rows: np.ndarray, mids: np.ndarray,
             values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major ``(row, mid, value)`` entries reduced as dicts reduce them.

    Per row, a repeated mid keeps the position of its first entry and
    the value of its last.  Entries of one row must be contiguous.  A
    stream whose keys strictly increase (every writer's) passes through
    untouched.
    """
    if len(rows) < 2:
        return rows, mids, values
    width = int(mids.max()) + 1
    key = rows * width + mids
    if (np.diff(key) > 0).all():
        return rows, mids, values
    _, first = np.unique(key, return_index=True)
    _, last = np.unique(key[::-1], return_index=True)
    last = len(key) - 1 - last
    order = np.argsort(first, kind="stable")
    first, last = first[order], last[order]
    return rows[first], mids[first], values[last]


def parse_cct(
    reader: _Reader,
    nstructs: int,
    *,
    metrics: MetricTable | None = None,
    offsets: list[int] | None = None,
) -> CCTRecords:
    """Parse the preorder CCT stream; the one CCT parser.

    Each record's fixed header and its raw and summary runs are decoded
    with one precompiled :class:`struct.Struct` each; the bounds and
    count-plausibility checks are those of :class:`_Reader`, structure
    references must name one of *nstructs* records, and the root must
    come first and only there.  With *metrics*, each record's metric
    ids are checked as it is read: every id must exist, and stored
    summary overlays may only target SUMMARY metrics (an overlay on any
    other metric would overwrite an attributed value).  *offsets*, when
    given, receives each record's start offset in node preorder (see
    :func:`record_values`).  The first malformed record stops the parse
    as in :func:`parse_structure`.
    """
    out = CCTRecords()
    data, end = reader.data, reader.end
    if metrics is not None:
        metric_ids = frozenset(range(len(metrics)))
        summary_ids = frozenset(
            desc.mid for desc in metrics if desc.kind is MetricKind.SUMMARY
        )
    kinds, sids, lines, parents = out.kinds, out.sids, out.lines, out.parents
    depths, raws, summaries_out = out.depths, out.raws, out.summaries
    header = _CCT_HEADER
    nkinds = len(_CCT_KINDS)
    stack: list[list[int]] = []  # [record, children still to read]
    try:
        while True:
            if stack:
                top = stack[-1]
                if top[1] == 0:
                    stack.pop()
                    if not stack:
                        break
                    continue
                top[1] -= 1
                parent = top[0]
            else:
                parent = -1
            pos = reader.pos
            if pos + header.size > end:
                raise DatabaseError("truncated binary database")
            if offsets is not None:
                offsets.append(pos)
            kind_idx, sid, line, nraw, nsummary = header.unpack_from(data, pos)
            reader.pos = pos = pos + header.size
            if kind_idx >= nkinds:
                raise IndexError("list index out of range")
            if kind_idx and sid > nstructs:
                raise DatabaseError(f"CCT references unknown structure id {sid}")
            # _Reader.check_count, inlined: three per record
            if nraw * _RAW_ENTRY > end - pos:
                raise DatabaseError(
                    f"implausible raw metric count {nraw} for "
                    f"{end - pos} remaining bytes"
                )
            raw: tuple = ()
            if nraw:
                raw = _entries("Id", nraw).unpack_from(data, pos)
                reader.pos = pos = pos + _RAW_ENTRY * nraw
                if metrics is not None and not metric_ids.issuperset(raw[0::2]):
                    mid = next(m for m in raw[0::2] if m not in metric_ids)
                    raise DatabaseError(f"CCT references unknown metric id {mid}")
            summaries: tuple = ()
            if nsummary * _SUMMARY_ENTRY > end - pos:
                raise DatabaseError(
                    f"implausible summary metric count {nsummary} for "
                    f"{end - pos} remaining bytes"
                )
            if nsummary:
                summaries = _entries("BId", nsummary).unpack_from(data, pos)
                reader.pos = pos = pos + _SUMMARY_ENTRY * nsummary
                mids = summaries[1::3]
                if metrics is not None and not summary_ids.issuperset(mids):
                    for mid in mids:
                        if mid not in metric_ids:
                            raise DatabaseError(
                                f"CCT references unknown metric id {mid}"
                            )
                        if mid not in summary_ids:
                            raise DatabaseError(
                                f"CCT stores a summary overlay on non-summary "
                                f"metric id {mid}"
                            )
            if pos + _U32.size > end:
                raise DatabaseError("truncated binary database")
            (nchildren,) = _U32.unpack_from(data, pos)
            reader.pos = pos = pos + _U32.size
            if nchildren * 17 > end - pos:
                raise DatabaseError(
                    f"implausible CCT child count {nchildren} for "
                    f"{end - pos} remaining bytes"
                )
            # record fully parsed and checked — only now keep it
            if kind_idx == 0:  # CCTKind.ROOT
                if parent >= 0:
                    raise DatabaseError("CCT root below the root")
            elif parent < 0:
                raise DatabaseError("CCT stream does not start at a root")
            depths.append(len(stack))
            stack.append([len(kinds), nchildren])
            kinds.append(kind_idx)
            sids.append(sid)
            lines.append(line)
            parents.append(parent)
            raws.append(raw)
            summaries_out.append(summaries)
    except (DatabaseError, *MALFORMED_EXCEPTIONS) as exc:
        out.error = exc
    return out


def build_cct(
    records: CCTRecords, by_id: list[StructureNode]
) -> tuple[CCT, list[tuple[CCTNode, tuple]]]:
    """A :class:`CCT` from parsed CCT records whose structure references
    resolve through *by_id*; returns the tree and its stored summary
    overlays ``(node, (flavor, mid, value, ...))``."""
    cct = CCT()
    stored: list[tuple[CCTNode, tuple]] = []
    nodes: list[CCTNode] = []
    kinds = _CCT_KINDS
    for row, kind_idx in enumerate(records.kinds):
        if kind_idx == 0:
            node = cct.root
        else:
            sid = records.sids[row]
            node = CCTNode(kinds[kind_idx],
                           struct=by_id[sid - 1] if sid > 0 else None,
                           line=records.lines[row],
                           parent=nodes[records.parents[row]])
        run = records.raws[row]
        node.raw = dict(zip(run[0::2], run[1::2])) if run else {}
        if records.summaries[row]:
            stored.append((node, records.summaries[row]))
        nodes.append(node)
    return cct, stored


def read_cct(
    reader: _Reader,
    by_id: list[StructureNode],
    *,
    metrics: MetricTable | None = None,
    offsets: list[int] | None = None,
    errors: list[str] | None = None,
) -> tuple[CCT, list[tuple[CCTNode, tuple]], int]:
    """Read the preorder CCT stream into a :class:`CCT`.

    Returns the tree, the stored summary overlays ``(node, (flavor, mid,
    value, flavor, mid, value, ...))`` — the caller re-applies them
    after attribution so stored summary columns survive the Eq. 1/2
    recomputation — and the number of nodes parsed, so callers need not
    walk the tree to count it.

    :func:`parse_cct` (*metrics* and *offsets* as there) then
    :func:`build_cct`.  *errors* enables salvage mode exactly as in
    :func:`read_structure`: the first malformed record ends the
    recovered prefix.
    """
    records = parse_cct(reader, len(by_id), metrics=metrics, offsets=offsets)
    cct, stored = build_cct(records, by_id)
    if records.error is not None:
        if errors is None:
            raise records.error
        errors.append(f"cct: {records.error!r}")
    return cct, stored, len(records)


_RAW_DTYPE = np.dtype([("mid", "<u4"), ("value", "<f8")])  # packed: 12 bytes
_SUMMARY_DTYPE = np.dtype(
    [("flavor", "u1"), ("mid", "<u4"), ("value", "<f8")]
)  # packed: 13 bytes


def record_values(data, offsets: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The raw and summary runs of already-decoded CCT records, as arrays.

    *offsets* are the records' start offsets into *data* (collected by
    :func:`read_cct`, which has checked every bound), one per node in
    preorder.  Returns ``(raw, summaries)``: structured arrays with a
    ``row`` field (the record's preorder index) beside the stored
    ``mid`` / ``value`` (and ``flavor``) fields, in stream order —
    every record's entries read with a handful of gathers instead of
    one Python tuple per value.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    starts = np.asarray(offsets, dtype=np.int64)
    counts = buf[starts[:, None] + np.arange(9, 13)].astype(np.int64)
    nraw = counts[:, 0] | counts[:, 1] << 8
    nsummary = counts[:, 2] | counts[:, 3] << 8
    raw_at = starts + _CCT_HEADER.size
    runs = []
    for at, count, dtype in (
        (raw_at, nraw, _RAW_DTYPE),
        (raw_at + _RAW_ENTRY * nraw, nsummary, _SUMMARY_DTYPE),
    ):
        rows = np.repeat(np.arange(len(starts)), count)
        first = np.cumsum(count) - count  # each record's first entry
        entry_at = at[rows] + (np.arange(len(rows)) - first[rows]) * dtype.itemsize
        entries = buf[entry_at[:, None] + np.arange(dtype.itemsize)]
        runs.append((rows, entries.view(dtype).ravel()))
    return runs[0], runs[1]


def apply_summaries(cct: CCT, stored: list[tuple[CCTNode, tuple]]) -> None:
    """Overlay stored summary values after :func:`attribute` ran.

    *stored* is :func:`read_cct`'s overlay list: per node, a flat
    ``(flavor, mid, value, ...)`` tuple.
    """
    for node, summaries in stored:
        entries = iter(summaries)
        for flavor, mid, value in zip(entries, entries, entries):
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


class DatabaseRecords:
    """A strictly parsed database before any object is built: its name,
    metric table, and structure and CCT records."""

    __slots__ = ("name", "metrics", "structure", "cct")

    def __init__(self, name: str, metrics: MetricTable,
                 structure: StructureRecords, cct: CCTRecords) -> None:
        self.name = name
        self.metrics = metrics
        self.structure = structure
        self.cct = cct

    def build(self) -> tuple:
        """The unattributed parts ``(name, metrics, structure, cct,
        stored overlays, node count)``; :func:`_finish_experiment`
        attributes them."""
        model, by_id, error = build_structure(self.structure)
        if error is not None:
            raise error
        cct, stored = build_cct(self.cct, by_id)
        return self.name, self.metrics, model, cct, stored, len(self.cct)


def _strict(records):
    """*records*, or the error that stopped their parse."""
    if records.error is not None:
        raise records.error
    return records


def _records_v1(reader: _Reader,
                offsets: list[int] | None = None) -> DatabaseRecords:
    """Strictly parse the unframed v1 payload from a positioned reader."""
    name = reader.read_str()
    strings = read_strings(reader)
    metrics = read_metrics(reader, strings)
    structure = _strict(parse_structure(reader, strings))
    cct = _strict(parse_cct(reader, len(structure), metrics=metrics,
                            offsets=offsets))
    return DatabaseRecords(name, metrics, structure, cct)


def _records_v2(sections,
                offsets: list[int] | None = None) -> DatabaseRecords:
    """Strictly parse framed v2 sections; *sections* maps section id →
    :class:`_Reader`.

    Works for both eager slicing (:func:`_read_v2_sections`) and the
    lazy, CRC-on-demand access of :class:`StreamingDatabase` — anything
    with a ``__getitem__`` yielding positioned readers.  The declared
    node counts must match the parsed ones.
    """
    name = sections[SEC_NAME].read_str()
    strings, metrics, structure = _records_v2_basis(sections)
    cct_reader = sections[SEC_CCT]
    (declared_cct,) = cct_reader.unpack("<I")
    cct = _strict(parse_cct(cct_reader, len(structure), metrics=metrics,
                            offsets=offsets))
    if len(cct) != declared_cct:
        raise DatabaseError(
            f"CCT section declares {declared_cct} nodes, parsed {len(cct)}"
        )
    return DatabaseRecords(name, metrics, structure, cct)


def _records_v2_basis(sections):
    """The string table, metric table and structure records of framed
    sections."""
    strings = read_strings(sections[SEC_STRINGS])
    metrics = read_metrics(sections[SEC_METRICS], strings)
    struct_reader = sections[SEC_STRUCTURE]
    (declared_struct,) = struct_reader.unpack("<I")
    structure = _strict(parse_structure(struct_reader, strings))
    if len(structure) != declared_struct:
        raise DatabaseError(
            f"structure section declares {declared_struct} nodes, "
            f"parsed {len(structure)}"
        )
    return strings, metrics, structure


def loads_basis(data: bytes) -> tuple[MetricTable, StructureModel]:
    """Only the metric table and structure model of a framed v2 database.

    The CCT section is CRC-checked like every other but neither decoded
    nor attributed: this is what correlating new profiles against a
    stored experiment's structure needs.  Malformed input raises
    :class:`DatabaseError`, as in :func:`loads_binary`.
    """
    try:
        sections = _read_v2_sections(data, verify_checksums=True)
        _strings, metrics, structure = _records_v2_basis(sections)
        model, _by_id, error = build_structure(structure)
        if error is not None:
            raise error
        return metrics, model
    except DatabaseError:
        raise
    except MALFORMED_EXCEPTIONS as exc:
        raise DatabaseError(f"malformed binary database: {exc!r}") from exc


def _finish_experiment(parts: tuple) -> Experiment:
    """Attribute decoded parts (metric ids already checked by
    :func:`read_cct`) and re-apply the stored summary overlays."""
    name, metrics, model, cct, stored, _count = parts
    attribute(cct)
    apply_summaries(cct, stored)
    return Experiment(name, metrics, model, cct)


def _loads_binary(
    data: bytes, verify_checksums: bool = True, exact: bool = False
) -> Experiment:
    version = read_header(data)
    if version == _V1:
        reader = _Reader(data, pos=6)
        records = _records_v1(reader)
        if exact and reader.remaining:
            raise DatabaseError(
                f"{reader.remaining} trailing bytes after the database"
            )
    else:
        records = _records_v2(_read_v2_sections(data, verify_checksums,
                                                exact))
    return _finish_experiment(records.build())


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

    @property
    def buffer(self) -> mmap.mmap:
        """The mapped database bytes (valid until :meth:`close`)."""
        if self._mm is None:
            raise DatabaseError(f"database {self.path} is closed")
        return self._mm

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

    def records(self, offsets: list[int] | None = None) -> DatabaseRecords:
        """Parse without building objects: the one strict decode of a
        mapped database, one section at a time, malformed input
        converted to :class:`DatabaseError` exactly like
        :func:`loads_binary`.  *offsets* receives the CCT records'
        offsets into :attr:`buffer` (see :func:`parse_cct`)."""
        if self._mm is None:
            raise DatabaseError(f"database {self.path} is closed")
        try:
            if self.version == _V1:
                return _records_v1(_Reader(self._mm, pos=6), offsets)
            return _records_v2(_LazySections(self), offsets)
        except DatabaseError:
            raise
        except MALFORMED_EXCEPTIONS as exc:
            raise DatabaseError(f"malformed binary database: {exc!r}") from exc

    def decode(self, offsets: list[int] | None = None) -> tuple:
        """Decode without attributing: ``(name, metrics, structure, cct,
        stored overlays, node count)`` built from :meth:`records`."""
        records = self.records(offsets)
        try:
            return records.build()
        except MALFORMED_EXCEPTIONS as exc:
            raise DatabaseError(f"malformed binary database: {exc!r}") from exc

    def experiment(self) -> Experiment:
        """Decode and attribute the full experiment (see :meth:`decode`)."""
        return _finish_experiment(self.decode())


def read_binary_streaming(path: str) -> Experiment:
    """Load a binary database through the mmap-backed streaming reader.

    Strict-mode equivalent of :func:`read_binary` with a bounded byte
    working set; the decoded :class:`Experiment` is identical.
    """
    with StreamingDatabase(path) as db:
        return db.experiment()
