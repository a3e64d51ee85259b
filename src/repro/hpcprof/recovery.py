"""Fault-tolerant experiment-database loading (salvage mode).

Strict loads (:func:`repro.hpcprof.database.load` with the default
``strict=True``) present exactly one failure mode for bad bytes:
:class:`DatabaseError`.  This module adds the recovery story for
imperfect databases at scale — a truncated upload, a flipped bit on
disk — by loading **the largest validated prefix** instead of raising:

* the v2 framed format (:mod:`repro.hpcprof.binio`) carries a CRC32
  per section, so corruption is *localized*: a section whose checksum
  fails is skipped in its entirety (a prefix of corrupted bytes cannot
  be validated, so none of it is trusted) while every later section is
  still recovered through the framing;
* a *truncated* stream keeps the bytes it still has intact, so the cut
  section is prefix-parsed record by record — records are only applied
  once fully parsed, so the recovered CCT is always a well-formed
  subtree (preorder prefix: parents before children);
* metric values referencing metric ids lost with a corrupt metric
  table are dropped column-wise, keeping the nodes and the surviving
  columns;
* the recovered tree is re-attributed (Eqs. 1 and 2), so inclusive and
  exclusive values are consistent on the salvaged subtree by
  construction, then validated by :func:`validate_experiment` — the
  same check a clean load passes.

Every salvage returns an :class:`Experiment` tagged with a structured
:class:`LoadReport` (``experiment.load_report``) accounting for bytes
lost, nodes dropped, and sections skipped.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from repro.core.attribution import attribute
from repro.core.cct import CCT, CCTKind
from repro.errors import DatabaseError
from repro.core.metrics import MetricKind, MetricTable
from repro.hpcprof import binio
from repro.hpcprof.binio import (
    MALFORMED_EXCEPTIONS,
    SEC_CCT,
    SEC_END,
    SEC_METRICS,
    SEC_NAME,
    SEC_STRINGS,
    SEC_STRUCTURE,
    SECTION_NAMES,
    _FRAME_HEADER,
    _Reader,
)
from repro.hpcprof.experiment import Experiment
from repro.hpcstruct.model import StructureModel

__all__ = [
    "LoadReport",
    "probe_bytes",
    "salvage_load",
    "salvage_loads",
    "validate_experiment",
]

_SECTION_ORDER = (SEC_NAME, SEC_STRINGS, SEC_METRICS, SEC_STRUCTURE, SEC_CCT)


@dataclass
class LoadReport:
    """Structured account of what a (salvage) load recovered and lost."""

    origin: str
    mode: str
    version: int = 0
    #: True only when the stream parsed end to end with every check passing
    clean: bool = True
    bytes_total: int = 0
    bytes_recovered: int = 0
    bytes_lost: int = 0
    #: sections whose payload was entirely discarded (checksum failure,
    #: unreachable after an earlier unframed failure, or missing)
    sections_skipped: list[str] = field(default_factory=list)
    #: sections recovered as a record prefix of a cut payload
    sections_truncated: list[str] = field(default_factory=list)
    #: CCT node counts: declared is None for v1 streams (no count field)
    nodes_declared: int | None = None
    nodes_recovered: int = 0
    nodes_dropped: int | None = None
    structure_nodes_recovered: int = 0
    metrics_recovered: int = 0
    strings_recovered: int = 0
    #: metric values dropped because their column's descriptor was lost
    values_dropped: int = 0
    errors: list[str] = field(default_factory=list)

    def finalize(self) -> None:
        self.bytes_lost = max(0, self.bytes_total - self.bytes_recovered)
        if self.nodes_declared is not None:
            self.nodes_dropped = max(0, self.nodes_declared - self.nodes_recovered)
        if (self.bytes_lost or self.sections_skipped
                or self.sections_truncated or self.errors
                or self.values_dropped):
            self.clean = False

    def to_payload(self) -> dict:
        """A JSON-safe rendering (what the server attaches to responses)."""
        return {
            "origin": self.origin,
            "mode": self.mode,
            "version": self.version,
            "clean": self.clean,
            "bytes": {
                "total": self.bytes_total,
                "recovered": self.bytes_recovered,
                "lost": self.bytes_lost,
            },
            "nodes": {
                "declared": self.nodes_declared,
                "recovered": self.nodes_recovered,
                "dropped": self.nodes_dropped,
            },
            "sections_skipped": list(self.sections_skipped),
            "sections_truncated": list(self.sections_truncated),
            "structure_nodes_recovered": self.structure_nodes_recovered,
            "metrics_recovered": self.metrics_recovered,
            "strings_recovered": self.strings_recovered,
            "values_dropped": self.values_dropped,
            "errors": list(self.errors),
        }

    def summary(self) -> str:
        if self.clean:
            return f"{self.origin}: clean load ({self.bytes_total} bytes)"
        bits = [
            f"{self.origin}: salvaged {self.nodes_recovered} scopes",
            f"{self.bytes_lost} bytes lost",
        ]
        if self.nodes_dropped:
            bits.append(f"{self.nodes_dropped} scopes dropped")
        if self.sections_skipped:
            bits.append("skipped: " + ", ".join(self.sections_skipped))
        if self.sections_truncated:
            bits.append("truncated: " + ", ".join(self.sections_truncated))
        return "; ".join(bits)


# --------------------------------------------------------------------- #
# validation (shared by clean loads in tests and every salvage load)
# --------------------------------------------------------------------- #
def validate_experiment(exp: Experiment, tol: float = 1e-6) -> None:
    """Check the invariants every loadable experiment must satisfy.

    Raises :class:`DatabaseError` on the first violation.  Checked:

    * parent/child links are mutually consistent and the tree is acyclic
      (each node visited exactly once from the root);
    * every metric id on any node exists in the metric table;
    * Eq. 2 — each scope's inclusive value equals its raw value plus the
      sum of its children's inclusive values (raw metrics);
    * Eq. 1 — each scope's exclusive value follows the hybrid rule:
      statements and call sites carry their own raw cost, loops add the
      raw cost of their direct statement/call-site children, and frames
      carry the within-frame raw subtotal (raw metrics).
    """
    metrics = exp.metrics
    nmetrics = len(metrics)
    raw_mids = {d.mid for d in metrics if d.kind is MetricKind.RAW}
    seen: set[int] = set()

    def pick(values: dict, mids: set[int]) -> dict:
        return {m: v for m, v in values.items() if m in mids}

    def close(got: dict, expect: dict, node, eq: str) -> None:
        for mid in set(got) | set(expect):
            g, e = got.get(mid, 0.0), expect.get(mid, 0.0)
            if abs(g - e) > tol * max(1.0, abs(e)):
                raise DatabaseError(
                    f"Eq. {eq} violated at {node.name!r} for metric {mid}: "
                    f"{g} != {e}"
                )

    within: dict[int, dict] = {}  # uid -> within-frame raw subtotal
    for node in exp.cct.root.walk_postorder():
        if node.uid in seen:
            raise DatabaseError(f"cycle in CCT at {node.name!r}")
        seen.add(node.uid)
        for child in node.children:
            if child.parent is not node:
                raise DatabaseError(f"broken parent link under {node.name!r}")
        for values in (node.raw, node.inclusive, node.exclusive):
            for mid in values:
                if not 0 <= mid < nmetrics:
                    raise DatabaseError(
                        f"scope {node.name!r} references unknown metric {mid}"
                    )
        # Eq. 2: inclusive = raw + children's inclusive
        expect = dict(pick(node.raw, raw_mids))
        for child in node.children:
            for mid, v in pick(child.inclusive, raw_mids).items():
                expect[mid] = expect.get(mid, 0.0) + v
        close(pick(node.inclusive, raw_mids), expect, node, "2")
        # within-frame raw subtotal (the Eq. 1 frame rule carrier)
        sub = dict(pick(node.raw, raw_mids))
        for child in node.children:
            if child.kind is not CCTKind.FRAME:
                for mid, v in within.pop(child.uid, {}).items():
                    sub[mid] = sub.get(mid, 0.0) + v
        # Eq. 1: the hybrid exclusive rule, per scope kind
        if node.kind in (CCTKind.STATEMENT, CCTKind.CALL_SITE):
            expect = pick(node.raw, raw_mids)
        elif node.kind is CCTKind.LOOP:
            expect = dict(pick(node.raw, raw_mids))
            for child in node.children:
                if child.kind in (CCTKind.STATEMENT, CCTKind.CALL_SITE):
                    for mid, v in pick(child.raw, raw_mids).items():
                        expect[mid] = expect.get(mid, 0.0) + v
        elif node.kind is CCTKind.FRAME:
            expect = sub
        else:  # ROOT
            expect = pick(node.raw, raw_mids)
        close(pick(node.exclusive, raw_mids), expect, node, "1")
        if node.kind is not CCTKind.FRAME:
            within[node.uid] = sub


# --------------------------------------------------------------------- #
# salvage loading
# --------------------------------------------------------------------- #
def salvage_loads(data: bytes, origin: str = "<bytes>") -> Experiment:
    """Recover the largest validated prefix of a binary database.

    Returns an :class:`Experiment` tagged with ``.load_report``; raises
    :class:`DatabaseError` only when the input is not recognizably a
    binary experiment database at all (bad magic / unknown version).
    """
    version = binio.read_header(data)
    report = LoadReport(origin=origin, mode="salvage", version=version,
                        bytes_total=len(data))
    if version == 1:
        exp = _salvage_v1(data, report)
    else:
        exp = _salvage_v2(data, report)
    report.finalize()
    exp.load_report = report
    return exp


def probe_bytes(data: bytes, origin: str = "<bytes>") -> LoadReport:
    """What would a salvage load of *data* recover?

    Runs the full salvage pipeline and returns only its
    :class:`LoadReport` — ``report.clean`` is True iff a strict load
    would accept *data* byte-for-byte, ending exactly at its last frame
    (``binio.loads_binary(data, exact=True)``).  Corpus admission runs
    that strict decode itself and consults the salvage report only for
    payloads it refuses (the refusal message, or the opt-in salvage).
    Raises :class:`DatabaseError` only for data that is not a binary
    experiment database at all.
    """
    return salvage_loads(data, origin=origin).load_report


def salvage_load(path: str) -> Experiment:
    """File-path convenience wrapper over :func:`salvage_loads`."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DatabaseError(f"cannot read database {path}: {exc}") from exc
    return salvage_loads(data, origin=path)


def _salvage_strings(reader: _Reader, report: LoadReport) -> list[str]:
    """Recover a prefix of the string table."""
    strings: list[str] = []
    try:
        (nstrings,) = reader.unpack("<I")
        reader.check_count(nstrings, 4, "string")
        for _ in range(nstrings):
            strings.append(reader.read_str())
    except (DatabaseError, *MALFORMED_EXCEPTIONS) as exc:
        report.errors.append(f"strings: {exc!r}")
    return strings


def _salvage_metrics(
    reader: _Reader, strings: list[str], report: LoadReport
) -> MetricTable:
    """Recover a prefix of the metric table (ids stay dense)."""
    metrics = MetricTable()
    try:
        (nmetrics,) = reader.unpack("<I")
        reader.check_count(nmetrics, struct.calcsize("<IIIIdBB"), "metric")
        for _ in range(nmetrics):
            binio.read_one_metric(reader, strings, metrics)
    except (DatabaseError, *MALFORMED_EXCEPTIONS) as exc:
        report.errors.append(f"metrics: {exc!r}")
    return metrics


def _drop_unknown_columns(cct: CCT, stored, metrics: MetricTable,
                          report: LoadReport):
    """Drop metric values whose descriptor did not survive the load."""
    nmetrics = len(metrics)
    for node in cct.walk():
        bad = [mid for mid in node.raw if not 0 <= mid < nmetrics]
        for mid in bad:
            del node.raw[mid]
        report.values_dropped += len(bad)
    kept_stored = []
    for node, summaries in stored:
        kept = [
            (flavor, mid, value)
            for flavor, mid, value in summaries
            if 0 <= mid < nmetrics
            and metrics.by_id(mid).kind is MetricKind.SUMMARY
        ]
        report.values_dropped += len(summaries) - len(kept)
        if kept:
            kept_stored.append((node, kept))
    return kept_stored


def _finish_experiment(
    name: str,
    metrics: MetricTable,
    model: StructureModel,
    cct: CCT,
    stored,
    report: LoadReport,
) -> Experiment:
    """Attribute, overlay summaries, validate; degrade to empty on failure."""
    stored = _drop_unknown_columns(cct, stored, metrics, report)
    attribute(cct)
    binio.apply_summaries(cct, stored)
    exp = Experiment(name, metrics, model, cct)
    try:
        validate_experiment(exp)
    except DatabaseError as exc:  # pragma: no cover - defensive fallback
        report.errors.append(f"validation: {exc}")
        report.nodes_recovered = 1
        empty = CCT()
        attribute(empty)
        exp = Experiment(name, metrics, model, empty)
    return exp


def _salvage_v1(data: bytes, report: LoadReport) -> Experiment:
    """Salvage an unframed v1 stream.

    Without framing, a failure at byte N makes everything after N
    unlocatable, so the pipeline runs stage by stage and the first
    failure ends the recovery; only the final reachable stage can be
    partial.
    """
    reader = _Reader(data, pos=6)
    name = "recovered"
    strings: list[str] = []
    metrics = MetricTable()
    model = StructureModel()
    by_id: list = []
    cct = CCT()
    stored: list = []

    stage = "name"
    try:
        name = reader.read_str()
        stage = "strings"
        strings = binio.read_strings(reader)
        report.strings_recovered = len(strings)
        stage = "metrics"
        metrics = binio.read_metrics(reader, strings)
        report.metrics_recovered = len(metrics)
        stage = "structure"
        stage_errors: list[str] = []
        model, by_id = binio.read_structure(reader, strings,
                                            errors=stage_errors)
        report.structure_nodes_recovered = len(by_id)
        if stage_errors:
            raise DatabaseError(stage_errors[0])
        stage = "cct"
        stage_errors = []
        cct, stored, _count = binio.read_cct(reader, by_id,
                                             errors=stage_errors)
        if stage_errors:
            report.errors.extend(stage_errors)
            report.sections_truncated.append("cct")
    except (DatabaseError, *MALFORMED_EXCEPTIONS) as exc:
        report.errors.append(f"{stage}: {exc!r}")
        order = ["name", "strings", "metrics", "structure", "cct"]
        cut = order.index(stage)
        report.sections_truncated.append(stage)
        report.sections_skipped.extend(order[cut + 1:])

    report.strings_recovered = len(strings)
    report.metrics_recovered = len(metrics)
    report.structure_nodes_recovered = len(by_id)
    report.nodes_recovered = len(cct)
    report.bytes_recovered = reader.pos
    return _finish_experiment(name, metrics, model, cct, stored, report)


def _iter_frames_tolerant(data: bytes, report: LoadReport):
    """Yield ``(section id, payload bytes, crc ok, truncated)`` frames.

    Tolerates a truncated tail and (thanks to the length fields) skips
    over sections it cannot identify.  Every step advances the cursor,
    so the walk always terminates.
    """
    pos = 6
    total = len(data)
    while pos < total:
        if pos + _FRAME_HEADER.size > total:
            report.errors.append(
                f"frame header truncated at byte {pos}"
            )
            report.bytes_recovered = max(report.bytes_recovered, pos)
            return
        section_id, length, crc = _FRAME_HEADER.unpack_from(data, pos)
        payload_at = pos + _FRAME_HEADER.size
        avail = total - payload_at
        if section_id == SEC_END and length == 0:
            report.bytes_recovered = max(report.bytes_recovered, payload_at)
            yield SEC_END, b"", True, False
            return
        truncated = length > avail
        end = payload_at + min(length, avail)
        payload = data[payload_at:end]
        crc_ok = (not truncated) and zlib.crc32(payload) == crc
        yield section_id, payload, crc_ok, truncated
        if truncated:
            report.errors.append(
                f"section {SECTION_NAMES.get(section_id, section_id)} "
                f"cut short ({avail} of {length} bytes present)"
            )
            return
        pos = end
    report.errors.append("missing end frame")


def _salvage_v2(data: bytes, report: LoadReport) -> Experiment:
    """Salvage a framed v2 stream section by section."""
    payloads: dict[int, tuple[bytes, bool, bool]] = {}
    for section_id, payload, crc_ok, truncated in _iter_frames_tolerant(
        data, report
    ):
        if section_id == SEC_END:
            break
        if section_id not in SECTION_NAMES or section_id in payloads:
            report.errors.append(f"unidentified section id {section_id}")
            continue
        payloads[section_id] = (payload, crc_ok, truncated)

    recovered_bytes = 6
    name = "recovered"
    strings: list[str] = []
    metrics = MetricTable()
    model = StructureModel()
    by_id: list = []
    cct = CCT()
    stored: list = []
    declared_cct: int | None = None
    # a declared node count the parse disagrees with: the section's
    # records are all there (so it is not truncated), but a strict load
    # refuses the stream, so the report must not call it clean
    count_errors: list[str] = []

    for sid in _SECTION_ORDER:
        label = SECTION_NAMES[sid]
        entry = payloads.get(sid)
        if entry is None:
            report.sections_skipped.append(label)
            continue
        payload, crc_ok, truncated = entry
        if not crc_ok and not truncated:
            # a corrupt payload of full length: none of it can be
            # trusted, so skip it and keep walking the frames
            report.errors.append(f"checksum mismatch in {label} section")
            report.sections_skipped.append(label)
            recovered_bytes += _FRAME_HEADER.size  # frame located, body lost
            continue
        reader = _Reader(payload)
        before = len(report.errors)
        if sid == SEC_NAME:
            try:
                name = reader.read_str()
            except (DatabaseError, *MALFORMED_EXCEPTIONS) as exc:
                report.errors.append(f"name: {exc!r}")
        elif sid == SEC_STRINGS:
            strings = _salvage_strings(reader, report)
            report.strings_recovered = len(strings)
        elif sid == SEC_METRICS:
            metrics = _salvage_metrics(reader, strings, report)
            report.metrics_recovered = len(metrics)
        elif sid == SEC_STRUCTURE:
            try:
                (declared,) = reader.unpack("<I")
            except DatabaseError as exc:
                report.errors.append(f"structure: {exc!r}")
            else:
                stage_errors: list[str] = []
                model, by_id = binio.read_structure(reader, strings,
                                                    errors=stage_errors)
                report.errors.extend(stage_errors)
                if not stage_errors and len(by_id) != declared:
                    count_errors.append(
                        f"structure: section declares {declared} nodes, "
                        f"parsed {len(by_id)}"
                    )
            report.structure_nodes_recovered = len(by_id)
        elif sid == SEC_CCT:
            try:
                (declared_cct,) = reader.unpack("<I")
            except DatabaseError as exc:
                report.errors.append(f"cct: {exc!r}")
            else:
                stage_errors = []
                cct, stored, count = binio.read_cct(reader, by_id,
                                                    errors=stage_errors)
                report.errors.extend(stage_errors)
                if not stage_errors and count != declared_cct:
                    count_errors.append(
                        f"cct: section declares {declared_cct} nodes, "
                        f"parsed {count}"
                    )
        salvaged_fully = len(report.errors) == before and not truncated
        if salvaged_fully:
            recovered_bytes += _FRAME_HEADER.size + len(payload)
        else:
            report.sections_truncated.append(label)
            recovered_bytes += _FRAME_HEADER.size + reader.pos

    report.errors.extend(count_errors)
    report.nodes_declared = declared_cct
    report.nodes_recovered = len(cct)
    report.bytes_recovered = max(report.bytes_recovered, recovered_bytes)
    return _finish_experiment(name, metrics, model, cct, stored, report)
