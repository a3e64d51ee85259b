"""Time-partitioned on-disk trace storage (the ``.rpstore`` trace tier).

A trace store is a directory of fixed-duration **chunk files** plus a
manifest written last::

    <dir>/
      skeleton.rpdb        whole-trace experiment (structure + metrics)
      chunk-00000.events   events of partition 0 (times/rank/ctx/ticks)
      chunk-00000.slab     pre-aggregated int64 CCT tick sums, mmap-able
      manifest.json        time bounds, sizes, CRCs — written LAST

Conventionally it lives as the ``trace/`` subdirectory of an
``.rpstore`` (so one store carries both the untimed rank matrices and
the time dimension), but any directory works; :func:`open_trace`
accepts either the trace directory itself or its enclosing store.

Chunking follows the hypertable idea: events land in the partition
``floor(t / chunk_duration)`` and each partition carries a
pre-aggregated ``(nranks, n_contexts, n_metrics)`` int64 tick slab.  A
window query touches only the chunks whose *recorded* time bounds
overlap the window: fully-covered chunks are answered from the mapped
slab without reading a single event, and only the (at most two) edge
chunks read their event arrays.  Because slabs and event ticks are
integers, slab-answered and event-answered chunks compose exactly —
the windowed CCT is bit-identical to the in-memory evaluation (see
:mod:`repro.trace.model`).

Crash safety mirrors the corpus discipline: every chunk and the
skeleton are fully written and fsynced *before* the manifest is
renamed into place, so a writer killed anywhere leaves either a
complete store or a directory with no manifest — never a phantom
window.  Each file's size and CRC32 live in the manifest and are
verified on first touch; corruption raises a structured
:class:`~repro.errors.TraceCorrupt`.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import zlib

import numpy as np

from repro.errors import DatabaseError, TraceCorrupt, TraceError
from repro.core.metrics import MetricTable
from repro.hpcrun.profile_data import Frame
from repro.obs.spans import traced
from repro.testing.faults import crash_point, register_crash_points
from repro.trace.model import (
    TraceSet,
    check_window,
    experiment_from_profiles,
    materialize_profile,
)

__all__ = [
    "TRACE_DIR_NAME",
    "TRACE_MANIFEST",
    "TRACE_FORMAT",
    "CRASH_POINTS",
    "TraceStore",
    "create_trace_store",
    "open_trace",
    "is_trace_path",
]

#: conventional trace subdirectory inside an ``.rpstore``
TRACE_DIR_NAME = "trace"
TRACE_MANIFEST = "manifest.json"
SKELETON_NAME = "skeleton.rpdb"
TRACE_FORMAT = "rptrace-v1"

#: named crash points of the chunk writer, in commit order
CRASH_POINTS = (
    "trace.write.dir",
    "trace.write.skeleton",
    "trace.write.chunk",
    "trace.write.slab",
    "trace.write.manifest-staged",
    "trace.write.committed",
)
register_crash_points(*CRASH_POINTS)

_TIMES_DTYPE = np.dtype("<f8")
_IDS_DTYPE = np.dtype("<i8")


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_file(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _events_bytes(times, ranks, ctx, ticks) -> bytes:
    return b"".join(
        [
            np.ascontiguousarray(times, dtype=_TIMES_DTYPE).tobytes(),
            np.ascontiguousarray(ranks, dtype=_IDS_DTYPE).tobytes(),
            np.ascontiguousarray(ctx, dtype=_IDS_DTYPE).tobytes(),
            np.ascontiguousarray(ticks, dtype=_IDS_DTYPE).tobytes(),
        ]
    )


def create_trace_store(
    traces: TraceSet,
    path: str,
    chunk_duration: float = 1.0,
    overwrite: bool = False,
) -> "TraceStore":
    """Write *traces* as a chunked trace store at *path*; open and return it.

    *chunk_duration* is the fixed partition width in trace seconds.
    The directory is committed by the final manifest rename — killing
    the writer at any instruction leaves no readable (and therefore no
    wrong) store behind.
    """
    if not (chunk_duration > 0 and math.isfinite(chunk_duration)):
        raise TraceError(
            f"chunk_duration must be positive and finite, got {chunk_duration!r}"
        )
    if os.path.exists(path):
        if not overwrite:
            raise TraceError(f"trace store path exists: {path}")
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.unlink(path)
    os.makedirs(path)
    crash_point("trace.write.dir")

    # ---- skeleton: the whole-trace experiment, for structure + metrics
    from repro.hpcprof import binio

    whole = traces.window_experiment(None, None)
    skeleton = binio.dumps_binary(whole, version=2)
    skeleton_path = os.path.join(path, SKELETON_NAME)
    _write_file(skeleton_path, skeleton)
    crash_point("trace.write.skeleton")

    # ---- global event arrays, time-ordered (rank order breaks ties)
    n_metrics = len(traces.metrics)
    all_times = []
    all_ranks = []
    all_ctx = []
    all_ticks = []
    for r in range(traces.nranks):
        times, ctx, ticks = traces.events_window(r, None, None)
        all_times.append(times)
        all_ranks.append(np.full(len(times), r, dtype=np.int64))
        all_ctx.append(ctx)
        all_ticks.append(ticks)
    times = np.concatenate(all_times) if all_times else np.zeros(0)
    ranks = np.concatenate(all_ranks) if all_ranks else np.zeros(0, np.int64)
    ctx = np.concatenate(all_ctx) if all_ctx else np.zeros(0, np.int64)
    ticks = (
        np.concatenate(all_ticks)
        if all_ticks
        else np.zeros((0, n_metrics), np.int64)
    )
    order = np.argsort(times, kind="stable")
    times, ranks, ctx, ticks = times[order], ranks[order], ctx[order], ticks[order]

    # ---- chunk partitioning
    indices = (
        np.floor_divide(times, chunk_duration).astype(np.int64)
        if len(times)
        else np.zeros(0, np.int64)
    )
    n_ctx = len(traces.contexts)
    chunks: list[dict] = []
    for idx in np.unique(indices):
        mask = indices == idx
        c_times = times[mask]
        c_ranks = ranks[mask]
        c_ctx = ctx[mask]
        c_ticks = ticks[mask]

        events = _events_bytes(c_times, c_ranks, c_ctx, c_ticks)
        events_name = f"chunk-{int(idx):05d}.events"
        _write_file(os.path.join(path, events_name), events)
        crash_point("trace.write.chunk")

        slab = np.zeros((traces.nranks, n_ctx, n_metrics), dtype=np.int64)
        np.add.at(slab, (c_ranks, c_ctx), c_ticks)
        slab_data = np.ascontiguousarray(slab, dtype=_IDS_DTYPE).tobytes()
        slab_name = f"chunk-{int(idx):05d}.slab"
        _write_file(os.path.join(path, slab_name), slab_data)
        crash_point("trace.write.slab")

        chunks.append(
            {
                "index": int(idx),
                # recorded (data-derived) bounds, robust to any float
                # quirk in the floor-division assignment above
                "t_lo": float(c_times[0]),
                "t_hi": float(c_times[-1]),
                "n_events": int(len(c_times)),
                "events_file": events_name,
                "events_bytes": len(events),
                "events_crc32": zlib.crc32(events),
                "slab_file": slab_name,
                "slab_bytes": len(slab_data),
                "slab_crc32": zlib.crc32(slab_data),
            }
        )

    manifest = {
        "format": TRACE_FORMAT,
        "name": traces.name,
        "program": traces.program,
        "chunk_duration": float(chunk_duration),
        "nranks": traces.nranks,
        "n_events": int(len(times)),
        "n_contexts": n_ctx,
        "time_metric": traces.time_metric,
        "time_scale": traces.time_scale,
        "metrics": [
            {
                "mid": d.mid,
                "name": d.name,
                "unit": d.unit,
                "resolution": traces.resolutions[d.mid],
            }
            for d in traces.metrics
        ],
        "contexts": [
            [[[f.proc, f.file, f.call_line] for f in frames], leaf_line]
            for frames, leaf_line in traces.contexts
        ],
        "t_begin": traces.t_begin,
        "t_end": traces.t_end,
        "skeleton_bytes": len(skeleton),
        "skeleton_crc32": zlib.crc32(skeleton),
        "chunks": chunks,
    }
    # self-CRC over the canonical body: per-file CRCs protect the chunk
    # payloads, this protects the manifest's own numbers (chunk bounds,
    # resolutions) from silent bit damage
    body = json.dumps(manifest, indent=2, sort_keys=True)
    manifest["manifest_crc32"] = zlib.crc32(body.encode("utf-8"))
    payload = (
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8") + b"\n"
    )
    tmp = os.path.join(path, TRACE_MANIFEST + ".tmp")
    _write_file(tmp, payload)
    crash_point("trace.write.manifest-staged")
    os.replace(tmp, os.path.join(path, TRACE_MANIFEST))
    _fsync_dir(path)
    crash_point("trace.write.committed")
    return open_trace(path)


def _resolve_trace_dir(path: str) -> str:
    if os.path.isfile(os.path.join(path, TRACE_MANIFEST)):
        return path
    nested = os.path.join(path, TRACE_DIR_NAME)
    if os.path.isfile(os.path.join(nested, TRACE_MANIFEST)):
        return nested
    raise TraceError(f"no trace store at {path} (no {TRACE_MANIFEST})")


def is_trace_path(path: str) -> bool:
    """Whether *path* is (or contains) a committed trace store."""
    try:
        _resolve_trace_dir(path)
        return True
    except TraceError:
        return False


def open_trace(path: str) -> "TraceStore":
    """Open a committed trace store (the directory or its ``.rpstore``)."""
    return TraceStore(_resolve_trace_dir(path))


class _Chunk:
    """One partition: manifest entry + lazily-verified lazy mappings."""

    __slots__ = (
        "index", "t_lo", "t_hi", "n_events",
        "events_file", "events_bytes", "events_crc32",
        "slab_file", "slab_bytes", "slab_crc32",
        "_events", "_slab", "_by_rank",
    )

    def __init__(self, entry: dict) -> None:
        try:
            self.index = int(entry["index"])
            self.t_lo = float(entry["t_lo"])
            self.t_hi = float(entry["t_hi"])
            self.n_events = int(entry["n_events"])
            self.events_file = str(entry["events_file"])
            self.events_bytes = int(entry["events_bytes"])
            self.events_crc32 = int(entry["events_crc32"])
            self.slab_file = str(entry["slab_file"])
            self.slab_bytes = int(entry["slab_bytes"])
            self.slab_crc32 = int(entry["slab_crc32"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceCorrupt(f"malformed chunk entry in trace manifest: {exc}")
        if self.n_events < 0 or not (
            math.isfinite(self.t_lo) and math.isfinite(self.t_hi)
        ):
            raise TraceCorrupt(
                f"chunk {self.index} has invalid bounds in trace manifest"
            )
        self._events = None
        self._slab = None
        #: ``(order, cuts)``: event indices grouped by rank (time order
        #: kept within a rank); rank r's are ``order[cuts[r]:cuts[r+1]]``
        self._by_rank = None


class TraceStore:
    """Reader over a committed time-partitioned trace store.

    Each chunk file is mapped read-only on first touch and CRC-verified
    over that one mapping; its slab and event arrays are plain
    ``ndarray`` views of the mapping (file-backed, never copied to the
    heap), so resident memory stays flat no matter how many events the
    trace holds.
    :attr:`chunks_touched` counts the partitions a query actually
    opened — the pruning guarantee the benchmark asserts.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        manifest_path = os.path.join(path, TRACE_MANIFEST)
        try:
            with open(manifest_path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise TraceError(f"no trace store at {path}: {exc}")
        try:
            manifest = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceCorrupt(f"trace manifest unreadable: {exc}")
        if not isinstance(manifest, dict) or manifest.get("format") != TRACE_FORMAT:
            raise TraceCorrupt(
                f"trace manifest has unknown format "
                f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r}"
            )
        try:
            declared_crc = int(manifest.pop("manifest_crc32"))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceCorrupt(f"trace manifest is missing fields: {exc}")
        body = json.dumps(manifest, indent=2, sort_keys=True)
        if zlib.crc32(body.encode("utf-8")) != declared_crc:
            raise TraceCorrupt("trace manifest fails its self-CRC32")
        try:
            self.name = str(manifest["name"])
            self.program = str(manifest["program"])
            self.chunk_duration = float(manifest["chunk_duration"])
            self.nranks = int(manifest["nranks"])
            self.n_events = int(manifest["n_events"])
            self.time_metric = int(manifest["time_metric"])
            self.time_scale = float(manifest["time_scale"])
            self.t_begin = manifest["t_begin"]
            self.t_end = manifest["t_end"]
            metric_entries = manifest["metrics"]
            context_entries = manifest["contexts"]
            self._skeleton_bytes = int(manifest["skeleton_bytes"])
            self._skeleton_crc32 = int(manifest["skeleton_crc32"])
            chunk_entries = manifest["chunks"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceCorrupt(f"trace manifest is missing fields: {exc}")
        if self.nranks < 1 or self.chunk_duration <= 0:
            raise TraceCorrupt("trace manifest has invalid geometry")

        self.metrics = MetricTable()
        self.resolutions: dict[int, float] = {}
        try:
            for entry in metric_entries:
                desc = self.metrics.add(
                    str(entry["name"]), unit=str(entry.get("unit", ""))
                )
                res = float(entry["resolution"])
                if not (res > 0 and math.isfinite(res)):
                    raise ValueError(f"bad resolution {res!r}")
                self.resolutions[desc.mid] = res
            self.contexts: list[tuple[tuple[Frame, ...], int]] = []
            for frames_entry, leaf_line in context_entries:
                frames = tuple(
                    Frame(proc=str(p), file=str(f), call_line=int(line))
                    for p, f, line in frames_entry
                )
                if not frames:
                    raise ValueError("context with no frames")
                self.contexts.append((frames, int(leaf_line)))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceCorrupt(f"trace manifest tables are malformed: {exc}")

        self._chunks = [_Chunk(e) for e in chunk_entries]
        self._chunks.sort(key=lambda c: c.index)
        self.chunks_total = len(self._chunks)
        self.chunks_touched = 0
        self._skeleton_exp = None

        # fail fast on missing/truncated files; content CRCs are lazy
        for chunk in self._chunks:
            for fname, size in (
                (chunk.events_file, chunk.events_bytes),
                (chunk.slab_file, chunk.slab_bytes),
            ):
                self._check_size(fname, size)
        self._check_size(SKELETON_NAME, self._skeleton_bytes)

    # ------------------------------------------------------------------ #
    # integrity
    # ------------------------------------------------------------------ #
    def _check_size(self, fname: str, expected: int) -> None:
        full = os.path.join(self.path, fname)
        try:
            actual = os.path.getsize(full)
        except OSError:
            raise TraceCorrupt(f"trace store is missing {fname}")
        if actual != expected:
            raise TraceCorrupt(
                f"{fname} is {actual} bytes, manifest says {expected} "
                f"(truncated or stray write)"
            )

    def _verified_map(self, fname: str, expected_crc: int) -> np.ndarray:
        """One read-only mapping of *fname*, CRC-checked in place.

        The bytes come back as a plain ``uint8`` view of the mapping
        (``.base`` leads to the ``mmap.mmap``): element access skips the
        ``np.memmap`` subclass, and the mapping lives exactly as long as
        some array derived from it does.
        """
        raw = np.memmap(os.path.join(self.path, fname), dtype=np.uint8,
                        mode="r").view(np.ndarray)
        if zlib.crc32(raw) != expected_crc:
            raise TraceCorrupt(f"{fname} fails its manifest CRC32")
        return raw

    # ------------------------------------------------------------------ #
    # chunk access
    # ------------------------------------------------------------------ #
    def _chunk_events(self, chunk: _Chunk):
        if chunk._events is None:
            raw = self._verified_map(chunk.events_file, chunk.events_crc32)
            n = chunk.n_events
            m = len(self.metrics)
            need = n * 8 * (3 + m)
            if len(raw) != need:
                raise TraceCorrupt(
                    f"{chunk.events_file} payload does not match its "
                    f"event count"
                )
            off = 0
            times = raw[off:off + n * 8].view(_TIMES_DTYPE)
            off += n * 8
            ranks = raw[off:off + n * 8].view(_IDS_DTYPE)
            off += n * 8
            ctx = raw[off:off + n * 8].view(_IDS_DTYPE)
            off += n * 8
            ticks = raw[off:off + n * m * 8].view(_IDS_DTYPE).reshape(n, m)
            bad = (ranks < 0) | (ranks >= self.nranks) \
                | (ctx < 0) | (ctx >= len(self.contexts))
            if bool(bad.any()):
                raise TraceCorrupt(
                    f"{chunk.events_file} references out-of-range ids"
                )
            chunk._events = (times, ranks, ctx, ticks)
        return chunk._events

    def _chunk_slab(self, chunk: _Chunk) -> np.ndarray:
        if chunk._slab is None:
            raw = self._verified_map(chunk.slab_file, chunk.slab_crc32)
            shape = (self.nranks, len(self.contexts), len(self.metrics))
            need = int(np.prod(shape)) * 8
            if len(raw) != need:
                raise TraceCorrupt(
                    f"{chunk.slab_file} does not match the manifest geometry"
                )
            chunk._slab = raw.view(_IDS_DTYPE).reshape(shape)
        return chunk._slab

    def _rank_index(self, chunk: _Chunk) -> tuple[np.ndarray, np.ndarray]:
        """The chunk's events grouped by rank, built once per chunk."""
        if chunk._by_rank is None:
            ranks = self._chunk_events(chunk)[1]
            order = np.argsort(ranks, kind="stable")
            cuts = np.zeros(self.nranks + 1, dtype=np.int64)
            np.cumsum(np.bincount(ranks, minlength=self.nranks), out=cuts[1:])
            chunk._by_rank = (order, cuts)
        return chunk._by_rank

    def _overlapping(self, lo: float, hi: float):
        for chunk in self._chunks:
            if chunk.t_hi < lo or chunk.t_lo >= hi:
                continue
            yield chunk

    def reset_counters(self) -> None:
        self.chunks_touched = 0

    # ------------------------------------------------------------------ #
    # windowing (the same protocol as TraceSet)
    # ------------------------------------------------------------------ #
    @traced("trace.window-ticks")
    def window_ticks(
        self, t0: float | None = None, t1: float | None = None
    ) -> np.ndarray:
        """Exact int64 ``(nranks, n_contexts, n_metrics)`` window sums.

        Fully-covered partitions add their pre-aggregated slab; only
        partially-covered ones read events.
        """
        lo, hi = check_window(t0, t1)
        out = np.zeros(
            (self.nranks, len(self.contexts), len(self.metrics)),
            dtype=np.int64,
        )
        for chunk in self._overlapping(lo, hi):
            self.chunks_touched += 1
            if lo <= chunk.t_lo and chunk.t_hi < hi:
                out += self._chunk_slab(chunk)
                continue
            times, ranks, ctx, ticks = self._chunk_events(chunk)
            mask = (times >= lo) & (times < hi)
            np.add.at(out, (ranks[mask], ctx[mask]), ticks[mask])
        return out

    @traced("trace.events-window")
    def events_window(
        self, rank: int, t0: float | None = None, t1: float | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One rank's events in a window: ``(times, ctx ids, ticks)``.

        Each overlapping chunk contributes its slice of the rank index;
        only a chunk the window covers partially filters by time.
        """
        if not (0 <= rank < self.nranks):
            raise TraceError(f"rank {rank} out of range [0, {self.nranks})")
        lo, hi = check_window(t0, t1)
        times_parts, ctx_parts, tick_parts = [], [], []
        for chunk in self._overlapping(lo, hi):
            self.chunks_touched += 1
            times, _ranks, ctx, ticks = self._chunk_events(chunk)
            order, cuts = self._rank_index(chunk)
            sel = order[cuts[rank]:cuts[rank + 1]]
            if not (lo <= chunk.t_lo and chunk.t_hi < hi):
                at = times[sel]
                sel = sel[(at >= lo) & (at < hi)]
            times_parts.append(times[sel])
            ctx_parts.append(ctx[sel])
            tick_parts.append(ticks[sel])
        if not times_parts:
            return (
                np.zeros(0),
                np.zeros(0, np.int64),
                np.zeros((0, len(self.metrics)), np.int64),
            )
        return (
            np.concatenate(times_parts),
            np.concatenate(ctx_parts),
            np.concatenate(tick_parts),
        )

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #
    @property
    def skeleton(self):
        """The whole-trace experiment saved at write time (lazy)."""
        if self._skeleton_exp is None:
            from repro.hpcprof import database

            with open(os.path.join(self.path, SKELETON_NAME), "rb") as fh:
                data = fh.read()
            if zlib.crc32(data) != self._skeleton_crc32:
                raise TraceCorrupt(f"{SKELETON_NAME} fails its manifest CRC32")
            try:
                self._skeleton_exp = database.loads(data)
            except DatabaseError as exc:
                raise TraceCorrupt(f"{SKELETON_NAME} is unreadable: {exc}")
        return self._skeleton_exp

    def window_profiles(
        self, t0: float | None = None, t1: float | None = None
    ):
        ticks = self.window_ticks(t0, t1)
        metrics = self.skeleton.metrics
        return [
            materialize_profile(
                ticks[r],
                self.contexts,
                metrics,
                self.resolutions,
                rank=r,
                program=self.program,
            )
            for r in range(self.nranks)
        ]

    def window_experiment(
        self, t0: float | None = None, t1: float | None = None
    ):
        """The CCT experiment of the window, built exactly like the
        in-memory path (same correlate pipeline, same tick sums)."""
        return experiment_from_profiles(
            self.window_profiles(t0, t1), self.skeleton.structure, self.name
        )

    def info(self) -> dict:
        """A JSON-friendly summary of the store's layout."""
        return {
            "name": self.name,
            "program": self.program,
            "format": TRACE_FORMAT,
            "nranks": self.nranks,
            "n_events": self.n_events,
            "n_contexts": len(self.contexts),
            "t_begin": self.t_begin,
            "t_end": self.t_end,
            "chunk_duration": self.chunk_duration,
            "chunks": self.chunks_total,
            "time_metric": self.time_metric,
            "time_scale": self.time_scale,
            "metrics": [
                {
                    "name": d.name,
                    "unit": d.unit,
                    "resolution": self.resolutions[d.mid],
                }
                for d in self.metrics
            ],
        }

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        for chunk in self._chunks:
            chunk._events = None
            chunk._slab = None
            chunk._by_rank = None
        self._skeleton_exp = None

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TraceStore {self.path!r}: {self.nranks} rank(s), "
            f"{self.n_events} events, {self.chunks_total} chunk(s)>"
        )
