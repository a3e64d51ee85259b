"""Out-of-core columnar store for merged many-rank experiments.

The paper's finalization step (Section IV) exists because holding every
rank's metric values in memory does not scale; this module is the
storage tier that makes the reproduction honor that constraint.  A
*store* is a directory (conventionally ``<name>.rpstore``) holding:

* ``manifest.json`` — shapes, metric ids, summary-column ids;
* ``skeleton.rpdb`` — the merged experiment (combined CCT, metric
  table, structure model, summary overlays) in the regular framed v2
  binary format, opened through the mmap-backed streaming reader;
* ``columns/{raw,inclusive,exclusive}.f64`` — the three dense
  ``(nnodes x num_metrics)`` float64 engine matrices, row order equal
  to the skeleton CCT's preorder walk, memory-mapped read-only into
  :class:`~repro.core.engine.MetricEngine` so view rendering never
  re-gathers per-node dicts and the OS pages matrix data in on demand;
* ``ranks/m<mid>_{incl,excl}.f64`` — per-metric ``(nranks x nnodes)``
  rank matrices (rank-major, so the bounded merge writes each rank as
  one contiguous row), backing :meth:`StoreExperiment.rank_vector` and
  on-demand summarization without any per-rank tree in memory.

Byte parity with the in-memory path is a design invariant, not an
accident: the engine matrices are written *from* the in-memory engine
of the merged experiment, and the skeleton round-trips through the same
serializer the eager loader reads — so a store-backed session renders
tables byte-identical to loading the equivalent single ``.rpdb``.  The
golden-corpus and differential suites pin this.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from repro.core.attribution import COLUMNAR_MIN_NODES, attribute_dicts
from repro.core.cct import CCTNode
from repro.core.engine import MetricEngine
from repro.core.metrics import MetricKind
from repro.core.views import ViewNode
from repro.errors import DatabaseError, ViewError
from repro.obs.spans import span
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.merge import rank_rows
from repro.hpcprof.summarize import FLAVORS, SummaryIds, summarize_rows

__all__ = [
    "STORE_EXTENSION",
    "STORE_VERSION",
    "ColumnStore",
    "StoreExperiment",
    "StoreWriter",
    "create_store",
    "is_store_path",
    "open_store",
    "store_size_bytes",
]

STORE_EXTENSION = ".rpstore"
STORE_VERSION = 1
MANIFEST_NAME = "manifest.json"
SKELETON_NAME = "skeleton.rpdb"

_COLUMNS_DIR = "columns"
_RANKS_DIR = "ranks"
_MATRIX_NAMES = ("raw", "inclusive", "exclusive")
_FLAVOR_TAG = {"inclusive": "incl", "exclusive": "excl"}
#: every entry a store directory holds, sealed or not
_OWN = {MANIFEST_NAME, SKELETON_NAME, _COLUMNS_DIR, _RANKS_DIR}
_DTYPE = np.dtype("<f8")


def is_store_path(path: str) -> bool:
    """True when *path* is a store directory (has a manifest)."""
    return os.path.isfile(os.path.join(path, MANIFEST_NAME))


def _rank_file(mid: int, flavor: str) -> str:
    return os.path.join(_RANKS_DIR, f"m{mid}_{_FLAVOR_TAG[flavor]}.f64")


# --------------------------------------------------------------------- #
# writing
# --------------------------------------------------------------------- #
class StoreWriter:
    """Builds a store directory file by file; ``finish`` seals it.

    The manifest is written last, so a crashed build leaves a directory
    that :func:`is_store_path` rejects rather than a store that opens
    half-populated; a build that fails in process calls :meth:`abort`.  ``overwrite`` accepts such a leftover,
    a sealed store or an empty directory — any directory holding only
    a store's own entries — and refuses everything else.
    """

    def __init__(self, path: str, overwrite: bool = False) -> None:
        self.path = path
        #: whether this build made the directory (:meth:`abort` then
        #: removes it too)
        self.created = not os.path.exists(path)
        if not self.created:
            if not overwrite:
                raise DatabaseError(
                    f"store path already exists: {path} (pass overwrite)"
                )
            if os.path.isfile(path) or not set(os.listdir(path)) <= _OWN:
                # refuse to clobber anything that is not a store we own;
                # an unsealed build (say, a failed merge) is one
                raise DatabaseError(
                    f"refusing to overwrite non-store path: {path}"
                )
            self._wipe()
        os.makedirs(os.path.join(path, _COLUMNS_DIR), exist_ok=True)
        os.makedirs(os.path.join(path, _RANKS_DIR), exist_ok=True)

    def _wipe(self) -> None:
        for rel in [MANIFEST_NAME, SKELETON_NAME]:
            full = os.path.join(self.path, rel)
            if os.path.isfile(full):
                os.unlink(full)
        for sub in (_COLUMNS_DIR, _RANKS_DIR):
            full = os.path.join(self.path, sub)
            if os.path.isdir(full):
                for name in os.listdir(full):
                    os.unlink(os.path.join(full, name))

    def abort(self) -> None:
        """Remove what this build wrote: every store entry, and the
        directory itself when the build created it."""
        for rel in (MANIFEST_NAME, SKELETON_NAME):
            full = os.path.join(self.path, rel)
            if os.path.isfile(full):
                os.unlink(full)
        for sub in (_COLUMNS_DIR, _RANKS_DIR):
            shutil.rmtree(os.path.join(self.path, sub), ignore_errors=True)
        if self.created:
            try:
                os.rmdir(self.path)
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    def write_skeleton(self, data: bytes) -> int:
        """Write the encoded skeleton database; returns its size."""
        with open(os.path.join(self.path, SKELETON_NAME), "wb") as fh:
            fh.write(data)
        return len(data)

    def write_matrices(self, matrices: tuple[np.ndarray, ...]) -> None:
        """Persist the ``(raw, inclusive, exclusive)`` matrices as raw
        column files."""
        for name, matrix in zip(_MATRIX_NAMES, matrices):
            out = os.path.join(self.path, _COLUMNS_DIR, f"{name}.f64")
            np.ascontiguousarray(matrix, dtype=_DTYPE).tofile(out)

    def create_rank_matrix(
        self, mid: int, flavor: str, nranks: int, nnodes: int
    ) -> np.memmap:
        """A writable ``(nranks x nnodes)`` rank-major memmap."""
        return np.memmap(
            os.path.join(self.path, _rank_file(mid, flavor)),
            dtype=_DTYPE,
            mode="w+",
            shape=(nranks, nnodes),
        )

    def finish(
        self,
        *,
        name: str,
        nnodes: int,
        num_metrics: int,
        nranks: int,
        rank_mids: list[int],
        summaries: dict[int, SummaryIds],
        extra: dict | None = None,
    ) -> dict:
        manifest = {
            "format": "rpstore",
            "version": STORE_VERSION,
            "name": name,
            "nnodes": nnodes,
            "num_metrics": num_metrics,
            "nranks": nranks,
            "dtype": _DTYPE.str,
            "rank_mids": list(rank_mids),
            "summaries": {
                str(mid): list(ids.all()) for mid, ids in summaries.items()
            },
        }
        if extra:
            manifest.update(extra)
        with open(os.path.join(self.path, MANIFEST_NAME), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest


def store_size_bytes(path: str) -> int:
    """Total size of the files under a store directory, without opening it."""
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


# --------------------------------------------------------------------- #
# reading
# --------------------------------------------------------------------- #
class ColumnStore:
    """Open handle on a store directory: manifest + lazy read-only maps.

    Matrices are plain ``ndarray`` views of read-only file mappings (the
    data stays on disk; element access skips the ``np.memmap`` subclass).
    ``release()`` drops the cached memory-mapped arrays; it is GC-safe —
    an in-flight render holding a matrix keeps that mapping alive until
    the array is collected, so eviction never invalidates live readers.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        manifest_path = os.path.join(path, MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise DatabaseError(f"no such database: {path}") from None
        except (OSError, ValueError) as exc:
            raise DatabaseError(f"cannot read store manifest {path}: {exc}"
                                ) from None
        if manifest.get("format") != "rpstore":
            raise DatabaseError(f"{path}: not a column store manifest")
        if manifest.get("version") != STORE_VERSION:
            raise DatabaseError(
                f"{path}: unsupported store version {manifest.get('version')}"
            )
        try:
            self.name = str(manifest["name"])
            self.nnodes = int(manifest["nnodes"])
            self.num_metrics = int(manifest["num_metrics"])
            self.nranks = int(manifest["nranks"])
            self.rank_mids = [int(m) for m in manifest["rank_mids"]]
            self.summary_ids = {
                int(mid): SummaryIds(*ids)
                for mid, ids in manifest["summaries"].items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise DatabaseError(f"{path}: malformed store manifest: {exc!r}"
                                ) from None
        self.manifest = manifest
        self._matrices: tuple[np.ndarray, ...] | None = None
        self._rank_maps: dict[tuple[int, str], np.ndarray] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def skeleton_path(self) -> str:
        return os.path.join(self.path, SKELETON_NAME)

    @property
    def closed(self) -> bool:
        return self._closed

    def _open_map(self, rel: str, shape: tuple[int, int]) -> np.ndarray:
        full = os.path.join(self.path, rel)
        expected = shape[0] * shape[1] * _DTYPE.itemsize
        try:
            actual = os.path.getsize(full)
        except OSError:
            raise DatabaseError(f"corrupt store {self.path}: missing {rel}"
                                ) from None
        if actual != expected:
            raise DatabaseError(
                f"corrupt store {self.path}: {rel} is {actual} bytes, "
                f"expected {expected}"
            )
        return np.memmap(full, dtype=_DTYPE, mode="r",
                         shape=shape).view(np.ndarray)

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three read-only mmap engine matrices (raw, incl, excl)."""
        if self._closed:
            raise DatabaseError(f"store {self.path} is closed")
        if self._matrices is None:
            shape = (self.nnodes, self.num_metrics)
            self._matrices = tuple(
                self._open_map(os.path.join(_COLUMNS_DIR, f"{name}.f64"),
                               shape)
                for name in _MATRIX_NAMES
            )
        return self._matrices  # type: ignore[return-value]

    def rank_matrix(self, mid: int, flavor: str) -> np.ndarray:
        """Read-only ``(nranks x nnodes)`` matrix of one metric/flavor."""
        if self._closed:
            raise DatabaseError(f"store {self.path} is closed")
        if mid not in self.rank_mids:
            raise ViewError(
                f"store holds no per-rank data for metric id {mid}"
            )
        key = (mid, flavor)
        mm = self._rank_maps.get(key)
        if mm is None:
            mm = self._open_map(_rank_file(mid, flavor),
                                (self.nranks, self.nnodes))
            self._rank_maps[key] = mm
        return mm

    def size_bytes(self) -> int:
        """Total on-disk footprint of the store's files."""
        return store_size_bytes(self.path)

    # ------------------------------------------------------------------ #
    def release(self) -> None:
        """Drop cached mappings (idempotent); the store can re-open them."""
        self._matrices = None
        self._rank_maps.clear()

    def close(self) -> None:
        """Release mappings and refuse further opens through this handle."""
        self.release()
        self._closed = True

    def __enter__(self) -> "ColumnStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StoreExperiment(Experiment):
    """An :class:`Experiment` whose bulk data stays memory-mapped.

    Behaves exactly like the in-memory experiment it was built from —
    same views, same hot paths, same rendered bytes — but:

    * the engine's matrices are the store's mmap column files (no dict
      gather, no resident matrix copy) while the experiment is
      unmutated; defining a derived metric or otherwise invalidating the
      CCT transparently falls back to the regular gathered engine;
    * :meth:`rank_vector` and :meth:`summarize` read the ``(nranks x
      nnodes)`` rank matrices instead of requiring per-rank trees;
    * :meth:`release` drops the mappings (used by server eviction).
    """

    def __init__(self, store: ColumnStore, base: Experiment) -> None:
        super().__init__(base.name, base.metrics, base.structure, base.cct)
        self.store = store
        self._base_metrics = len(base.metrics)
        self._base_version = self.cct.version
        self._row_index: dict[int, int] | None = None
        self._summaries.update(store.summary_ids)

    # ------------------------------------------------------------------ #
    @property
    def engine(self):
        if (
            not self.store.closed
            and self.cct.version == self._base_version
            and len(self.metrics) == self._base_metrics
        ):
            engine = getattr(self.cct, "_engine", None)
            if (
                engine is None
                or engine.version != self.cct.version
                or engine.num_metrics != self._base_metrics
            ):
                engine = MetricEngine(
                    self.cct, self._base_metrics, matrices=self.store.matrices()
                )
                self.cct._engine = engine
            return engine
        return Experiment.engine.fget(self)

    @property
    def nranks(self) -> int:
        return max(self.store.nranks, 1)

    def _rows(self) -> dict[int, int]:
        if self._row_index is None:
            self._row_index = {
                node.uid: row for row, node in enumerate(self.cct.walk())
            }
        return self._row_index

    # ------------------------------------------------------------------ #
    def rank_vector(self, node_or_uid, metric: str) -> np.ndarray:
        if self.store.closed:
            raise ViewError("store is closed; per-rank data unavailable")
        mid = self.metric_id(metric)
        if isinstance(node_or_uid, int):
            uids = {node_or_uid}
        elif isinstance(node_or_uid, ViewNode):
            cct_nodes = [
                n for n in node_or_uid.cct_nodes if isinstance(n, CCTNode)
            ]
            if not cct_nodes:
                raise ViewError(
                    f"row {node_or_uid.name!r} maps to no CCT scope"
                )
            uids = {n.uid for n in cct_nodes}
        else:
            uids = {node_or_uid.uid}
        matrix = self.store.rank_matrix(mid, "inclusive")
        rows = self._rows()
        out = np.zeros(self.store.nranks)
        for uid in uids:
            row = rows.get(uid)
            if row is not None:
                out += np.asarray(matrix[:, row], dtype=np.float64)
        return out

    def summarize(self, metric: str) -> SummaryIds:
        """Summary columns for *metric* (Section IV finalization).

        Columns baked in at merge time are returned directly; otherwise
        they are computed on demand from the store's rank matrices, one
        rank row at a time, by the same accumulator the bounded merge
        steps — never materializing the full matrix.
        """
        mid = self.metric_id(metric)
        ids = self._summaries.get(mid)
        if ids is None:
            rows = zip(*[self.store.rank_matrix(mid, flavor)
                         for flavor in FLAVORS])
            ids = summarize_rows(self.cct, self.metrics, [mid], rows)[mid]
            self._summaries[mid] = ids
        return ids

    # ------------------------------------------------------------------ #
    def release(self) -> None:
        """Drop the store's mappings (server eviction hook)."""
        engine = getattr(self.cct, "_engine", None)
        if engine is not None and engine.num_metrics == self._base_metrics:
            self.cct._engine = None
        self.store.release()

    def close(self) -> None:
        self.release()
        self.store.close()


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def create_store(
    experiment: Experiment, path: str, overwrite: bool = False
) -> "StoreExperiment":
    """Persist an in-memory experiment as a store and re-open it.

    Everything already attached to the experiment — summary columns,
    per-rank trees — is preserved: summaries ride along in the skeleton,
    and per-rank inclusive/exclusive values become rank matrices.
    """
    if not len(experiment.metrics):
        raise DatabaseError("cannot build a store for a metric-less experiment")
    from repro.hpcprof import binio

    engine = experiment.engine
    writer = StoreWriter(path, overwrite=overwrite)
    skeleton_bytes = writer.write_skeleton(binio.dumps_binary(experiment))
    writer.write_matrices((engine.raw, engine.inclusive, engine.exclusive))
    nodes = engine.nodes
    rank_mids: list[int] = []
    if experiment.rank_ccts:
        rank_mids = [d.mid for d in experiment.metrics
                     if d.kind is MetricKind.RAW]
        nranks = len(experiment.rank_ccts)
        maps = [
            writer.create_rank_matrix(mid, flavor, nranks, len(nodes))
            for mid in rank_mids for flavor in FLAVORS
        ]
        rows = rank_rows(experiment.cct, experiment.rank_ccts, rank_mids,
                         FLAVORS)
        for rank, row in enumerate(rows):
            for mm, x in zip(maps, row):
                mm[rank, :] = x
        for mm in maps:
            mm.flush()
        del maps
    writer.finish(
        name=experiment.name,
        nnodes=len(nodes),
        num_metrics=len(experiment.metrics),
        nranks=experiment.nranks,
        rank_mids=rank_mids,
        summaries=experiment._summaries,
        extra={"skeleton_bytes": skeleton_bytes},
    )
    return open_store(path)


def open_store(path: str) -> StoreExperiment:
    """Open a store directory as a live (mmap-backed) experiment.

    One pass over the skeleton and one engine: the skeleton is decoded
    (metric ids checked per record) but not attributed on its own; the
    engine over the mapped column files attributes it with its kernels,
    the result is checked against the mapped ``raw``, ``inclusive`` and
    ``exclusive`` columns (stored summary overlays included), and only
    then scattered into the node dicts.  A column file that disagrees
    with its skeleton is a :class:`DatabaseError` naming the file.
    """
    from repro.hpcprof import binio

    store = ColumnStore(path)
    with span("store.decode-skeleton"):
        with binio.StreamingDatabase(store.skeleton_path) as db:
            offsets: list[int] = []
            name, metrics, model, cct, stored, count = db.decode(offsets)
            raw, overlays = binio.record_values(db.buffer, offsets)
    if count != store.nnodes or len(metrics) != store.num_metrics:
        raise DatabaseError(
            f"corrupt store {path}: skeleton has {count} scopes / "
            f"{len(metrics)} metrics, manifest declares "
            f"{store.nnodes} / {store.num_metrics}"
        )
    engine = MetricEngine(cct, store.num_metrics, matrices=store.matrices())
    with span("store.verify-columns"):
        inclusive, exclusive = _verified_attribution(store, engine, raw,
                                                     overlays)
    with span("store.scatter"):
        if count >= COLUMNAR_MIN_NODES:
            engine.scatter(inclusive, exclusive)
        else:
            attribute_dicts(cct)  # the key order attribute() gives a small tree
        binio.apply_summaries(cct, stored)
    cct.invalidate_caches()
    engine.version = cct.version
    cct._engine = engine
    return StoreExperiment(store, Experiment(name, metrics, model, cct))


def _verified_attribution(store: ColumnStore, engine: MetricEngine, raw,
                          overlays) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 1/2 of the skeleton's raw values, checked against the columns.

    *raw* and *overlays* are the skeleton's records as
    :func:`~repro.hpcprof.binio.record_values` returns them.  Returns
    the attributed ``(inclusive, exclusive)`` matrices, without the
    summary overlays (the node dicts take those separately).
    """
    expected = np.zeros_like(engine.raw)
    rows, entries = raw
    _assign(expected, rows, entries["mid"], entries["value"])
    _check_column(store, "raw", expected, engine.raw)
    inclusive, exclusive = engine.compute_attribution()
    rows, entries = overlays
    inner = entries["flavor"] != 0
    for name, attributed, mask in (("inclusive", inclusive, ~inner),
                                   ("exclusive", exclusive, inner)):
        expected = attributed.copy()
        picked = entries[mask]
        _assign(expected, rows[mask], picked["mid"], picked["value"])
        _check_column(store, name, expected, getattr(engine, name))
    return inclusive, exclusive


def _assign(matrix: np.ndarray, rows: np.ndarray, mids: np.ndarray,
            values: np.ndarray) -> None:
    """``matrix[rows, mids] = values``, a repeated cell keeping its last
    value as a dict would (stream order is row-major, so unique cells
    arrive strictly increasing and need no sort)."""
    key = rows * matrix.shape[1] + mids
    keep = slice(None)
    if len(key) > 1 and not (np.diff(key) > 0).all():
        _, last = np.unique(key[::-1], return_index=True)
        keep = len(key) - 1 - last
    matrix[rows[keep], mids[keep]] = values[keep]


def _check_column(store: ColumnStore, name: str, expected: np.ndarray,
                  mapped: np.ndarray) -> None:
    if not np.array_equal(expected, mapped, equal_nan=True):
        rows = np.flatnonzero(
            ~((expected == mapped) | (np.isnan(expected) & np.isnan(mapped)))
            .all(axis=1)
        )
        raise DatabaseError(
            f"corrupt store {store.path}: {_COLUMNS_DIR}/{name}.f64 disagrees "
            f"with the skeleton at {len(rows)} row(s), first row {rows[0]}"
        )
