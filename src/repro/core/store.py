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

import numpy as np

from repro.core.cct import CCTNode
from repro.core.engine import MetricEngine
from repro.core.metrics import MetricKind
from repro.core.views import ViewNode
from repro.errors import DatabaseError, ViewError
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.summarize import (
    SummaryIds,
    apply_summary_stats,
    register_summary_ids,
)

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

    The manifest is written last, so a crashed or aborted build leaves a
    directory that :func:`is_store_path` rejects rather than a store
    that opens half-populated.
    """

    def __init__(self, path: str, overwrite: bool = False) -> None:
        self.path = path
        if os.path.exists(path):
            if not overwrite:
                raise DatabaseError(
                    f"store path already exists: {path} (pass overwrite)"
                )
            if os.path.isfile(path) or not (
                is_store_path(path) or not os.listdir(path)
            ):
                # refuse to clobber anything that is not a store we own
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

    # ------------------------------------------------------------------ #
    def write_skeleton(self, experiment: Experiment) -> int:
        from repro.hpcprof import binio

        data = binio.dumps_binary(experiment)
        with open(os.path.join(self.path, SKELETON_NAME), "wb") as fh:
            fh.write(data)
        return len(data)

    def write_matrices(self, engine: MetricEngine) -> None:
        """Persist the engine's three matrices as raw column files."""
        for name, matrix in zip(
            _MATRIX_NAMES, (engine.raw, engine.inclusive, engine.exclusive)
        ):
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

    def summarize(self, metric: str, max_workers: int | None = None
                  ) -> SummaryIds:
        """Summary columns for *metric* (Section IV finalization).

        Columns baked in at merge time are returned directly; otherwise
        they are computed on demand from the store's rank matrices by
        the same sequential Welford recurrence the bounded merge uses,
        one rank row at a time — never materializing the full matrix.
        """
        mid = self.metric_id(metric)
        ids = self._summaries.get(mid)
        if ids is not None:
            return ids
        del max_workers  # the store path is already out-of-core
        matrix_incl = self.store.rank_matrix(mid, "inclusive")
        matrix_excl = self.store.rank_matrix(mid, "exclusive")
        nodes = list(self.cct.walk())
        ids = register_summary_ids(self.metrics, mid)
        for flavor, matrix in (
            ("inclusive", matrix_incl), ("exclusive", matrix_excl)
        ):
            stats, mask = _streaming_moments(matrix)
            apply_summary_stats(nodes, flavor, ids, stats, mask)
        self.cct.invalidate_caches()
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


def _streaming_moments(matrix: np.ndarray):
    """Sequential per-node Welford over rank rows, one row resident.

    Bit-identical to ``_welford_chunk`` on the dense transpose — the
    parity contract between the store, the bounded merge, and the
    in-memory reference (``summarize_ranks_exact``).
    """
    nranks, nnodes = matrix.shape
    mean = np.zeros(nnodes)
    m2 = np.zeros(nnodes)
    minimum = np.full(nnodes, np.inf)
    maximum = np.full(nnodes, -np.inf)
    nonzero = np.zeros(nnodes, dtype=bool)
    for r in range(nranks):
        x = np.asarray(matrix[r], dtype=np.float64)
        delta = x - mean
        mean = mean + delta / (r + 1)
        m2 = m2 + delta * (x - mean)
        minimum = np.minimum(minimum, x)
        maximum = np.maximum(maximum, x)
        nonzero |= x != 0.0
    return (nranks, mean, m2, minimum, maximum), nonzero


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
    engine = experiment.engine
    writer = StoreWriter(path, overwrite=overwrite)
    skeleton_bytes = writer.write_skeleton(experiment)
    writer.write_matrices(engine)
    nodes = engine.nodes
    rank_mids: list[int] = []
    if experiment.rank_ccts:
        from repro.hpcprof.merge import _walk_aligned

        index = {node.uid: row for row, node in enumerate(nodes)}
        nranks = len(experiment.rank_ccts)
        for desc in experiment.metrics:
            if desc.kind is not MetricKind.RAW:
                continue
            rank_mids.append(desc.mid)
            for flavor in ("inclusive", "exclusive"):
                mm = writer.create_rank_matrix(
                    desc.mid, flavor, nranks, len(nodes)
                )

                def sink(cnode, rnode, rank, _mm=mm, _mid=desc.mid,
                         _flavor=flavor):
                    values = getattr(rnode, _flavor)
                    value = values.get(_mid, 0.0)
                    if value != 0.0:
                        _mm[rank, index[cnode.uid]] += value

                for rank, cct in enumerate(experiment.rank_ccts):
                    _walk_aligned(experiment.cct.root, cct.root, rank, sink)
                mm.flush()
                del mm
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
    """Open a store directory as a live (mmap-backed) experiment."""
    from repro.hpcprof import binio

    store = ColumnStore(path)
    base = binio.read_binary_streaming(store.skeleton_path)
    if len(base.cct) != store.nnodes or len(base.metrics) != store.num_metrics:
        raise DatabaseError(
            f"corrupt store {path}: skeleton has {len(base.cct)} scopes / "
            f"{len(base.metrics)} metrics, manifest declares "
            f"{store.nnodes} / {store.num_metrics}"
        )
    return StoreExperiment(store, base)
