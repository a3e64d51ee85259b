"""N-way structural alignment of experiments into a union CCT.

Where :mod:`repro.hpcprof.merge` unions the *ranks of one execution*
into a single profile, this module aligns *separate executions* — an
ensemble of runs of the same program (nightly builds, configuration
sweeps, scaling studies) — into one supergraph:

* every member's scopes are united into a fresh canonical
  :class:`~repro.hpcstruct.model.StructureModel` by structural key
  (kind, name, file, line), so members built from independently loaded
  databases align by *what* each scope is, tolerant of missing or extra
  subtrees (the union simply contains them all);
* the union CCT's raw values are the member sums (re-attributed through
  Eq. 1/2, so the union renders like any experiment);
* each member's per-scope values become one row of a columnar
  ``(n_members x n_union_nodes)`` matrix per (metric, flavor) — the
  raw material for ensemble statistics, pairwise diffs, and regression
  detection in :mod:`repro.core.ensemble`.

Members may be in-memory :class:`~repro.hpcprof.experiment.Experiment`
objects or paths (``.xml`` / ``.rpdb`` / ``.rpstore``).  Each path is
decoded exactly once, in the graft pass, which records the member's
values beside the union nodes they land on; the measure pass scatters
those records into the matrices.  A hundred-profile ensemble never
holds more than one decoded member (or one member's record) plus the
union skeleton and the matrices, checked against the same working-set
budget as :func:`~repro.hpcprof.merge.merge_rank_files`.
Member experiments are never mutated: the canonical model and the union
tree are built fresh, and structure grafting only grows the canonical
side.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.attribution import attribute
from repro.core.cct import CCT, CCTNode
from repro.core.metrics import MetricKind, MetricTable
from repro.errors import MetricError
from repro.hpcprof.merge import (
    DEFAULT_WORKING_SET,
    _DECODE_EXPANSION,
    _NODE_COST,
    _budget_check,
    _graft_mapped,
    _GraftRecords,
    _metric_signature,
    map_structure,
)
from repro.hpcstruct.model import StructureModel

__all__ = [
    "Alignment",
    "AlignmentReport",
    "FLAVORS",
    "align_members",
]

#: per-node value projections collected for every RAW metric
FLAVORS = ("raw", "inclusive", "exclusive")


@dataclass(frozen=True)
class AlignmentReport:
    """What :func:`align_members` built, and how big it got."""

    n_members: int
    nnodes: int
    num_metrics: int
    matrix_bytes: int
    working_set_bytes: int
    peak_estimate_bytes: int

    def summary(self) -> str:
        return (
            f"aligned {self.n_members} experiment(s): "
            f"{self.nnodes} union scopes, {self.num_metrics} raw metric(s), "
            f"matrices {self.matrix_bytes / 1024:.1f} KiB, "
            f"peak working set ~{self.peak_estimate_bytes / 1048576:.1f} MiB "
            f"(budget {self.working_set_bytes / 1048576:.0f} MiB)"
        )

    def to_payload(self) -> dict:
        return {
            "n_members": self.n_members,
            "union_scopes": self.nnodes,
            "raw_metrics": self.num_metrics,
            "matrix_bytes": self.matrix_bytes,
            "working_set_bytes": self.working_set_bytes,
            "peak_estimate_bytes": self.peak_estimate_bytes,
        }


class Alignment:
    """The union of N experiments plus their columnar value matrices.

    * ``union`` — an :class:`~repro.hpcprof.experiment.Experiment` over
      the union CCT (raw values = member sums, re-attributed), with its
      own metric table — attaching columns to it never touches a member;
    * ``nodes`` — the union tree in preorder (row order of every
      matrix; row 0 is the root);
    * ``matrices[(mid, flavor)]`` — float64 ``(n_members, nnodes)``,
      one row per member in input order, with 0 where a member lacks
      the scope (sparse semantics);
    * ``pristine_metrics`` — the member metric table as aligned, before
      any ensemble columns; diff experiments are built from copies of
      it so diff tables never carry stats columns.
    """

    def __init__(
        self,
        names: list[str],
        union,
        nodes: list[CCTNode],
        mids: list[int],
        matrices: dict[tuple[int, str], np.ndarray],
        pristine_metrics: MetricTable,
        report: AlignmentReport,
    ) -> None:
        self.names = names
        self.union = union
        self.nodes = nodes
        self.rows = {node.uid: row for row, node in enumerate(nodes)}
        self.mids = mids
        self.matrices = matrices
        self.pristine_metrics = pristine_metrics
        self.report = report

    @property
    def n_members(self) -> int:
        return len(self.names)

    @property
    def nnodes(self) -> int:
        return len(self.nodes)

    def matrix(self, mid: int, flavor: str = "inclusive") -> np.ndarray:
        """The ``(n_members, nnodes)`` matrix of one metric projection.

        The returned array is the alignment's own storage — treat it as
        read-only.
        """
        if flavor not in FLAVORS:
            raise MetricError(
                f"unknown flavor {flavor!r} (have: {', '.join(FLAVORS)})"
            )
        try:
            return self.matrices[(mid, flavor)]
        except KeyError:
            raise MetricError(
                f"metric id {mid} is not a raw metric of this alignment"
            ) from None


def _load_member(source, strict: bool = True):
    """Resolve one member into ``(experiment, release, file_bytes)``.

    Strings are paths — ``.rpstore`` directories open as mmap-backed
    store experiments (released after use), ``RPDB`` files go through
    the streaming reader when strict, and anything else (XML, salvage
    loads) through the eager loader; everything else is taken to be an
    in-memory experiment and passed through untouched.  Unlike the rank
    merge, multi-rank members are welcome: alignment reads the combined
    tree, whatever produced it.
    """
    if not isinstance(source, (str, os.PathLike)):
        return source, None, 0
    path = os.fspath(source)
    from repro.core.store import is_store_path, open_store

    if is_store_path(path):
        # alignment owns this short-lived store outright, so *close* it
        # rather than merely releasing caches: release leaves the dup'd
        # mmap fds alive until the CCT's parent/child reference cycles
        # are garbage-collected, and a close/eviction sweep must not
        # depend on GC timing to give file descriptors back
        exp = open_store(path)
        return exp, exp.close, 0
    from repro.hpcprof import binio, database

    if strict:
        try:
            with open(path, "rb") as fh:
                magic = fh.read(4)
        except OSError:
            magic = b""  # let database.load raise its canonical error
        if magic == b"RPDB":
            return (
                binio.read_binary_streaming(path), None,
                os.path.getsize(path),
            )
    exp = database.load(path, strict=strict)
    size = os.path.getsize(path) if os.path.isfile(path) else 0
    return exp, None, size


def align_members(
    members: Sequence,
    *,
    name: str = "ensemble",
    working_set_bytes: int = DEFAULT_WORKING_SET,
    strict: bool = True,
) -> Alignment:
    """Align N experiments (objects or paths) into one :class:`Alignment`.

    Two passes over the member list, sharing
    :func:`~repro.hpcprof.merge.merge_rank_files`'s reducer:

    1. **graft** — each member's structure is united into a fresh
       canonical model and its CCT grafted into the union tree (raw
       sums), recording the member's per-scope raw/inclusive/exclusive
       values beside the union nodes (spilled to a temporary file);
       then one Eq. 1/2 attribution pass;
    2. **measure** — each member's record is scattered into one row of
       the per-metric matrices.

    Path members are decoded exactly once, one at a time, so the
    working set is one member (or one member's record) plus the union
    skeleton and the matrices — checked against *working_set_bytes*,
    failing loudly when exceeded.  All members must carry the same RAW
    metric signature (:class:`~repro.errors.MetricError` otherwise).
    """
    from repro.hpcprof.experiment import Experiment
    from repro.obs.spans import span

    members = list(members)
    if len(members) < 2:
        raise MetricError(
            f"need at least two experiments to align, got {len(members)}"
        )

    canonical = StructureModel(name)
    union = CCT(canonical)
    metrics: MetricTable | None = None
    signature: tuple | None = None
    records: _GraftRecords | None = None
    names: list[str] = []
    union_nodes = 1
    max_file = 0
    peak = 0

    try:
        # pass 1: graft every member into the union skeleton, recording
        # its values on the way
        with span("hpcprof.reduce.graft"):
            for i, source in enumerate(members):
                exp, release, nbytes = _load_member(source, strict=strict)
                try:
                    if metrics is None:
                        metrics = exp.metrics.copy()
                        signature = _metric_signature(metrics)
                        records = _GraftRecords(
                            [d.mid for d in metrics
                             if d.kind is MetricKind.RAW],
                            FLAVORS,
                        )
                    elif _metric_signature(exp.metrics) != signature:
                        raise MetricError(
                            f"cannot align member {i} ({exp.name!r}): metric "
                            f"table differs from member 0 ({names[0]!r})"
                        )
                    names.append(exp.name or f"member-{i}")
                    mapping = map_structure(canonical, exp.structure)
                    union_nodes += _graft_mapped(
                        union.root, exp.cct.root, mapping, records
                    )
                    records.commit()
                finally:
                    if release is not None:
                        release()
                del exp
                max_file = max(max_file, nbytes)
                estimate = (
                    union_nodes * _NODE_COST
                    + max_file * _DECODE_EXPANSION
                    + records.max_bytes
                )
                peak = max(peak, estimate)
                _budget_check(estimate, working_set_bytes, "align")
            attribute(union)

        # pass 2: scatter each member's record into its matrix rows
        with span("hpcprof.reduce.measure"):
            nodes = list(union.walk())
            n = len(nodes)
            mids = [d.mid for d in metrics if d.kind is MetricKind.RAW]
            matrices = {
                key: np.zeros((len(members), n)) for key in records.columns
            }
            matrix_bytes = len(matrices) * len(members) * n * 8
            estimate = n * _NODE_COST + matrix_bytes + records.max_bytes
            peak = max(peak, estimate)
            _budget_check(estimate, working_set_bytes, "measure")

            records.index(nodes)
            for i in range(len(members)):
                records.scatter(
                    i, [matrices[key][i] for key in records.columns]
                )
    finally:
        if records is not None:
            records.close()

    union_exp = Experiment(name, metrics, canonical, union)
    report = AlignmentReport(
        n_members=len(members),
        nnodes=n,
        num_metrics=len(mids),
        matrix_bytes=matrix_bytes,
        working_set_bytes=working_set_bytes,
        peak_estimate_bytes=peak,
    )
    return Alignment(
        names=names,
        union=union_exp,
        nodes=nodes,
        mids=mids,
        matrices=matrices,
        pristine_metrics=metrics.copy(),
        report=report,
    )
