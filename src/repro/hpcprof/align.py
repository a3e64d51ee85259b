"""N-way structural alignment of experiments into a union CCT.

Where :func:`~repro.hpcprof.merge.merge_rank_files` unions the *ranks of
one execution* into a single profile, this module aligns *separate
executions* — an ensemble of runs of the same program (nightly builds,
configuration sweeps, scaling studies) — into one supergraph.  Both go
through the same array union reducer
(:class:`~repro.hpcprof.merge._Reducer`):

* every member's scopes are united into a fresh canonical
  :class:`~repro.hpcstruct.model.StructureModel` by structural key
  (kind, name, file, line), so members built from independently loaded
  databases align by *what* each scope is, tolerant of missing or extra
  subtrees (the union simply contains them all);
* each member becomes preorder arrays, and one keyed pass gives each of
  its rows a union id; the union CCT's raw values are the member sums
  (re-attributed through Eq. 1/2, so the union renders like any
  experiment);
* each member's per-scope values — Eq. 1/2 over its own arrays — become
  one row of a columnar ``(n_members x n_union_nodes)`` matrix per
  (metric, flavor): the raw material for ensemble statistics, pairwise
  diffs, and regression detection in :mod:`repro.core.ensemble`.

Members may be in-memory :class:`~repro.hpcprof.experiment.Experiment`
objects or paths (``.xml`` / ``.rpdb`` / ``.rpstore``).  Each path is
decoded exactly once: a ``.rpdb`` straight into arrays, a ``.rpstore``
through its opened engine, closed as soon as its arrays are taken so
its file descriptors go back at once.  A hundred-profile ensemble never
holds more than one member's arrays (or one member's spilled values)
plus the union skeleton and the matrices, checked against the same
working-set budget as the rank merge.  Member experiments are never
mutated: the canonical model, the metric table and the union tree are
built fresh, and structure matching only grows the canonical side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.cct import CCTNode
from repro.core.metrics import MetricKind, MetricTable
from repro.errors import MetricError
from repro.hpcprof.merge import (
    DEFAULT_WORKING_SET,
    _metric_signature,
    _Reducer,
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


def align_members(
    members: Sequence,
    *,
    name: str = "ensemble",
    working_set_bytes: int = DEFAULT_WORKING_SET,
    strict: bool = True,
) -> Alignment:
    """Align N experiments (objects or paths) into one :class:`Alignment`.

    The union reducer shared with
    :func:`~repro.hpcprof.merge.merge_rank_files` keys every member
    into a union tree over a fresh canonical model (raw sums, then one
    Eq. 1/2 attribution pass) and yields each member's
    raw/inclusive/exclusive values, which become that member's row of
    the per-metric matrices.

    Path members are decoded exactly once, one at a time, so the
    working set is one member's arrays (or spilled values) plus the union
    skeleton and the matrices — checked against *working_set_bytes*,
    failing loudly when exceeded.  All members must carry the same RAW
    metric signature (:class:`~repro.errors.MetricError` otherwise).
    Unlike the rank merge, multi-rank members are welcome: alignment
    reads the combined tree, whatever produced it.
    """
    from repro.hpcprof.experiment import Experiment

    members = list(members)
    if len(members) < 2:
        raise MetricError(
            f"need at least two experiments to align, got {len(members)}"
        )
    names: list[str] = []

    def admit(i: int, exp) -> None:
        if _metric_signature(exp.metrics) != reducer.signature:
            raise MetricError(
                f"cannot align member {i} ({exp.name!r}): metric "
                f"table differs from member 0 ({names[0]!r})"
            )
        names.append(exp.name or f"member-{i}")

    with _Reducer(FLAVORS, working_set_bytes,
                  model=StructureModel(name)) as reducer:
        reducer.graft(members, admit, strict=strict)
        n = len(reducer.nodes)
        matrices = {
            key: np.empty((len(members), n)) for key in reducer.columns
        }
        matrix_bytes = len(matrices) * len(members) * n * 8
        for i, rows in enumerate(reducer.rows(matrix_bytes)):
            for matrix, row in zip(matrices.values(), rows):
                matrix[i] = row

    metrics = reducer.metrics
    mids = [d.mid for d in metrics if d.kind is MetricKind.RAW]
    union = reducer.tree
    report = AlignmentReport(
        n_members=len(members),
        nnodes=n,
        num_metrics=len(mids),
        matrix_bytes=matrix_bytes,
        working_set_bytes=working_set_bytes,
        peak_estimate_bytes=reducer.peak,
    )
    return Alignment(
        names=names,
        union=Experiment(name, metrics, union.structure, union),
        nodes=reducer.nodes,
        mids=mids,
        matrices=matrices,
        pristine_metrics=metrics.copy(),
        report=report,
    )
