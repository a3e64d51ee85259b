"""Reference implementations the production kernels are checked against.

These are the straightforward per-row forms that the batched kernels
replaced; tests compare the two ``float.hex`` by ``float.hex``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from repro.core.hotpath import DEFAULT_THRESHOLD, HotPathResult, hot_path_generic


def per_row_exposed(engine, instances):
    """Exposed-instance ``(inclusive, exclusive)`` of one group, per row.

    Distinct rows sorted; a row is exposed iff it falls outside the most
    recent exposed row's subtree.  The exposed rows are then summed in
    input order into zero vectors (a row listed twice counts twice).
    """
    rows = [engine.row_of(node) for node in instances]
    exposed = set()
    cover = -1
    for row in sorted(set(rows)):
        if row >= cover:
            exposed.add(row)
            cover = engine.subtree_end[row]
    incl = np.zeros(engine.num_metrics)
    excl = np.zeros(engine.num_metrics)
    for row in rows:
        if row in exposed:
            incl += engine.inclusive[row]
            excl += engine.exclusive[row]
    return _sparse(incl), _sparse(excl)


def _sparse(vector):
    (mids,) = np.nonzero(vector)
    return {int(mid): float(vector[mid]) for mid in mids}


def level_exposed(engine, groups):
    """The production level kernel over CCT instance *groups*."""
    rows, offsets = [], [0]
    for group in groups:
        rows.extend(engine.row_of(node) for node in group)
        offsets.append(len(rows))
    return engine.aggregate_exposed(rows, offsets)


def hot_path_cct(start, mid, threshold=DEFAULT_THRESHOLD) -> HotPathResult:
    """Eq. 3 straight over CCT scopes, by inclusive value of metric *mid*."""
    return hot_path_generic(
        start,
        value_fn=lambda n: n.inclusive.get(mid, 0.0),
        children_fn=lambda n: n.children,
        threshold=threshold,
    )


@dataclass
class Moments:
    """Scalar Welford statistics over a stream of values, plus the exact
    parallel combination (Chan et al.) — the oracle for the per-row
    accumulator :class:`repro.hpcprof.summarize.RowMoments`."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, x: float) -> None:
        """Welford online update with one value."""
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        self.minimum = min(self.minimum, x)
        self.maximum = max(self.maximum, x)

    def merge(self, other: "Moments") -> "Moments":
        """Fold *other* in: same count/mean/M2 as one stream, up to rounding."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        n = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / n
        self.mean = (self.count * self.mean + other.count * other.mean) / n
        self.count = n
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @property
    def variance(self) -> float:
        """Population variance (0 for fewer than 2 values)."""
        return self.m2 / self.count if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def total(self) -> float:
        return self.mean * self.count

    @classmethod
    def of(cls, values: Iterable[float]) -> "Moments":
        m = cls()
        for x in values:
            m.add(x)
        return m


# --------------------------------------------------------------------- #
# the node-by-node union reducer the array reducer replaced
# --------------------------------------------------------------------- #
def graft_mapped(dst, src, mapping, sink=None) -> int:
    """Union *src*'s subtree into *dst*, matching scopes through a
    structure mapping and summing raw costs with ``add_into``.

    Node creation happens in child order; *sink*, when given, is called
    as ``sink(union_node, member_node)`` for every member node in visit
    order.  Returns the number of union nodes created.
    """
    from repro.core.cct import CCTNode
    from repro.core.metrics import add_into

    created = 0
    stack = [(dst, src)]
    while stack:
        dnode, snode = stack.pop()
        add_into(dnode.raw, snode.raw)
        if sink is not None:
            sink(dnode, snode)
        for child in snode.children:
            struct = (
                mapping[child.struct.uid] if child.struct is not None else None
            )
            key = (
                child.kind.value,
                struct.uid if struct is not None else 0,
                child.line,
            )
            mine = dnode._child_index.get(key)
            if mine is None:
                mine = CCTNode(
                    child.kind, struct=struct, line=child.line, parent=dnode
                )
                created += 1
            stack.append((mine, child))
    return created


class GraftRecords:
    """Member values captured beside the union node each member node
    lands on, per column ``(mid, flavor)``; :meth:`rows` scatters them
    into rows over the union's preorder with :func:`numpy.add.at`."""

    def __init__(self, mids, flavors) -> None:
        import operator

        self.columns = [(mid, flavor) for mid in mids for flavor in flavors]
        self._getters = [(operator.attrgetter(flavor), mid)
                         for mid, flavor in self.columns]
        self.width = len(self.columns)
        self._members: list[tuple[list[int], list[float]]] = []
        self._uids: list[int] = []
        self._values: list[float] = []
        #: bytes of the largest member record so far
        self.max_bytes = 0

    def __call__(self, unode, mnode) -> None:
        self._uids.append(unode.uid)
        for get, mid in self._getters:
            self._values.append(get(mnode).get(mid, 0.0))

    def commit(self) -> None:
        k = len(self._uids)
        self._members.append((self._uids, self._values))
        self._uids, self._values = [], []
        self.max_bytes = max(self.max_bytes, k * (8 + 8 * self.width))

    def rows(self, nodes):
        """Each member's rows over *nodes*: one fresh float64 array per
        column, zeros skipped."""
        row_of = {node.uid: row for row, node in enumerate(nodes)}
        for uids, values in self._members:
            rows = np.array([row_of[uid] for uid in uids], dtype=np.int64)
            values = np.array(values).reshape(len(uids), self.width)
            out = []
            for j in range(self.width):
                column = values[:, j]
                nonzero = column != 0.0
                row = np.zeros(len(nodes))
                np.add.at(row, rows[nonzero], column[nonzero])
                out.append(row)
            yield out


def _oracle_load(source, strict: bool = True):
    """``(experiment, release, file bytes)`` as the node-by-node reducer
    loaded its members."""
    import os

    from repro.core.store import StoreExperiment
    from repro.hpcprof import database

    if not isinstance(source, (str, os.PathLike)):
        return source, None, 0
    exp = database.load(os.fspath(source), strict=strict, out_of_core=True)
    if isinstance(exp, StoreExperiment):
        return exp, exp.close, 0
    return exp, None, os.path.getsize(source)


def oracle_reduce(sources, flavors, model=None, strict: bool = True):
    """The node-by-node union of *sources*.

    Returns a namespace: the union ``tree``, its ``metrics`` table, its
    preorder ``nodes``, the ``columns`` ``(mid, flavor)``, each member's
    ``rows`` (one array per column), the member ``names``, the graft
    stage's working-set estimate ``peak`` and the largest member
    ``record``, both in bytes.  *model* is the union's structure model;
    by default a fresh model rooted like the first member's.
    """
    from repro.core.attribution import attribute
    from repro.core.cct import CCT
    from repro.core.metrics import MetricKind
    from repro.hpcprof.merge import map_structure
    from repro.hpcstruct.model import StructureModel

    tree = metrics = records = None
    union_nodes, max_file, peak = 1, 0, 0
    names = []
    for source in sources:
        exp, release, nbytes = _oracle_load(source, strict)
        names.append(exp.name)
        try:
            if tree is None:
                if model is None:
                    model = StructureModel(exp.structure.name)
                    root = exp.structure.root
                    model.root.name = root.name
                    model.root.location = root.location
                    model.root.calls = root.calls
                tree = CCT(model)
                metrics = exp.metrics.copy()
                records = GraftRecords(
                    [d.mid for d in metrics if d.kind is MetricKind.RAW],
                    flavors)
            mapping = map_structure(tree.structure, exp.structure)
            union_nodes += graft_mapped(tree.root, exp.cct.root, mapping,
                                        records)
            records.commit()
        finally:
            if release is not None:
                release()
        max_file = max(max_file, nbytes)
        peak = max(peak, union_nodes * 700 + max_file * 12
                   + records.max_bytes)
    attribute(tree)
    nodes = list(tree.walk())
    return SimpleNamespace(tree=tree, metrics=metrics, nodes=nodes,
                           columns=records.columns,
                           rows=list(records.rows(nodes)), names=names,
                           peak=peak, record=records.max_bytes)


def oracle_merge_rank_files(paths, out_path, name=None, summarize="all",
                            working_set_bytes=256 * 1024 * 1024):
    """:func:`repro.hpcprof.merge.merge_rank_files` over the node-by-node
    union: writes the store the array reducer must reproduce byte for
    byte."""
    from repro.core.metrics import MetricKind
    from repro.core.store import StoreWriter
    from repro.hpcprof import binio
    from repro.hpcprof.experiment import Experiment
    from repro.hpcprof.merge import _summary_mids
    from repro.hpcprof.summarize import FLAVORS, summarize_rows

    union = oracle_reduce(paths, FLAVORS)
    tree, metrics, columns, rows = (union.tree, union.metrics,
                                    union.columns, union.rows)
    n, nranks = len(union.nodes), len(paths)
    writer = StoreWriter(out_path)
    summary_mids = _summary_mids(metrics, summarize)
    picks = [columns.index((mid, flavor))
             for mid in summary_mids for flavor in FLAVORS]
    peak = max(union.peak, n * 700 + len(columns) * n * 8
               + 5 * len(picks) * n * 8 + union.record)
    maps = [writer.create_rank_matrix(mid, flavor, nranks, n)
            for mid, flavor in columns]
    for r, row in enumerate(rows):
        for mm, x in zip(maps, row):
            mm[r, :] = x
    summaries = summarize_rows(tree, metrics, summary_mids,
                               ([row[j] for j in picks] for row in rows))
    for mm in maps:
        mm.flush()
    del maps
    merged = Experiment((union.names[0] if name is None else name)
                        or "merged",
                        metrics, tree.structure, tree)
    engine = merged.engine
    skeleton_bytes = writer.write_skeleton(binio.dumps_binary(merged))
    writer.write_matrices((engine.raw, engine.inclusive, engine.exclusive))
    writer.finish(
        name=merged.name, nnodes=n, num_metrics=len(metrics),
        nranks=nranks,
        rank_mids=[d.mid for d in metrics if d.kind is MetricKind.RAW],
        summaries=summaries,
        extra={"skeleton_bytes": skeleton_bytes,
               "working_set_bytes": working_set_bytes,
               "peak_estimate_bytes": peak},
    )
