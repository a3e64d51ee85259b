"""Merging canonical CCTs across threads, ranks and experiments.

Per-rank profiles are correlated into per-rank CCTs (sharing one static
structure model); this module unions them into a single canonical CCT —
scope identity is the path of node keys — and supports two cross-
experiment analyses from the paper:

* :func:`collect_rank_vectors` — per-node vectors of one metric across all
  ranks, the raw material for load-imbalance presentation (Figure 7);
  :func:`rank_rows` yields the same values rank by rank for statistical
  summarization (:mod:`repro.hpcprof.summarize`);
* :func:`scale_and_difference` — the derived scaling-loss metric of
  Section VI-A: scale the profile of a small run and subtract it from a
  large run, attributing scaling loss to individual contexts.

Independently loaded profiles — rank databases, ensemble members — go
through one union reducer (:class:`_Reducer`): each member is loaded
once, its structure united into a canonical model by structural key,
and its CCT grafted into the union while its values are recorded beside
the union nodes they land on; afterwards each member's values come back
as rows over the union's preorder.  :func:`merge_rank_files` writes
those rows into a column store's rank matrices and summary
accumulators; :func:`repro.hpcprof.align.align_members` keeps them as
in-memory ensemble matrices.  Only one member is ever resident.
"""

from __future__ import annotations

import operator
import os
import tempfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.attribution import attribute
from repro.core.cct import CCT, CCTNode
from repro.errors import DatabaseError, MetricError
from repro.core.metrics import MetricKind, MetricTable, add_into
from repro.hpcstruct.model import StructKind, StructureModel, StructureNode

__all__ = [
    "merge_ccts",
    "collect_rank_matrix",
    "rank_rows",
    "collect_rank_vectors",
    "scale_and_difference",
    "map_structure",
    "remap_cct",
    "merge_experiments",
    "merge_rank_files",
    "MergeReport",
    "DEFAULT_WORKING_SET",
]


def _graft(dst: CCTNode, src: CCTNode) -> None:
    """Union *src*'s subtree into *dst*, summing raw costs.

    Iterative (explicit stack), so chains deeper than the interpreter
    recursion limit graft correctly.
    """
    stack = [(dst, src)]
    while stack:
        dnode, snode = stack.pop()
        add_into(dnode.raw, snode.raw)
        for child in snode.children:
            mine = dnode._child_index.get(child.key)
            if mine is None:
                mine = CCTNode(
                    child.kind, struct=child.struct, line=child.line, parent=dnode
                )
            stack.append((mine, child))


def merge_ccts(ccts: Sequence[CCT], attribute_result: bool = True) -> CCT:
    """Union CCTs (sharing one structure model) into a new tree.

    Raw costs sum; the result is re-attributed unless disabled.  Merging
    is associative and commutative up to child order — a property the
    test suite checks — because scope identity is structural.
    """
    out = CCT(ccts[0].structure if ccts else None)
    for cct in ccts:
        _graft(out.root, cct.root)
    if attribute_result:
        attribute(out)
    return out


def _walk_aligned(combined: CCTNode, rank_root: CCTNode, sink) -> None:
    """Call ``sink(combined_node, rank_node)`` for every rank-tree node
    that has a twin (same key path) in the combined tree.

    Iterative, for the same deep-chain reason as :func:`_graft`.
    """
    stack = [(combined, rank_root)]
    while stack:
        cnode, rnode = stack.pop()
        sink(cnode, rnode)
        for child in rnode.children:
            mine = cnode._child_index.get(child.key)
            if mine is not None:
                stack.append((mine, child))


def rank_rows(
    combined: CCT,
    rank_ccts: Sequence[CCT],
    mids: Sequence[int],
    flavors: Sequence[str],
):
    """Yield each rank tree's values as rows over ``combined.walk()``.

    One aligned walk per rank records every column ``(mid, flavor)`` at
    once (:class:`_GraftRecords`); then, rank by rank, one float64 row
    per column, with 0 where the rank lacks the scope.  The rows are
    reused: read each before the next step.
    """
    records = _GraftRecords(mids, flavors)
    try:
        for cct in rank_ccts:
            _walk_aligned(combined.root, cct.root, records)
            records.commit()
        yield from records.rows(list(combined.walk()))
    finally:
        records.close()


def collect_rank_matrix(
    combined: CCT,
    rank_ccts: Sequence[CCT],
    mid: int,
    inclusive: bool = True,
) -> tuple[list[CCTNode], np.ndarray]:
    """Columnar per-rank values of one metric: ``(nodes, matrix)``.

    ``matrix`` is ``(len(nodes), nranks)`` float64 with one row per
    combined-tree scope that is nonzero in at least one rank (row *i*
    belongs to ``nodes[i]``); ranks in which a scope never appeared
    contribute 0 (sparse semantics).  This is the raw material for
    load-imbalance presentation (Figure 7).
    """
    flavor = "inclusive" if inclusive else "exclusive"
    nodes = list(combined.walk())
    matrix = np.zeros((len(nodes), len(rank_ccts)))
    rows = rank_rows(combined, rank_ccts, [mid], [flavor])
    for rank, (row,) in enumerate(rows):
        matrix[:, rank] = row
    mask = np.any(matrix != 0.0, axis=1)
    kept = [node for node, keep in zip(nodes, mask.tolist()) if keep]
    return kept, matrix[mask]


def collect_rank_vectors(
    combined: CCT,
    rank_ccts: Sequence[CCT],
    mid: int,
    inclusive: bool = True,
) -> dict[int, np.ndarray]:
    """Per-node vectors of one metric across ranks.

    Dict facade over :func:`collect_rank_matrix`: returns
    ``{combined-node uid: array of length nranks}`` for every scope that
    is nonzero in at least one rank.
    """
    nodes, matrix = collect_rank_matrix(combined, rank_ccts, mid, inclusive)
    return {node.uid: matrix[row] for row, node in enumerate(nodes)}


def structural_key(node: CCTNode) -> tuple:
    """Identity of a scope that survives across structure models.

    ``CCTNode.key`` embeds structure-node uids, which only align when two
    trees share one :class:`StructureModel`; cross-experiment analyses
    (scale-and-difference between separate runs) need identity by *what*
    the scope is — kind, static scope signature, and line.
    """
    if node.struct is None:
        sig = None
    else:
        sig = (
            node.struct.kind.value,
            node.struct.name,
            node.struct.location.file,
            node.struct.location.line,
        )
    return (node.kind.value, sig, node.line)


def scale_and_difference(
    base: CCT,
    scaled_run: CCT,
    metrics: MetricTable,
    mid: int,
    factor: float,
    name: str = "scaling loss",
) -> int:
    """Attribute scaling loss to contexts (Section VI-A; Coarfa et al.).

    Registers a new raw metric on *metrics* whose per-scope raw value is
    ``raw_scaled - factor * raw_base``: the cost the larger run incurred
    beyond perfect scaling of the smaller one.  Writes values into
    *scaled_run* (matching scopes by structural identity, so the two runs
    may come from independently built structure models; scopes absent
    from the base run contribute their full cost as loss) and
    re-attributes.  Returns the new metric id.
    """
    if factor <= 0:
        raise MetricError(f"scaling factor must be positive, got {factor}")
    loss = metrics.add(name, unit=metrics.by_id(mid).unit, description=(
        f"scaling loss = {metrics.by_id(mid).name} - {factor} x base run"
    ))

    base_raw: dict[tuple, float] = {}

    stack: list[tuple[CCTNode, tuple]] = [(base.root, ())]
    while stack:
        node, path = stack.pop()
        key = path + (structural_key(node),)
        if mid in node.raw:
            base_raw[key] = base_raw.get(key, 0.0) + node.raw[mid]
        stack.extend((child, key) for child in node.children)

    stack = [(scaled_run.root, ())]
    while stack:
        node, path = stack.pop()
        key = path + (structural_key(node),)
        expected = factor * base_raw.pop(key, 0.0)
        measured = node.raw.get(mid, 0.0)
        delta = measured - expected
        if delta != 0.0:
            node.raw[loss.mid] = delta
        stack.extend((child, key) for child in node.children)

    attribute(scaled_run)
    return loss.mid


# --------------------------------------------------------------------- #
# cross-model merging (independently loaded rank databases)
# --------------------------------------------------------------------- #
def map_structure(
    canonical: StructureModel, other: StructureModel
) -> dict[int, StructureNode]:
    """Graft *other*'s scopes into *canonical*; return uid -> canonical node.

    ``CCTNode.key`` embeds structure-node uids, which only align when two
    trees share one model — so CCTs from independently loaded databases
    cannot be grafted directly.  This computes the bridge: every scope of
    *other* is united into *canonical* by its structural key (kind, name,
    file, line) and mapped to the canonical node, after which the CCTs
    can be merged as if they had shared a model all along.  Idempotent:
    re-mapping an already-united model creates nothing new.
    """
    mapping: dict[int, StructureNode] = {other.root.uid: canonical.root}
    stack: list[tuple[StructureNode, StructureNode]] = [
        (canonical.root, other.root)
    ]
    while stack:
        dst, src = stack.pop()
        for child in src.children:
            mine = dst.child_by_key(child.key)
            if mine is None:
                mine = StructureNode(
                    child.kind, child.name, child.location, parent=dst
                )
                mine.calls = child.calls
                if child.kind is StructKind.PROCEDURE:
                    canonical._register_procedure(mine)
            mapping[child.uid] = mine
            stack.append((mine, child))
    return mapping


def remap_cct(cct: CCT, mapping: dict[int, StructureNode]) -> CCT:
    """A fresh copy of *cct* whose struct references go through *mapping*.

    Children keep their order and all three metric dicts are copied, so
    the remapped tree is value-identical to the original — it merely
    lives in the canonical structure model.
    """
    out = CCT()
    for attr in ("raw", "inclusive", "exclusive"):
        getattr(out.root, attr).update(getattr(cct.root, attr))
    stack: list[tuple[CCTNode, CCTNode]] = [(out.root, cct.root)]
    while stack:
        dnode, snode = stack.pop()
        for child in snode.children:
            struct = (
                mapping[child.struct.uid] if child.struct is not None else None
            )
            mine = CCTNode(
                child.kind, struct=struct, line=child.line, parent=dnode
            )
            for attr in ("raw", "inclusive", "exclusive"):
                getattr(mine, attr).update(getattr(child, attr))
            stack.append((mine, child))
    return out


def _graft_mapped(
    dst: CCTNode,
    src: CCTNode,
    mapping: dict[int, StructureNode],
    sink=None,
) -> int:
    """:func:`_graft`, but matching scopes through a structure mapping.

    Node creation happens in child order (the descent stack order does
    not affect attachment order), and raw sums accumulate in the same
    traversal order as ``merge_ccts`` over remapped trees — the property
    that makes the streaming merge bit-identical to the in-memory one.

    *sink*, when given, is called as ``sink(union_node, member_node)``
    for every member node in visit order (a preorder walk of the member
    tree).  Returns the number of union nodes created.
    """
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


class _GraftRecords:
    """Member values captured during the graft pass, for the measure pass.

    The graft (or, for rank trees already merged in memory, an aligned
    walk) visits every member node next to the union node it lands on.
    Recording the union node's uid and the member node's values per
    column ``(mid, flavor)`` there means the measure pass never decodes
    a member again: it reads the record back and scatters it into the
    member's matrix row.  The visit order is the order a second aligned
    walk would see, and :func:`numpy.add.at` applies additions
    unbuffered in index order, so every cell receives the same float
    additions in the same order as a per-node ``+=`` walk.

    Records live in preallocated int64/float64 arrays (reused across
    members, grown only for a member larger than any before it) and are
    appended, one member after another, to a single anonymous temporary
    file: a thousand-rank merge's records add up to its rank matrices,
    so they stay on disk like the matrices do.  The file needs no fsync
    and vanishes on :meth:`close` or on a crash.
    """

    def __init__(self, mids: Sequence[int], flavors: Sequence[str]) -> None:
        self.columns = [(mid, flavor) for mid in mids for flavor in flavors]
        self._getters = [
            (operator.attrgetter(flavor), mid)
            for mid, flavor in self.columns
        ]
        self.width = len(self.columns)
        self._file = tempfile.TemporaryFile()
        self._extents: list[tuple[int, int]] = []  # (offset, nodes)
        self._uids = np.empty(0, dtype=np.int64)
        self._values = np.empty(0)
        self._k = 0
        #: bytes of the largest member record so far
        self.max_bytes = 0

    def _grow(self) -> None:
        cap = max(64, 2 * len(self._uids))
        uids = np.empty(cap, dtype=np.int64)
        values = np.empty(cap * self.width)
        uids[: self._k] = self._uids[: self._k]
        values[: self._k * self.width] = self._values[: self._k * self.width]
        self._uids, self._values = uids, values

    def __call__(self, unode: CCTNode, mnode: CCTNode) -> None:
        """The graft or aligned-walk sink: record one member node."""
        k = self._k
        if k == len(self._uids):
            self._grow()
        self._uids[k] = unode.uid
        at = k * self.width
        values = self._values
        for get, mid in self._getters:
            values[at] = get(mnode).get(mid, 0.0)
            at += 1
        self._k = k + 1

    def commit(self) -> None:
        """Spill the record of the member just grafted."""
        k = self._k
        self._extents.append((self._file.tell(), k))
        self._file.write(memoryview(self._uids[:k]))
        self._file.write(memoryview(self._values[: k * self.width]))
        self._k = 0
        self.max_bytes = max(self.max_bytes, k * (8 + 8 * self.width))

    def rows(self, nodes: Sequence[CCTNode]):
        """Yield each member's recorded values as rows over *nodes*.

        Member by member in record order: one float64 row (length
        ``len(nodes)``) per column ``self.columns[j]``.  Zero values are
        skipped, exactly as the sparse per-node walk skipped them.  The
        rows are reused: read each before the next step.
        """
        uids = np.fromiter(
            (node.uid for node in nodes), dtype=np.int64, count=len(nodes)
        )
        order = np.argsort(uids)
        sorted_uids = uids[order]
        outs = [np.zeros(len(nodes)) for _ in self.columns]
        for offset, k in self._extents:
            uids = np.empty(k, dtype=np.int64)
            values = np.empty((k, self.width))
            self._file.seek(offset)
            self._file.readinto(memoryview(uids).cast("B"))
            self._file.readinto(memoryview(values).cast("B"))
            rows = order[np.searchsorted(sorted_uids, uids)]
            for j, out in enumerate(outs):
                out[:] = 0.0
                column = values[:, j]
                nonzero = column != 0.0
                np.add.at(out, rows[nonzero], column[nonzero])
            yield outs

    def close(self) -> None:
        self._file.close()


def _metric_signature(metrics: MetricTable) -> tuple:
    """What must agree for two databases to merge: the RAW columns."""
    return tuple(
        (d.mid, d.name, d.unit, d.kind.value)
        for d in metrics
        if d.kind is MetricKind.RAW
    )


# --------------------------------------------------------------------- #
# the union reducer: N members, one resident at a time
# --------------------------------------------------------------------- #
#: default working-set budget for the reducer (bytes)
DEFAULT_WORKING_SET = 256 * 1024 * 1024

#: rough resident bytes per combined-tree CCT node (object + dicts)
_NODE_COST = 700

#: decoded-experiment expansion over on-disk bytes (python object cost)
_DECODE_EXPANSION = 12


def _load(source, strict: bool = True):
    """Resolve one member into ``(experiment, release, file_bytes)``.

    Anything that is not a path is taken to be an in-memory experiment
    and passed through untouched.  A path goes through
    :func:`~repro.hpcprof.database.load`: ``.rpstore`` directories open
    as mmap-backed store experiments, which *release* closes (so their
    file descriptors go back at once), strict ``RPDB`` files through the
    mmap streaming reader, anything else (XML, salvage loads) through
    the eager loader.
    """
    if not isinstance(source, (str, os.PathLike)):
        return source, None, 0
    from repro.core.store import StoreExperiment
    from repro.hpcprof import database

    path = os.fspath(source)
    exp = database.load(path, strict=strict, out_of_core=True)
    if isinstance(exp, StoreExperiment):
        return exp, exp.close, 0
    return exp, None, os.path.getsize(path)


class _Reducer:
    """One union CCT reduced from N members, one member resident at a time.

    :meth:`graft` loads each member once (:func:`_load`), unites its
    structure into the canonical model, grafts its CCT into the union
    (raw sums), and records the member's value per column ``(mid,
    flavor)`` beside each union node (:class:`_GraftRecords`, spilled to
    a temporary file); then one Eq. 1/2 attribution pass.  :meth:`rows`
    then yields each member's recorded values scattered into rows over
    the union's preorder.  Both passes check one working-set estimate
    against the budget: the union skeleton, the largest decoded member,
    the largest member record, and what the caller keeps per node.

    Node creation and raw sums follow ``merge_ccts`` over remapped
    trees, so the union is bit-identical to the in-memory merge.  Used
    as a context manager: the spill file goes on exit.
    """

    def __init__(self, flavors: Sequence[str], working_set_bytes: int) -> None:
        self.flavors = flavors
        self.budget = working_set_bytes
        self.peak = 0
        self.tree: CCT | None = None
        self.metrics: MetricTable | None = None
        self.signature: tuple | None = None
        self.records: _GraftRecords | None = None
        self.nodes: list[CCTNode] = []

    def __enter__(self) -> "_Reducer":
        return self

    def __exit__(self, *exc) -> None:
        if self.records is not None:
            self.records.close()

    def _charge(self, estimate: int, stage: str) -> None:
        self.peak = max(self.peak, estimate)
        if estimate > self.budget:
            raise DatabaseError(
                f"working-set budget exceeded during {stage}: need about "
                f"{estimate / 1048576:.1f} MiB, budget is "
                f"{self.budget / 1048576:.1f} MiB (raise working_set_bytes)"
            )

    def graft(self, sources: Sequence, canonical, admit,
              strict: bool = True) -> None:
        """Graft every source into the union, in order.

        ``canonical(first)`` gives the union's structure model, from the
        first loaded member; the union's metric table is a copy of that
        member's.  ``admit(i, experiment)`` vets each loaded member
        before its graft, raising the caller's own error to refuse it
        (:attr:`signature` is the union's RAW metric signature).
        """
        from repro.obs.spans import span

        with span("hpcprof.reduce.graft"):
            union_nodes = 1
            max_file = 0
            for i, source in enumerate(sources):
                exp, release, nbytes = _load(source, strict=strict)
                try:
                    if self.tree is None:
                        self.tree = CCT(canonical(exp))
                        self.metrics = exp.metrics.copy()
                        self.signature = _metric_signature(self.metrics)
                        self.records = _GraftRecords(
                            [d.mid for d in self.metrics
                             if d.kind is MetricKind.RAW],
                            self.flavors,
                        )
                    admit(i, exp)
                    mapping = map_structure(self.tree.structure,
                                            exp.structure)
                    union_nodes += _graft_mapped(
                        self.tree.root, exp.cct.root, mapping, self.records
                    )
                    self.records.commit()
                finally:
                    if release is not None:
                        release()
                del exp
                max_file = max(max_file, nbytes)
                self._charge(
                    union_nodes * _NODE_COST
                    + max_file * _DECODE_EXPANSION
                    + self.records.max_bytes,
                    "graft",
                )
            attribute(self.tree)
            self.nodes = list(self.tree.walk())

    def rows(self, resident_bytes: int):
        """Yield each member's values as rows over :attr:`nodes`.

        One float64 row per column of :attr:`records`, member by member
        in input order; the rows are reused, so read each before the
        next step.  *resident_bytes* is what the caller holds beside
        them, charged to the budget first.
        """
        from repro.obs.spans import span

        n = len(self.nodes)
        with span("hpcprof.reduce.measure"):
            self._charge(
                n * _NODE_COST
                + self.records.width * n * 8
                + resident_bytes
                + self.records.max_bytes,
                "measure",
            )
            yield from self.records.rows(self.nodes)


def _summary_mids(metrics: MetricTable, summarize) -> list[int]:
    """Resolve a ``summarize=`` argument to a sorted list of RAW mids."""
    raw = [d.mid for d in metrics if d.kind is MetricKind.RAW]
    if summarize == "all":
        return raw
    if not summarize:
        return []
    out = set()
    for name in summarize:
        mid = metrics.by_name(name).mid
        if mid not in raw:
            raise MetricError(f"cannot summarize non-raw metric {name!r}")
        out.add(mid)
    return sorted(out)


def merge_experiments(
    experiments: Sequence,
    name: str | None = None,
    summarize=(),
):
    """Union independently loaded experiments into one (in memory).

    The first experiment's structure model becomes canonical; every
    other model is united into it by structural key, each input tree is
    remapped and retained as one rank tree, and the combined CCT is
    their re-attributed union.  The merged experiment gets a copy of the
    first metric table (same ids), so the inputs' tables never change.
    *summarize* (metric names, or ``"all"``) attaches mean/min/max/stddev
    columns via :func:`~repro.hpcprof.summarize.summarize_ranks` — the
    in-memory reference the bounded-memory :func:`merge_rank_files` is
    bit-identical to.
    """
    from repro.hpcprof.experiment import Experiment
    from repro.hpcprof.summarize import summarize_ranks

    if not experiments:
        raise MetricError("need at least one experiment to merge")
    first = experiments[0]
    metrics = first.metrics.copy()
    signature = _metric_signature(metrics)
    canonical = first.structure
    rank_ccts: list[CCT] = []
    for exp in experiments:
        if _metric_signature(exp.metrics) != signature:
            raise MetricError(
                f"metric tables differ: {first.name!r} vs {exp.name!r}"
            )
        mapping = map_structure(canonical, exp.structure)
        sources = exp.rank_ccts if exp.rank_ccts else [exp.cct]
        rank_ccts.extend(remap_cct(cct, mapping) for cct in sources)
    combined = merge_ccts(rank_ccts)
    merged = Experiment(
        name or first.name, metrics, canonical, combined,
        rank_ccts=rank_ccts,
    )
    for mid in _summary_mids(metrics, summarize):
        merged._summaries[mid] = summarize_ranks(
            combined, rank_ccts, metrics, mid
        )
    return merged


# --------------------------------------------------------------------- #
# bounded-memory merge of rank databases into a column store
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class MergeReport:
    """What :func:`merge_rank_files` did, and how big it got."""

    out_path: str
    nranks: int
    nnodes: int
    num_metrics: int
    summarized: tuple[int, ...]
    working_set_bytes: int
    peak_estimate_bytes: int
    skeleton_bytes: int
    store_bytes: int

    def summary(self) -> str:
        return (
            f"merged {self.nranks} rank database(s) -> {self.out_path}: "
            f"{self.nnodes} scopes, {self.num_metrics} metrics, "
            f"{len(self.summarized)} summarized, "
            f"store {self.store_bytes / 1024:.1f} KiB, "
            f"peak working set ~{self.peak_estimate_bytes / 1048576:.1f} MiB "
            f"(budget {self.working_set_bytes / 1048576:.0f} MiB)"
        )


def merge_rank_files(
    paths: Sequence[str],
    out_path: str,
    *,
    name: str | None = None,
    working_set_bytes: int = DEFAULT_WORKING_SET,
    summarize="all",
    strict: bool = True,
    overwrite: bool = False,
) -> MergeReport:
    """Fold N single-rank databases into one mmap-backed column store.

    The union reducer (:class:`_Reducer`) grafts the databases in rank
    order, decoding each exactly once, and then yields each rank's
    values; each is written as one contiguous row of the on-disk
    ``(nranks x nnodes)`` rank matrices and feeds the summary
    accumulators (:func:`~repro.hpcprof.summarize.summarize_rows`).
    Nothing ever holds more than one decoded rank (or one rank's
    record) plus the combined skeleton and O(scopes x metrics)
    accumulators, checked against *working_set_bytes*.

    The result is bit-identical to ``merge_experiments(...,
    summarize=...)`` over the same files — the differential suite pins
    raw sums, attribution, summary columns, and rendered tables.
    """
    from repro.core.store import StoreWriter, store_size_bytes
    from repro.hpcprof.experiment import Experiment
    from repro.hpcprof.summarize import FLAVORS, summarize_rows

    paths = list(paths)
    if not paths:
        raise DatabaseError("need at least one rank database to merge")

    writer = StoreWriter(out_path, overwrite=overwrite)
    names: list[str] = []

    def admit(i: int, exp) -> None:
        if exp.nranks > 1:
            raise DatabaseError(
                f"{paths[i]}: merge inputs must be single-rank databases "
                f"(this one holds {exp.nranks} rank trees)"
            )
        if _metric_signature(exp.metrics) != reducer.signature:
            raise DatabaseError(
                f"{paths[i]}: metric table differs from {paths[0]}"
            )
        names.append(exp.name)

    with _Reducer(FLAVORS, working_set_bytes) as reducer:
        reducer.graft(paths, operator.attrgetter("structure"), admit,
                      strict=strict)
        combined, metrics = reducer.tree, reducer.metrics
        n, nranks = len(reducer.nodes), len(paths)
        summary_mids = _summary_mids(metrics, summarize)
        columns = reducer.records.columns
        maps = [
            writer.create_rank_matrix(mid, flavor, nranks, n)
            for mid, flavor in columns
        ]
        picks = [
            columns.index((mid, flavor))
            for mid in summary_mids for flavor in FLAVORS
        ]

        def measured():
            # five accumulator arrays per summarized column
            rows = reducer.rows(5 * len(picks) * n * 8)
            for r, row in enumerate(rows):
                for mm, x in zip(maps, row):
                    mm[r, :] = x
                yield [row[j] for j in picks]

        summaries = summarize_rows(combined, metrics, summary_mids,
                                   measured())
        for mm in maps:
            mm.flush()
        del maps

    merged = Experiment(
        (names[0] if name is None else name) or "merged",
        metrics, combined.structure, combined,
    )
    skeleton_bytes = writer.write_skeleton(merged)
    writer.write_matrices(merged.engine)
    writer.finish(
        name=merged.name,
        nnodes=n,
        num_metrics=len(metrics),
        nranks=nranks,
        rank_mids=[d.mid for d in metrics if d.kind is MetricKind.RAW],
        summaries=summaries,
        extra={
            "skeleton_bytes": skeleton_bytes,
            "working_set_bytes": working_set_bytes,
            "peak_estimate_bytes": reducer.peak,
        },
    )
    return MergeReport(
        out_path=out_path,
        nranks=nranks,
        nnodes=n,
        num_metrics=len(metrics),
        summarized=tuple(summary_mids),
        working_set_bytes=working_set_bytes,
        peak_estimate_bytes=reducer.peak,
        skeleton_bytes=skeleton_bytes,
        store_bytes=store_size_bytes(out_path),
    )
