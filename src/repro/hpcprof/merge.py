"""Merging canonical CCTs across threads, ranks and experiments.

Per-rank profiles are correlated into per-rank CCTs (sharing one static
structure model); this module unions them into a single canonical CCT —
scope identity is the path of node keys — and supports two cross-
experiment analyses from the paper:

* :func:`collect_rank_vectors` — per-node vectors of one metric across all
  ranks, the raw material for load-imbalance presentation (Figure 7) and
  for statistical summarization (:mod:`repro.hpcprof.summarize`);
* :func:`scale_and_difference` — the derived scaling-loss metric of
  Section VI-A: scale the profile of a small run and subtract it from a
  large run, attributing scaling loss to individual contexts.
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
    out = CCT()
    for cct in ccts:
        _graft(out.root, cct.root)
    if attribute_result:
        attribute(out)
    return out


def _walk_aligned(combined: CCTNode, rank_root: CCTNode, rank: int, sink) -> None:
    """Visit nodes of one rank tree aligned to the combined tree by key.

    Iterative, for the same deep-chain reason as :func:`_graft`.
    """
    stack = [(combined, rank_root)]
    while stack:
        cnode, rnode = stack.pop()
        sink(cnode, rnode, rank)
        for child in rnode.children:
            mine = cnode._child_index.get(child.key)
            if mine is not None:
                stack.append((mine, child))


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
    load-imbalance presentation (Figure 7) and for the vectorized
    statistical summarization in :mod:`repro.hpcprof.summarize`.
    """
    nranks = len(rank_ccts)
    nodes = list(combined.walk())
    index = {node.uid: row for row, node in enumerate(nodes)}
    matrix = np.zeros((len(nodes), nranks))

    def sink(cnode: CCTNode, rnode: CCTNode, rank: int) -> None:
        values = rnode.inclusive if inclusive else rnode.exclusive
        value = values.get(mid, 0.0)
        if value != 0.0:
            matrix[index[cnode.uid], rank] += value

    for rank, cct in enumerate(rank_ccts):
        _walk_aligned(combined.root, cct.root, rank, sink)

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

    The graft visits every member node next to the union node it lands
    on.  Recording the union node's uid and the member node's values per
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
        self._sorted_uids: np.ndarray | None = None
        self._order: np.ndarray | None = None

    def _grow(self) -> None:
        cap = max(64, 2 * len(self._uids))
        uids = np.empty(cap, dtype=np.int64)
        values = np.empty(cap * self.width)
        uids[: self._k] = self._uids[: self._k]
        values[: self._k * self.width] = self._values[: self._k * self.width]
        self._uids, self._values = uids, values

    def __call__(self, unode: CCTNode, mnode: CCTNode) -> None:
        """The :func:`_graft_mapped` sink: record one member node."""
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

    def index(self, nodes: Sequence[CCTNode]) -> None:
        """Map union uids to rows of *nodes* (the matrix row order)."""
        uids = np.fromiter(
            (node.uid for node in nodes), dtype=np.int64, count=len(nodes)
        )
        self._order = np.argsort(uids)
        self._sorted_uids = uids[self._order]

    def scatter(self, member: int, outs: Sequence[np.ndarray]) -> None:
        """Add *member*'s recorded values into *outs*, one row per column.

        ``outs[j]`` is the float64 row (length = union nodes) receiving
        column ``self.columns[j]``; zero values are skipped, exactly as
        the sparse per-node walk skipped them.
        """
        offset, k = self._extents[member]
        uids = np.empty(k, dtype=np.int64)
        values = np.empty((k, self.width))
        self._file.seek(offset)
        self._file.readinto(memoryview(uids).cast("B"))
        self._file.readinto(memoryview(values).cast("B"))
        rows = self._order[np.searchsorted(self._sorted_uids, uids)]
        for j, out in enumerate(outs):
            column = values[:, j]
            nonzero = column != 0.0
            np.add.at(out, rows[nonzero], column[nonzero])

    def close(self) -> None:
        self._file.close()


def _metric_signature(metrics: MetricTable) -> tuple:
    """What must agree for two databases to merge: the RAW columns."""
    return tuple(
        (d.mid, d.name, d.unit, d.kind.value)
        for d in metrics
        if d.kind is MetricKind.RAW
    )


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
    their re-attributed union.  *summarize* (metric names, or ``"all"``)
    attaches mean/min/max/stddev columns via the exact sequential
    Welford path (:func:`~repro.hpcprof.summarize.summarize_ranks_exact`)
    — the in-memory reference the bounded-memory
    :func:`merge_rank_files` is bit-identical to.
    """
    from repro.hpcprof.experiment import Experiment
    from repro.hpcprof.summarize import summarize_ranks_exact

    if not experiments:
        raise MetricError("need at least one experiment to merge")
    first = experiments[0]
    signature = _metric_signature(first.metrics)
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
        name or first.name, first.metrics, canonical, combined,
        rank_ccts=rank_ccts,
    )
    for mid in _summary_mids(first.metrics, summarize):
        merged._summaries[mid] = summarize_ranks_exact(
            combined, rank_ccts, first.metrics, mid
        )
    return merged


# --------------------------------------------------------------------- #
# bounded-memory merge of rank databases into a column store
# --------------------------------------------------------------------- #
#: default working-set budget for :func:`merge_rank_files` (bytes)
DEFAULT_WORKING_SET = 256 * 1024 * 1024

#: rough resident bytes per combined-tree CCT node (object + dicts)
_NODE_COST = 700

#: decoded-experiment expansion over on-disk bytes (python object cost)
_DECODE_EXPANSION = 12


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


def _load_rank(path: str, strict: bool = True):
    """Load one rank database, streaming when the format allows it.

    Binary databases go through the mmap streaming reader (byte working
    set = one section); XML and salvage loads fall back to the eager
    path, still bounded to one file at a time.
    """
    from repro.hpcprof import binio, database

    if strict:
        try:
            with open(path, "rb") as fh:
                magic = fh.read(4)
        except OSError:
            magic = b""  # let database.load raise its canonical error
        if magic == b"RPDB":
            return binio.read_binary_streaming(path)
    return database.load(path, strict=strict)


def _budget_check(estimate: int, budget: int, stage: str) -> None:
    if estimate > budget:
        raise DatabaseError(
            f"working-set budget exceeded during {stage}: need about "
            f"{estimate / 1048576:.1f} MiB, budget is "
            f"{budget / 1048576:.1f} MiB (raise working_set_bytes)"
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

    Each database is decoded exactly once.  Two passes, neither of which
    ever holds more than one decoded rank (or one rank's record) plus
    the combined skeleton and O(scopes x metrics) accumulators (checked
    against *working_set_bytes*):

    1. **graft** — each database is loaded (streaming reader), its
       structure united into the canonical model, and its CCT grafted
       into the combined tree in rank order, recording each rank node's
       inclusive/exclusive values beside the union node it landed on
       (spilled to a temporary file); then one Eq. 1/2 attribution pass
       over the union.
    2. **measure** — each rank's record is read back and scattered into
       one contiguous row of the on-disk ``(nranks x nnodes)`` rank
       matrices, and the summary accumulators advance by the exact
       Welford recurrence.

    The result is bit-identical to ``merge_experiments(...,
    summarize=...)`` over the same files — the differential suite pins
    raw sums, attribution, summary columns, and rendered tables.
    """
    from repro.core.store import StoreWriter, store_size_bytes
    from repro.obs.spans import span

    paths = list(paths)
    if not paths:
        raise DatabaseError("need at least one rank database to merge")

    writer = StoreWriter(out_path, overwrite=overwrite)
    combined = CCT()
    canonical: StructureModel | None = None
    metrics: MetricTable | None = None
    signature: tuple | None = None
    records: _GraftRecords | None = None
    flavors = ("inclusive", "exclusive")
    merged_name = name
    union_nodes = 1
    max_file = 0
    peak = 0

    try:
        # pass 1: graft every rank tree into the combined skeleton,
        # recording each rank's values on the way
        with span("hpcprof.reduce.graft"):
            for path in paths:
                exp = _load_rank(path, strict=strict)
                if exp.rank_ccts:
                    raise DatabaseError(
                        f"{path}: merge inputs must be single-rank databases "
                        f"(this one holds {len(exp.rank_ccts)} rank trees)"
                    )
                if metrics is None:
                    metrics = exp.metrics
                    signature = _metric_signature(metrics)
                    canonical = exp.structure
                    if merged_name is None:
                        merged_name = exp.name
                    records = _GraftRecords(
                        [d.mid for d in metrics if d.kind is MetricKind.RAW],
                        flavors,
                    )
                elif _metric_signature(exp.metrics) != signature:
                    raise DatabaseError(
                        f"{path}: metric table differs from {paths[0]}"
                    )
                mapping = map_structure(canonical, exp.structure)
                union_nodes += _graft_mapped(
                    combined.root, exp.cct.root, mapping, records
                )
                records.commit()
                del exp
                max_file = max(max_file, os.path.getsize(path))
                estimate = (
                    union_nodes * _NODE_COST
                    + max_file * _DECODE_EXPANSION
                    + records.max_bytes
                )
                peak = max(peak, estimate)
                _budget_check(estimate, working_set_bytes, "graft")
            attribute(combined)

        # pass 2: scatter the records into matrices + exact Welford
        # summaries
        with span("hpcprof.reduce.measure"):
            nodes = list(combined.walk())
            n = len(nodes)
            nranks = len(paths)
            mids = [d.mid for d in metrics if d.kind is MetricKind.RAW]
            summary_mids = _summary_mids(
                metrics, summarize
            ) if summarize else []

            maps = {
                key: writer.create_rank_matrix(*key, nranks, n)
                for key in records.columns
            }
            cols = {key: np.zeros(n) for key in maps}
            acc = {
                (mid, flavor): [
                    np.zeros(n),                    # mean
                    np.zeros(n),                    # m2
                    np.full(n, np.inf),             # min
                    np.full(n, -np.inf),            # max
                    np.zeros(n, dtype=bool),        # nonzero mask
                ]
                for mid in summary_mids
                for flavor in flavors
            }
            accumulator_bytes = (len(maps) + 5 * len(acc)) * n * 8
            estimate = (
                n * _NODE_COST + accumulator_bytes + records.max_bytes
            )
            peak = max(peak, estimate)
            _budget_check(estimate, working_set_bytes, "measure")

            records.index(nodes)
            outs = [cols[key] for key in records.columns]
            for r in range(nranks):
                for buf in outs:
                    buf[:] = 0.0
                records.scatter(r, outs)
                for key, mm in maps.items():
                    x = cols[key]
                    mm[r, :] = x
                    stats = acc.get(key)
                    if stats is not None:
                        mean, m2, minimum, maximum, nonzero = stats
                        # element-wise identical to _welford_chunk's
                        # column step
                        delta = x - mean
                        mean += delta / (r + 1)
                        m2 += delta * (x - mean)
                        np.minimum(minimum, x, out=minimum)
                        np.maximum(maximum, x, out=maximum)
                        nonzero |= x != 0.0

            for mm in maps.values():
                mm.flush()
            maps.clear()
    finally:
        if records is not None:
            records.close()

    # finalize: register + write summary columns, then seal the store
    from repro.hpcprof.experiment import Experiment
    from repro.hpcprof.summarize import (
        apply_summary_stats,
        register_summary_ids,
    )

    summaries = {}
    for mid in summary_mids:
        ids = register_summary_ids(metrics, mid)
        summaries[mid] = ids
        for flavor in flavors:
            mean, m2, minimum, maximum, nonzero = acc[(mid, flavor)]
            apply_summary_stats(
                nodes, flavor, ids, (nranks, mean, m2, minimum, maximum),
                nonzero,
            )
    if summaries:
        combined.invalidate_caches()

    merged = Experiment(merged_name or "merged", metrics, canonical, combined)
    skeleton_bytes = writer.write_skeleton(merged)
    writer.write_matrices(merged.engine)
    writer.finish(
        name=merged.name,
        nnodes=n,
        num_metrics=len(metrics),
        nranks=nranks,
        rank_mids=mids,
        summaries=summaries,
        extra={
            "skeleton_bytes": skeleton_bytes,
            "working_set_bytes": working_set_bytes,
            "peak_estimate_bytes": peak,
        },
    )
    return MergeReport(
        out_path=out_path,
        nranks=nranks,
        nnodes=n,
        num_metrics=len(metrics),
        summarized=tuple(summary_mids),
        working_set_bytes=working_set_bytes,
        peak_estimate_bytes=peak,
        skeleton_bytes=skeleton_bytes,
        store_bytes=store_size_bytes(out_path),
    )
