"""Merging canonical CCTs across threads, ranks and experiments.

Per-rank profiles are correlated into per-rank CCTs (sharing one static
structure model); this module unions them into a single canonical CCT —
scope identity is the path of node keys.  :func:`collect_rank_vectors`
gives per-node vectors of one metric across all ranks, the raw material
for load-imbalance presentation (Figure 7); :func:`rank_rows` yields the
same values rank by rank for statistical summarization
(:mod:`repro.hpcprof.summarize`).  Comparing separate runs — Section
VI-A's scaling loss among them — is the ensemble diff's job
(:meth:`repro.core.ensemble.EnsembleView.diff`), over the union built by
the reducer below.

Independently loaded profiles — rank databases, ensemble members — go
through one array union reducer (:class:`_Reducer`).  Each member
becomes preorder arrays once: parent row, kind, static scope, line and
raw run (:class:`_Member`).  A database file is parsed straight into
them, with its structure records matched against the canonical model by
structural key, so a member builds no structure model, tree or
attribution of its own.  One keyed pass gives every member row its
union id (:class:`_UnionIndex`); the member's inclusive and exclusive
values come from Eq. 1/2 over its own arrays; its raw run is summed
into the union's raw cells exactly as ``add_into`` would sum them
(:class:`_RawSums`).  The union stays arrays — its preorder, raw cells
and held mask — and each member's values come back as rows over that
preorder.  :func:`merge_rank_files` writes those rows into a column
store's rank matrices and summary accumulators, then writes the store
itself from the arrays: Eq. 1/2 over the union's raw matrix, the
summary statistics, and the skeleton packed by the one CCT record
packer (:func:`repro.hpcprof.binio._pack_cct`) — no union tree,
attribution pass or engine is built to serialize it.
:func:`repro.hpcprof.align.align_members` keeps the rows as in-memory
ensemble matrices and reads the union :class:`CCT`, built on first use;
:func:`rank_rows` keys rank trees into an existing union the same way.
Only one member is ever resident.

:func:`merge_ccts` and :func:`merge_experiments` keep their own
node-by-node union over shared structure: the in-memory reference the
reducer is checked against.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from repro.core.attribution import attribute
from repro.core.cct import CCT, CCTKind, CCTNode
from repro.errors import DatabaseError, MetricError
from repro.core.metrics import MetricKind, MetricTable, add_into
from repro.hpcstruct.model import (
    SourceLocation,
    StructKind,
    StructureModel,
    StructureNode,
)

__all__ = [
    "merge_ccts",
    "collect_rank_matrix",
    "rank_rows",
    "collect_rank_vectors",
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


def rank_rows(
    combined: CCT,
    rank_ccts: Sequence[CCT],
    mids: Sequence[int],
    flavors: Sequence[str],
):
    """Yield each rank tree's values as rows over ``combined.walk()``.

    The rank trees and *combined* share one structure model.  The union
    index is seeded with *combined* (so its ids are the combined
    preorder), then each rank's rows are keyed into it and its values
    (:func:`_member_values`) scattered into one float64 row per column
    ``(mid, flavor)``, with 0 where the rank lacks the scope.  Rank
    scopes *combined* lacks are dropped.  The rows are reused: read each
    before the next step.
    """
    index = _UnionIndex()
    seed = _tree_arrays(combined.root)
    n = len(seed.parents)
    seeded = index.assign(seed, seed.structs)
    known_ids = len(index)
    pre_of_id = np.empty(known_ids, dtype=np.int64)
    pre_of_id[seeded] = np.arange(n)
    width = len(mids) * len(flavors)
    out = np.zeros((width, n))
    for cct in rank_ccts:
        member = _tree_arrays(cct.root)
        ids = index.assign(member, member.structs)
        known = ids < known_ids
        _scatter(out, pre_of_id[ids[known]],
                 _member_values(member, mids, flavors)[known])
        yield list(out)


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


def _metric_signature(metrics: MetricTable) -> tuple:
    """What must agree for two databases to merge: the RAW columns."""
    return tuple(
        (d.mid, d.name, d.unit, d.kind.value)
        for d in metrics
        if d.kind is MetricKind.RAW
    )


# --------------------------------------------------------------------- #
# the union reducer: N members as preorder arrays, one resident at a time
# --------------------------------------------------------------------- #
#: default working-set budget for the reducer (bytes)
DEFAULT_WORKING_SET = 256 * 1024 * 1024

#: rough resident bytes per combined-tree CCT node (object + dicts)
_NODE_COST = 700

#: decoded-experiment expansion over on-disk bytes (python object cost)
_DECODE_EXPANSION = 12

_CCT_KINDS = list(CCTKind)  # index = the engine's kind code
_KIND_CODE = {kind: code for code, kind in enumerate(_CCT_KINDS)}


class _Member:
    """One member as preorder arrays (row 0 is the root).

    ``parents`` (parent row, -1 for the root), ``kinds`` (engine kind
    codes), ``lines`` and ``depths`` are lists; ``structs`` holds each
    row's static scope as the member knows it (a structure record index
    + 1 for a parsed database, a :class:`StructureNode` for a tree), and
    ``run`` its raw values as row-major ``(rows, mids, values)`` arrays
    in dict order.  :meth:`canonical_structs` matches the member's
    structure into a canonical model.
    """

    __slots__ = ("name", "metrics", "nranks", "nbytes", "parents", "kinds",
                 "lines", "depths", "structs", "run", "_structure")

    def __init__(self, parents, kinds, lines, depths, structs, run) -> None:
        self.parents = parents
        self.kinds = kinds
        self.lines = lines
        self.depths = depths
        self.structs = structs
        self.run = run
        self.name = ""
        self.metrics: MetricTable | None = None
        self.nranks = 1
        self.nbytes = 0
        #: what the member's static scopes live in: parsed structure
        #: records, or a StructureModel
        self._structure = None

    @classmethod
    def of_records(cls, records, nbytes: int) -> "_Member":
        """A strictly parsed database (:class:`binio.DatabaseRecords`)."""
        cct = records.cct
        member = cls(cct.parents, cct.kinds, cct.lines, cct.depths,
                     cct.sids, cct.raw_run())
        member.structs[0] = 0  # the root's static link is never read
        member.name, member.metrics = records.name, records.metrics
        member.nbytes = nbytes
        member._structure = records.structure
        return member

    @classmethod
    def of_experiment(cls, exp, nbytes: int = 0) -> "_Member":
        """An experiment's combined tree; a store experiment's comes from
        its opened engine (rows, kinds and the mapped raw column)."""
        from repro.core.store import StoreExperiment

        engine = exp.engine if isinstance(exp, StoreExperiment) else None
        if engine is not None:
            rows, mids = np.nonzero(engine.raw)
            member = cls(engine.parent_rows.tolist(), engine.kinds.tolist(),
                         [node.line for node in engine.nodes],
                         engine.depths, [node.struct for node in engine.nodes],
                         (rows, mids, np.asarray(engine.raw[rows, mids])))
        else:
            member = _tree_arrays(exp.cct.root)
        member.name, member.metrics = exp.name, exp.metrics
        member.nranks, member.nbytes = exp.nranks, nbytes
        member._structure = exp.structure
        return member

    def fresh_model(self) -> StructureModel:
        """An empty model whose root copies this member's root scope."""
        structure = self._structure
        if isinstance(structure, StructureModel):
            return _fresh_model(structure)
        model = StructureModel()
        model.root.name = structure.names[0]
        model.root.calls = structure.calls[0]
        return model

    def canonical_structs(self, canonical: StructureModel) -> list:
        """Each row's static scope in *canonical*, uniting the member's
        structure into it by structural key (:func:`map_structure`)."""
        structure = self._structure
        if isinstance(structure, StructureModel):
            mapping = map_structure(canonical, structure)
            return [None if s is None else mapping[s.uid]
                    for s in self.structs]
        scopes = _map_records(canonical, structure)
        return [scopes[sid - 1] if sid else None for sid in self.structs]


def _fresh_model(structure: StructureModel) -> StructureModel:
    """An empty model whose root copies *structure*'s root scope: what
    a merge unites its inputs' models into, leaving every input as it
    was."""
    model = StructureModel(structure.name)
    root = structure.root
    model.root.name, model.root.location = root.name, root.location
    model.root.calls = root.calls
    return model


def _tree_arrays(root: CCTNode) -> _Member:
    """A tree's rows in preorder, its own structure nodes as scopes."""
    parents: list[int] = []
    kinds: list[int] = []
    lines: list[int] = []
    depths: list[int] = []
    structs: list = []
    rows: list[int] = []
    mids: list[int] = []
    values: list[float] = []
    codes = _KIND_CODE
    stack: list[tuple[CCTNode, int, int]] = [(root, -1, 0)]
    while stack:
        node, parent, depth = stack.pop()
        row = len(parents)
        parents.append(parent)
        kinds.append(codes[node.kind])
        lines.append(node.line)
        depths.append(depth)
        structs.append(node.struct)
        raw = node.raw
        if raw:
            rows.extend([row] * len(raw))
            mids.extend(raw)
            values.extend(raw.values())
        depth += 1
        stack.extend([(child, row, depth)
                      for child in reversed(node.children)])
    run = (np.array(rows, dtype=np.int64), np.array(mids, dtype=np.int64),
           np.array(values, dtype=np.float64))
    return _Member(parents, kinds, lines, depths, structs, run)


def _map_records(canonical: StructureModel, records) -> list[StructureNode]:
    """:func:`map_structure` for parsed structure records: each record's
    canonical scope, by record index, creating the missing ones in the
    same order.  The records come from a strict parse, which has
    refused two sibling records with one key."""
    kinds, names, files, lines = (records.kinds, records.names,
                                  records.files, records.lines)
    children = records.children()
    scopes: list = [None] * len(kinds)
    scopes[0] = canonical.root
    stack = [0]
    while stack:
        row = stack.pop()
        dst = scopes[row]
        for child in children[row]:
            kind = kinds[child]
            key = (kind.value, names[child], files[child], lines[child])
            mine = dst.child_by_key(key)
            if mine is None:
                mine = StructureNode(
                    kind, names[child],
                    SourceLocation(file=files[child], line=lines[child],
                                   end_line=records.end_lines[child]),
                    parent=dst,
                )
                mine.calls = records.calls[child]
                if kind is StructKind.PROCEDURE:
                    canonical._register_procedure(mine)
            scopes[child] = mine
            stack.append(child)
    return scopes


class _UnionIndex:
    """Union scope ids keyed by ``(parent id, kind, scope uid, line)``.

    :meth:`assign` gives every member row its union id in one keyed
    pass, creating ids in (member, preorder) first-touch order — so a
    union node's children, in id order, are in the order the node-by-node
    graft would have created them, and every parent's id precedes its
    children's.
    """

    def __init__(self) -> None:
        self._index: dict[tuple, int] = {}
        self.parents = [-1]
        self.kinds = [0]
        self.structs: list = [None]
        self.lines = [0]
        self._touched = [0]  # the last member (1-based) that touched an id
        self._members = 0
        #: whether the last assigned member put two rows on one id
        self.collided = False

    def __len__(self) -> int:
        return len(self.parents)

    def assign(self, member: _Member, structs: list) -> np.ndarray:
        """Union ids of *member*'s rows; *structs* are its canonical
        scopes, row by row."""
        self._members = stamp = self._members + 1
        index, touched = self._index, self._touched
        parents, kinds, lines = member.parents, member.kinds, member.lines
        ids = [0] * len(parents)
        touched[0] = stamp
        collided = False
        for row in range(1, len(parents)):
            parent = ids[parents[row]]
            struct = structs[row]
            key = (parent, kinds[row], 0 if struct is None else struct.uid,
                   lines[row])
            uid = index.get(key)
            if uid is None:
                uid = index[key] = len(self.parents)
                self.parents.append(parent)
                self.kinds.append(kinds[row])
                self.structs.append(struct)
                self.lines.append(lines[row])
                touched.append(stamp)
            elif touched[uid] == stamp:
                collided = True
            else:
                touched[uid] = stamp
            ids[row] = uid
        self.collided = collided
        return np.array(ids, dtype=np.int64)


class _RawSums:
    """The union's raw dicts, summed as :func:`add_into` sums them.

    Cells ``(union id, metric)`` are dense (growing) arrays: the running
    value, whether the dict holds the entry, and the sequence number of
    the step that last inserted it.  Each member's raw run is applied in
    (member, row, dict) order: an entry whose sum becomes 0 leaves the
    dict, and one (re-)inserted later lands at the end — so the final
    dicts equal sequential ``add_into`` calls in values and key order.
    """

    def __init__(self) -> None:
        self._column: dict[int, int] = {}
        self._mids: list[int] = []
        self.value = np.zeros((64, 4))
        self.held = np.zeros((64, 4), dtype=bool)
        self.stamp = np.zeros((64, 4), dtype=np.int64)
        self._seq = 0

    def add(self, ids: np.ndarray, run, collided: bool) -> None:
        """Add one member's run; *ids* are its rows' union ids and
        *collided* says whether two rows share one id."""
        rows, mids, values = run
        if not len(rows):
            return
        unique, inverse = np.unique(mids, return_inverse=True)
        for mid in unique.tolist():
            if mid not in self._column:
                self._column[mid] = len(self._mids)
                self._mids.append(mid)
        cols = np.array([self._column[m] for m in unique.tolist()],
                        dtype=np.int64)[inverse]
        cells = ids[rows]
        self._grow(int(cells.max()) + 1, len(self._mids))
        seq = self._seq + np.arange(len(rows), dtype=np.int64)
        self._seq += len(rows)
        if not collided:
            self._step(cells, cols, values, seq)
            return
        # rows sharing an id: apply their entries in layers, each cell's
        # k-th entry in layer k, so every cell still sums in run order
        key = cells * len(self._mids) + cols
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        first = np.r_[True, sorted_key[1:] != sorted_key[:-1]]
        starts = np.flatnonzero(first)
        layer = np.empty(len(key), dtype=np.int64)
        layer[order] = np.arange(len(key)) - np.repeat(
            starts, np.diff(np.r_[starts, len(key)]))
        for k in range(int(layer.max()) + 1):
            pick = layer == k
            self._step(cells[pick], cols[pick], values[pick], seq[pick])

    def _step(self, cells, cols, values, seq) -> None:
        total = self.value[cells, cols] + values
        held = total != 0.0
        born = held & ~self.held[cells, cols]
        self.stamp[cells[born], cols[born]] = seq[born]
        self.held[cells, cols] = held
        self.value[cells, cols] = np.where(held, total, 0.0)

    def _grow(self, nrows: int, ncols: int) -> None:
        rows, cols = self.value.shape
        if nrows <= rows and ncols <= cols:
            return
        shape = (max(nrows, 2 * rows), max(ncols, cols))
        for name in ("value", "held", "stamp"):
            old = getattr(self, name)
            new = np.zeros(shape, dtype=old.dtype)
            new[:rows, :cols] = old
            setattr(self, name, new)

    def dicts(self, n: int) -> list[dict[int, float]]:
        """The raw dict of each of the first *n* union ids."""
        cells, cols = np.nonzero(self.held[:n])
        order = np.lexsort((self.stamp[cells, cols], cells))
        cells, cols = cells[order], cols[order]
        mids = np.array(self._mids, dtype=np.int64)[cols].tolist()
        entries = zip(mids, self.value[cells, cols].tolist())
        counts = np.bincount(cells, minlength=n).tolist()
        return [dict(islice(entries, count)) if count else {}
                for count in counts]


def _member_values(member: _Member, mids: Sequence[int],
                   flavors: Sequence[str]) -> np.ndarray:
    """``(rows x columns)`` values of *member*, one column per ``(mid,
    flavor)`` (mids in order, *flavors* within each).

    Inclusive and exclusive values come from Eq. 1/2 over the member's
    own raw values (:func:`~repro.core.engine.attribute_arrays`), so no
    member tree is attributed; they equal either attribution backend
    bit for bit.
    """
    from repro.core.engine import attribute_arrays, level_rows  # import cycle

    n = len(member.parents)
    out = np.zeros((n, len(mids) * len(flavors)))
    if not len(mids):
        return out
    rows, run_mids, values = member.run
    ordered = np.asarray(mids, dtype=np.int64)
    at = np.searchsorted(ordered, run_mids).clip(max=len(ordered) - 1)
    keep = ordered[at] == run_mids
    raw = np.zeros((n, len(mids)))
    raw[rows[keep], at[keep]] = values[keep]
    matrices = {"raw": raw}
    if set(flavors) - {"raw"}:
        depths = np.asarray(member.depths, dtype=np.int64)
        matrices["inclusive"], matrices["exclusive"] = attribute_arrays(
            np.asarray(member.parents, dtype=np.int64),
            np.asarray(member.kinds, dtype=np.int8),
            level_rows(depths)[1:], raw,
        )
    j = 0
    for c in range(len(mids)):
        for flavor in flavors:
            out[:, j] = matrices[flavor][:, c]
            j += 1
    return out


def _scatter(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``out[j, rows] += values[:, j]`` for every column *j*, from zero,
    skipping zero values; :func:`numpy.add.at` applies the additions in
    row order, as a per-node ``+=`` walk would."""
    out[:] = 0.0
    n = out.shape[1]
    cells = (np.arange(out.shape[0]) * n)[None, :] + rows[:, None]
    flat = values.ravel()
    nonzero = flat != 0.0
    np.add.at(out.reshape(-1), cells.ravel()[nonzero], flat[nonzero])


def _load(source, strict: bool = True) -> _Member:
    """Resolve one member into its arrays.

    Anything that is not a path is taken to be an in-memory experiment.
    A strict ``RPDB`` file is parsed straight into records through the
    mmap streaming reader (:meth:`binio.StreamingDatabase.records`) —
    no structure model, tree or attribution of its own.  ``.rpstore``
    directories open as mmap-backed store experiments whose engine
    gives the arrays, closed at once so their file descriptors go back;
    anything else (XML, salvage loads) goes through the eager loader.
    """
    from repro.core.store import StoreExperiment
    from repro.hpcprof import binio, database

    if not isinstance(source, (str, os.PathLike)):
        return _Member.of_experiment(source)
    path = os.fspath(source)
    if strict and not os.path.isdir(path) and database.has_binary_magic(path):
        with binio.StreamingDatabase(path) as db:
            return _Member.of_records(db.records(), db.size_bytes)
    exp = database.load(path, strict=strict)
    if isinstance(exp, StoreExperiment):
        try:
            return _Member.of_experiment(exp)
        finally:
            exp.close()
    return _Member.of_experiment(exp, os.path.getsize(path))


class _Spill:
    """Each member's union ids and values, one block per member, in one
    anonymous temporary file: a thousand-rank merge's values add up to
    its rank matrices, so they stay on disk like the matrices do.  The
    file needs no fsync and vanishes on :meth:`close` or on a crash."""

    def __init__(self) -> None:
        self._file = tempfile.TemporaryFile()
        self._extents: list[tuple[int, int, int]] = []  # offset, rows, width

    def write(self, ids: np.ndarray, values: np.ndarray) -> None:
        k, width = values.shape
        block = np.empty(k * (1 + width))
        block[:k].view(np.int64)[:] = ids
        block[k:] = values.ravel()
        self._extents.append((self._file.tell(), k, width))
        self._file.write(memoryview(block))

    def blocks(self):
        """Yield ``(ids, values)`` per member, in write order."""
        for offset, k, width in self._extents:
            block = np.empty(k * (1 + width))
            self._file.seek(offset)
            self._file.readinto(memoryview(block).cast("B"))
            yield block[:k].view(np.int64), block[k:].reshape(k, width)

    def close(self) -> None:
        self._file.close()


class _Reducer:
    """One union reduced from N members, one member resident at a time.

    :meth:`graft` turns each member into preorder arrays once
    (:func:`_load`), unites its structure into the canonical model, and
    keys its rows into the union (:class:`_UnionIndex`).  Its values per
    column ``(mid, flavor)`` come from its own arrays
    (:func:`_member_values`) and are spilled beside its union ids
    (:class:`_Spill`); its raw run is summed into the union's raw cells
    (:class:`_RawSums`).  The union stays arrays: :attr:`index`,
    :attr:`sums` and the union's preorder (:attr:`preorder`,
    :attr:`depths`, :attr:`nchildren`).  :meth:`rows` then yields each
    member's values scattered into rows over that preorder.  The union
    :class:`CCT` (:attr:`tree`, :attr:`nodes`) is built and attributed
    only when first read.  Both passes check one working-set estimate
    against the budget: the union skeleton, the largest decoded member,
    the largest member record, and what the caller keeps per node.

    The union equals ``merge_ccts`` over remapped trees, bit for bit and
    key for key.  Used as a context manager: the spill file goes on
    exit.
    """

    def __init__(self, flavors: Sequence[str], working_set_bytes: int,
                 model: StructureModel | None = None) -> None:
        self.flavors = flavors
        self.budget = working_set_bytes
        self.peak = 0
        #: the union's structure model; None: a copy of the first
        #: member's root scope
        self.model = model
        self.metrics: MetricTable | None = None
        self.signature: tuple | None = None
        self.columns: list[tuple[int, str]] = []
        self.index = _UnionIndex()
        self.sums = _RawSums()
        #: union ids in preorder, and each preorder row's depth and
        #: child count
        self.preorder: list[int] = []
        self.depths: list[int] = []
        self.nchildren: list[int] = []
        self._spill = _Spill()
        self._max_record = 0
        self._pre_of_id: np.ndarray | None = None
        self._tree: CCT | None = None
        self._nodes: list[CCTNode] = []

    def __enter__(self) -> "_Reducer":
        return self

    def __exit__(self, *exc) -> None:
        self._spill.close()

    def __len__(self) -> int:
        return len(self.preorder)

    def _charge(self, estimate: int, stage: str) -> None:
        self.peak = max(self.peak, estimate)
        if estimate > self.budget:
            raise DatabaseError(
                f"working-set budget exceeded during {stage}: need about "
                f"{estimate / 1048576:.1f} MiB, budget is "
                f"{self.budget / 1048576:.1f} MiB (raise working_set_bytes)"
            )

    def graft(self, sources: Sequence, admit, strict: bool = True) -> None:
        """Reduce every source into the union, in order.

        The union's metric table is a copy of the first member's.
        ``admit(i, member)`` vets each member (its ``name``, ``metrics``,
        ``nranks`` and raw ``run``) before its scopes are united,
        raising the caller's own error to refuse it (:attr:`signature`
        is the union's RAW metric signature).
        """
        from repro.obs.spans import span

        with span("hpcprof.reduce.graft"):
            index, sums = self.index, self.sums
            mids: list[int] = []
            max_file = 0
            for i, source in enumerate(sources):
                with span("hpcprof.reduce.decode"):
                    member = _load(source, strict=strict)
                    if self.metrics is None:
                        if self.model is None:
                            self.model = member.fresh_model()
                        self.metrics = member.metrics.copy()
                        self.signature = _metric_signature(self.metrics)
                        mids = [d.mid for d in self.metrics
                                if d.kind is MetricKind.RAW]
                        self.columns = [(mid, flavor) for mid in mids
                                        for flavor in self.flavors]
                    admit(i, member)
                    structs = member.canonical_structs(self.model)
                with span("hpcprof.reduce.union"):
                    ids = index.assign(member, structs)
                    values = _member_values(member, mids, self.flavors)
                    self._spill.write(ids, values)
                    sums.add(ids, member.run, index.collided)
                k = len(ids)
                max_file = max(max_file, member.nbytes)
                del member, structs, ids, values
                self._max_record = max(self._max_record,
                                       k * (8 + 8 * len(self.columns)))
                self._charge(
                    len(index) * _NODE_COST
                    + max_file * _DECODE_EXPANSION
                    + self._max_record,
                    "graft",
                )
            with span("hpcprof.reduce.union"):
                self._order()

    def _order(self) -> None:
        """The union's preorder (children in id order), with each row's
        depth and child count."""
        parents = self.index.parents
        children: list[list[int]] = [[] for _ in parents]
        for uid in range(1, len(parents)):
            children[parents[uid]].append(uid)
        preorder, depths, nchildren = self.preorder, self.depths, self.nchildren
        stack = [(0, 0)]
        while stack:
            uid, depth = stack.pop()
            preorder.append(uid)
            depths.append(depth)
            kids = children[uid]
            nchildren.append(len(kids))
            depth += 1
            stack.extend([(kid, depth) for kid in reversed(kids)])
        self._pre_of_id = np.empty(len(preorder), dtype=np.int64)
        self._pre_of_id[preorder] = np.arange(len(preorder))

    def parent_rows(self) -> np.ndarray:
        """Each preorder row's parent row (-1 for the root)."""
        parents = np.asarray(self.index.parents, dtype=np.int64)[self.preorder]
        rows = np.full(len(parents), -1, dtype=np.int64)
        rows[1:] = self._pre_of_id[parents[1:]]
        return rows

    @property
    def tree(self) -> CCT:
        """The union :class:`CCT`, attributed (built on first read)."""
        if self._tree is None:
            self._materialize()
        return self._tree

    @property
    def nodes(self) -> list[CCTNode]:
        """:attr:`tree`'s nodes in preorder."""
        if self._tree is None:
            self._materialize()
        return self._nodes

    def _materialize(self) -> None:
        """Build the union CCT in id order and attribute it."""
        from repro.obs.spans import span

        with span("hpcprof.reduce.union"):
            index = self.index
            raws = self.sums.dicts(len(index))
            tree = CCT(self.model)
            tree.root.raw = raws[0]
            nodes = [tree.root]
            kinds, structs, lines = index.kinds, index.structs, index.lines
            for uid, parent in enumerate(index.parents):
                if parent < 0:
                    continue
                node = CCTNode(_CCT_KINDS[kinds[uid]], struct=structs[uid],
                               line=lines[uid], parent=nodes[parent])
                node.raw = raws[uid]
                nodes.append(node)
            attribute(tree)
            self._tree = tree
            self._nodes = [nodes[uid] for uid in self.preorder]

    def rows(self, resident_bytes: int):
        """Yield each member's values as rows over the union preorder.

        One float64 row per column of :attr:`columns`, member by member
        in input order; the rows are reused, so read each before the
        next step.  *resident_bytes* is what the caller holds beside
        them, charged to the budget first.
        """
        from repro.obs.spans import span

        n = len(self.preorder)
        width = len(self.columns)
        with span("hpcprof.reduce.measure"):
            self._charge(
                n * _NODE_COST + width * n * 8 + resident_bytes
                + self._max_record,
                "measure",
            )
            out = np.zeros((width, n))
            for ids, values in self._spill.blocks():
                _scatter(out, self._pre_of_id[ids], values)
                yield list(out)


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

    Every input's structure model is united by structural key into a
    fresh canonical model (rooted like the first input's), each input tree is
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
    canonical = _fresh_model(first.structure)
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

    The union reducer (:class:`_Reducer`) keys the databases into one
    union in rank order, decoding each exactly once into arrays, and
    then yields each rank's values; each is written as one contiguous
    row of the on-disk ``(nranks x nnodes)`` rank matrices and steps the
    summary accumulators (:class:`~repro.hpcprof.summarize.RowMoments`).
    The skeleton and column files are then written from the union's
    arrays (:func:`_store_arrays`).  Nothing ever holds more than one
    rank's arrays (or one rank's spilled values) plus the combined
    skeleton and O(scopes x metrics) accumulators, checked against
    *working_set_bytes*.  A merge that fails removes what it wrote
    (:meth:`~repro.core.store.StoreWriter.abort`); an input with raw
    values on a metric that is not RAW is refused, since the store's
    raw column and its skeleton would disagree.

    The result is bit-identical to ``merge_experiments(...,
    summarize=...)`` over the same files — the differential suite pins
    raw sums, attribution, summary columns, and rendered tables.
    """
    from repro.core.store import StoreWriter

    paths = list(paths)
    if not paths:
        raise DatabaseError("need at least one rank database to merge")

    writer = StoreWriter(out_path, overwrite=overwrite)
    try:
        return _merge_into(writer, paths, name, working_set_bytes,
                           summarize, strict)
    except BaseException:
        writer.abort()
        raise


def _merge_into(writer, paths, name, working_set_bytes, summarize,
                strict) -> MergeReport:
    """:func:`merge_rank_files` once its store writer exists."""
    from repro.core.store import store_size_bytes
    from repro.hpcprof import binio
    from repro.hpcprof.summarize import (
        FLAVORS,
        RowMoments,
        register_summary_ids,
    )
    from repro.obs.spans import span

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
        # a store's raw column holds what its skeleton's raw runs hold
        stray = set(exp.run[1].tolist()).difference(
            entry[0] for entry in reducer.signature)
        if stray:
            raise DatabaseError(
                f"{paths[i]}: raw values on non-raw metric id {min(stray)}"
            )
        names.append(exp.name)

    with _Reducer(FLAVORS, working_set_bytes) as reducer:
        reducer.graft(paths, admit, strict=strict)
        metrics = reducer.metrics
        n, nranks = len(reducer), len(paths)
        summary_mids = _summary_mids(metrics, summarize)
        columns = reducer.columns
        maps = [
            writer.create_rank_matrix(mid, flavor, nranks, n)
            for mid, flavor in columns
        ]
        picks = [
            columns.index((mid, flavor))
            for mid in summary_mids for flavor in FLAVORS
        ]
        moments = [RowMoments(n) for _ in picks]
        # five accumulator arrays per summarized column
        for r, row in enumerate(reducer.rows(5 * len(picks) * n * 8)):
            for mm, x in zip(maps, row):
                mm[r, :] = x
            for accumulator, j in zip(moments, picks):
                accumulator.step(row[j])
        for mm in maps:
            mm.flush()
        del maps

    summaries = {mid: register_summary_ids(metrics, mid)
                 for mid in summary_mids}
    name = (names[0] if name is None else name) or "merged"
    with span("hpcprof.merge.store"):
        cct, matrices = _store_arrays(reducer, metrics, summaries, moments)
        skeleton_bytes = writer.write_skeleton(
            binio._pack_database(name, metrics, reducer.model, cct))
        writer.write_matrices(matrices)
    writer.finish(
        name=name,
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
        out_path=writer.path,
        nranks=nranks,
        nnodes=n,
        num_metrics=len(metrics),
        summarized=tuple(summary_mids),
        working_set_bytes=working_set_bytes,
        peak_estimate_bytes=reducer.peak,
        skeleton_bytes=skeleton_bytes,
        store_bytes=store_size_bytes(writer.path),
    )


def _store_arrays(reducer: _Reducer, metrics: MetricTable,
                  summaries: dict, moments: list) -> tuple[tuple, tuple]:
    """The merged store's skeleton CCT records and column matrices,
    straight from the reduced union.

    Rows are the union preorder.  The raw matrix holds the raw cells
    the union holds (:class:`_RawSums`); inclusive and exclusive are
    Eq. 1/2 over it (:func:`~repro.core.engine.attribute_arrays`), and
    each summarized column's statistics overwrite their metric's cells
    at the rows its :class:`~repro.hpcprof.summarize.RowMoments` saw
    nonzero — what ``RowMoments.write`` puts into a tree.  The skeleton
    records carry the held raw cells and those summary cells, sorted by
    metric id.  Returns ``((kinds, structs, lines, nchildren, raws,
    overlays), (raw, inclusive, exclusive))``, as
    :func:`~repro.hpcprof.binio._pack_cct` and
    :meth:`~repro.core.store.StoreWriter.write_matrices` take them.
    """
    from repro.core.engine import attribute_arrays, level_rows
    from repro.hpcprof.summarize import FLAVORS

    index, sums, order = reducer.index, reducer.sums, reducer.preorder
    n, width = len(order), len(metrics)
    kinds = np.asarray(index.kinds, dtype=np.int8)[order]

    cells, cols = np.nonzero(sums.held[:n])
    rows = reducer._pre_of_id[cells]
    mids = np.asarray(sums._mids, dtype=np.int64)[cols]
    raw = np.zeros((n, width))
    raw[rows, mids] = sums.value[cells, cols]
    held = np.zeros((n, width), dtype=bool)
    held[rows, mids] = True
    inclusive, exclusive = attribute_arrays(
        reducer.parent_rows(), kinds,
        level_rows(np.asarray(reducer.depths, dtype=np.int64))[1:], raw,
    )

    present = {flavor: np.zeros((n, width), dtype=bool) for flavor in FLAVORS}
    matrix = {"inclusive": inclusive, "exclusive": exclusive}
    columns = iter(moments)
    for mid, ids in summaries.items():
        for flavor in FLAVORS:
            accumulator = next(columns)
            at = np.flatnonzero(accumulator.nonzero)
            for sid, stat in zip(ids.all(), (
                accumulator.mean, accumulator.minimum, accumulator.maximum,
                accumulator.stddev,
            )):
                matrix[flavor][at, sid] = stat[at]
                present[flavor][at, sid] = True

    raws = _runs(n, [((), raw, held)])
    overlays = _runs(n, [((0,), inclusive, present["inclusive"]),
                         ((1,), exclusive, present["exclusive"])])
    cct = (kinds.tolist(), [index.structs[uid] for uid in order],
           [index.lines[uid] for uid in order], reducer.nchildren,
           raws, overlays)
    return cct, (raw, inclusive, exclusive)


def _runs(n: int, parts: list) -> list[tuple]:
    """Per row, one flat run of the marked cells of every ``(prefix,
    matrix, mask)`` part, in part order: each cell adds ``prefix + (mid,
    value)``, sorted by metric id within a part."""
    runs: list[list] = [[] for _ in range(n)]
    for prefix, matrix, mask in parts:
        rows, mids = np.nonzero(mask)  # row-major: sorted by (row, mid)
        for row, mid, value in zip(rows.tolist(), mids.tolist(),
                                   matrix[rows, mids].tolist()):
            runs[row].extend((*prefix, mid, value))
    return [tuple(run) for run in runs]
