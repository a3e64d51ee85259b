"""A trace's context table: call-path prefix ids and the union tree.

Every event of a trace names a *context* — a call path (frames,
outermost first) plus a leaf line.  The per-window construction of
:func:`~repro.trace.model.window_experiment` rebuilds from these a
call-path trie per rank (:class:`~repro.hpcrun.profile_data.ProfileData`),
correlates it with the program structure and attributes the result.
Everything in that rebuild except the tick sums is the same for every
window, so this module computes it once per trace:

* :class:`ContextTable` gives each distinct call-path prefix an integer
  id — the identity of a ``ProfileData`` trie node, whose key is the
  tuple of ``Frame.key``\\ s — and records, per context, its prefix id at
  every frame depth.  Flame slabs find their span runs on these ids.
* :class:`UnionTree` is the correlated union of every context (the
  whole-trace CCT shape, before any window drops a scope), kept only as
  arrays: parent, kind, depth, name, and the leaf row of each context.
  :meth:`UnionTree.window_frame` cuts a window's tree out of it.

The window frame reproduces the rebuild's row order exactly, because
row order is visible: it reaches query result rows, tie order under
``sort`` and the float order of the Eq. 2 sums.  In the rebuild a
scope's children appear in the order their first leaf is processed —
ranks in order; within a rank the trie walked depth-first, a trie
node's own leaf lines before its children, in context order, and its
children ordered by the smallest *touched* context below them.  That
order depends on which contexts the window touches, so it is computed
per window (see :meth:`UnionTree.window_frame`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.engine import _KIND_CODE, level_rows
from repro.hpcrun.profile_data import Frame

__all__ = ["ContextTable", "UnionTree"]


class ContextTable:
    """Per-depth call-path prefix ids of a trace's contexts.

    ``prefix[d, c]`` is the id of context ``c``'s call-path prefix of
    ``d + 1`` frames, ``-1`` past its last frame; ``prefix_frames[p]``
    is the frame prefix ``p`` ends in and ``prefix_parent[p]`` the id of
    the prefix one frame shorter (``-1`` for entry frames).  Ids are
    numbered in first-seen order, so a prefix's parent has a lower id.
    """

    def __init__(self, contexts: Sequence[tuple[tuple[Frame, ...], int]]
                 ) -> None:
        ids: dict[tuple, int] = {}
        frames: list[Frame] = []
        parents: list[int] = []
        paths: list[list[int]] = []
        for path, _line in contexts:
            pid = -1
            row = []
            for frame in path:
                key = (pid, frame.key)
                nxt = ids.get(key)
                if nxt is None:
                    nxt = ids[key] = len(frames)
                    frames.append(frame)
                    parents.append(pid)
                row.append(nxt)
                pid = nxt
            paths.append(row)
        self.leaf_lines = [line for _path, line in contexts]
        self.lengths = np.array([len(row) for row in paths], dtype=np.int64)
        depth = int(self.lengths.max()) if len(paths) else 0
        self.prefix = np.full((depth, len(paths)), -1, dtype=np.int64)
        for c, row in enumerate(paths):
            self.prefix[: len(row), c] = row
        self.prefix_frames = frames
        self.prefix_parent = np.array(parents, dtype=np.int64)

    def leaf_prefix(self) -> np.ndarray:
        """Each context's full-path prefix id (its trie node)."""
        if not len(self.lengths):
            return np.zeros(0, dtype=np.int64)
        return self.prefix[self.lengths - 1, np.arange(len(self.lengths))]


class UnionTree:
    """The correlated union of every context of a trace, as arrays.

    Row 0 is the root; ``parent``, ``kinds`` (engine kind codes),
    ``depth`` and ``names`` describe every scope a context's path
    creates, and ``leaf[c]`` is the row context ``c``'s samples land
    on.  Build it with :meth:`build`.
    """

    def __init__(self, table: ContextTable, parent, kinds, depth, names,
                 leaf) -> None:
        self.table = table
        self.parent = parent
        self.kinds = kinds
        self.depth = depth
        self.names = names
        self.leaf = leaf
        self.levels = level_rows(depth)

    @classmethod
    def build(cls, table: ContextTable, structure) -> "UnionTree | None":
        """Correlate each distinct prefix of *table* once against
        *structure*, by :class:`~repro.hpcprof.correlate.Correlator`'s
        rules.

        Returns None when procedure resolution is order-dependent (see
        :meth:`~repro.hpcprof.correlate.Correlator.resolves_stably`):
        then no fixed tree stands for every window.
        """
        from repro.hpcprof.correlate import Correlator

        correlator = Correlator(structure)
        if not correlator.resolves_stably(table.prefix_frames):
            return None
        scopes = []
        for frame, par in zip(table.prefix_frames,
                              table.prefix_parent.tolist()):
            scopes.append(correlator.frame_scope(
                scopes[par] if par >= 0 else None, frame))
        leaves = [
            correlator.leaf_scope(scopes[pid], line)
            for pid, line in zip(table.leaf_prefix().tolist(),
                                 table.leaf_lines)
        ]

        # breadth-first into arrays (the CCT itself is not kept); the
        # window frame orders its rows itself, so any order with the
        # root first will do
        nodes = [correlator.cct.root]
        parents = [-1]
        depths = [0]
        for row, node in enumerate(nodes):  # grows while it is walked
            for child in node.children:
                nodes.append(child)
                parents.append(row)
                depths.append(depths[row] + 1)
        row_of = {node.uid: row for row, node in enumerate(nodes)}
        return cls(
            table,
            np.array(parents, dtype=np.int64),
            np.array([_KIND_CODE[node.kind] for node in nodes],
                     dtype=np.int8),
            np.array(depths, dtype=np.int64),
            [node.name for node in nodes],
            np.array([row_of[leaf.uid] for leaf in leaves], dtype=np.int64),
        )

    def window_frame(self, ticks: np.ndarray, resolutions: np.ndarray,
                     metrics):
        """The query frame of a window from its exact tick sums.

        *ticks* is the window's ``(nranks, n_contexts, n_metrics)``
        int64 sum and *resolutions* the per-metric float resolution.  A
        ``(rank, context)`` pair is *touched* when any of its ticks is
        non-zero; the window's tree is the union tree cut down to the
        paths of touched contexts, rows in the order the per-window
        rebuild creates them, raw values summed as it sums them.
        """
        from repro.query.engine import TreeFrame

        nranks, n_ctx, width = ticks.shape
        ranks, ctxs = np.nonzero(ticks.any(axis=2))
        n_union = len(self.parent)
        if not len(ranks):
            return TreeFrame(metrics, self.names[:1],
                             np.full(1, -1, dtype=np.int64),
                             np.zeros(1, dtype=np.int64), self.kinds[:1],
                             np.zeros((1, len(metrics))))

        # processing order of the touched pairs: ranks in order, then the
        # rank's trie depth-first.  At each depth a pair's key is the
        # smallest touched context of its rank under its prefix there
        # (a trie node's children are ordered by it), -1 past its path
        # end (a node's own leaves come before its children); contexts
        # ending on one trie node keep context order
        table = self.table
        n_prefix = len(table.prefix_frames)
        depth_keys = []
        for row in table.prefix[:, ctxs]:
            live = row >= 0
            slot = ranks * n_prefix + row
            least = np.full(nranks * n_prefix, n_ctx, dtype=np.int64)
            np.minimum.at(least, slot[live], ctxs[live])
            depth_keys.append(np.where(live, least[np.where(live, slot, 0)],
                                       -1))
        # np.lexsort sorts by its last key first
        order = np.lexsort([ctxs, *reversed(depth_keys), ranks])
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))

        # first touch of every union scope: the earliest pair below it
        first = np.full(n_union, len(order), dtype=np.int64)
        leaf = self.leaf[ctxs]
        np.minimum.at(first, leaf, position)
        for rows in reversed(self.levels[1:]):
            np.minimum.at(first, self.parent[rows], first[rows])
        kept = np.flatnonzero(first < len(order))

        # preorder: sort kept scopes by the first-touch keys of their
        # ancestors, root down, -1 past their own depth
        max_depth = int(self.depth[kept].max())
        path_keys = np.full((max_depth + 1, len(kept)), -1, dtype=np.int64)
        at = kept.copy()
        idx = np.arange(len(kept))
        while len(at):
            path_keys[self.depth[at], idx] = first[at]
            up = self.parent[at]
            live = up >= 0
            at, idx = up[live], idx[live]
        rows = kept[np.lexsort(path_keys[::-1])]

        window_row = np.full(n_union, -1, dtype=np.int64)
        window_row[rows] = np.arange(len(rows))
        parent = self.parent[rows]
        parent = np.where(parent >= 0, window_row[parent], -1)

        # raw: each rank sums its contexts per leaf in processing order,
        # then the ranks add in rank order
        values = ticks[ranks, ctxs].astype(np.float64) * resolutions
        n = len(rows)
        per_rank = np.zeros((nranks * n, width))
        np.add.at(per_rank, (ranks * n + window_row[leaf])[order],
                  values[order])
        raw = np.zeros((n, len(metrics)))  # derived columns stay zero
        for r in range(nranks):
            raw[:, :width] += per_rank[r * n:(r + 1) * n]
        return TreeFrame(metrics, [self.names[r] for r in rows.tolist()],
                         parent, self.depth[rows], self.kinds[rows], raw)

