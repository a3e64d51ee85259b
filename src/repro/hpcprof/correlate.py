"""Correlation of dynamic call path profiles with static structure.

This is the ``hpcprof`` substrate's core step: fuse the measured call-path
trie (:class:`~repro.hpcrun.profile_data.ProfileData`) with the program's
static structure (:class:`~repro.hpcstruct.model.StructureModel`) into the
*canonical calling context tree* the presentation layer consumes.

Fusion rules (Section III-A, III-D of the paper):

* each dynamic frame becomes a ``FRAME`` scope linked to its static
  procedure;
* the call site that created a frame is nested inside the loop chain that
  statically encloses the call line in the *caller* — this is how the
  Calling Context View interleaves loops with call chains ("the call chain
  presented includes both dynamic context and the loop nests surrounding
  these procedure calls");
* a leaf sample is attributed to a ``STATEMENT`` scope nested inside the
  loop/inlining chain enclosing its line — or to the ``CALL_SITE`` scope at
  that line when the line is a known call site (cost at the call
  instruction itself);
* procedures unknown to the structure model (binary-only runtime code,
  e.g. libc or interpreter internals) are attached to a synthetic
  ``<unknown>`` load module, mirroring hpcviewer's plain-black entries
  "with no associated source code".

Both entry points walk the profile's call-path trie once
(:meth:`Correlator._frame_scopes`): a trie node's frame scope is
resolved when the first context below it is, instead of re-inserting
every path from the root, and the scopes come out in the order a
path-by-path insertion would create them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.cct import CCT, CCTNode
from repro.core.metrics import MetricValues, add_into
from repro.errors import CorrelationError
from repro.hpcrun.profile_data import Frame, ProfileData
from repro.hpcstruct.model import (
    UNKNOWN_FILE,
    StructKind,
    StructureModel,
    StructureNode,
)

__all__ = ["Correlator", "correlate", "rank_tree"]

_UNKNOWN_MODULE = "<unknown load module>"


class Correlator:
    """Stateful correlator: one structure model, possibly many profiles.

    Correlating several profiles against the same ``Correlator`` merges
    them into a single CCT with summed raw costs (the multi-thread /
    multi-rank union).  :meth:`add_rank` builds the same union with
    :func:`~repro.hpcprof.merge.merge_ccts`' exact per-rank sums and
    keeps what :func:`rank_tree` needs to rebuild each rank's own tree.
    """

    def __init__(self, structure: StructureModel) -> None:
        self.structure = structure
        self.cct = CCT(structure)
        self._proc_cache: dict[tuple[str, str], StructureNode] = {}
        self._call_lines: dict[int, set[int]] = {}

    # ------------------------------------------------------------------ #
    def add_profile(self, profile: ProfileData) -> None:
        """Fuse one profile's call paths into the CCT.

        Walks the call-path trie (:meth:`_frame_scopes`), so each trie
        node's frame scope is resolved once, not once per path through
        it; costs land on their leaf scopes in ``profile.paths()``
        order.
        """
        for scope, leaf_line, costs in self._frame_scopes(profile):
            self.leaf_scope(scope, leaf_line).add_raw(costs)
        self.cct.invalidate_caches()  # shape and raw values changed

    def add_rank(self, profile: ProfileData) -> list[tuple[CCTNode, MetricValues]]:
        """Fuse one rank's paths into the union, summing per rank first.

        Each leaf's costs are summed in a per-rank buffer in
        ``profile.paths()`` order, then added into the union leaf once,
        so the union's raw values, key order and child order equal
        :func:`~repro.hpcprof.merge.merge_ccts` over per-rank trees
        added in the same rank order.  Procedures resolve afresh for
        every rank, as a per-rank correlator would.

        Returns the rank's ``(union leaf, raw sum)`` pairs in first-touch
        order — the input of :func:`rank_tree`.
        """
        self._proc_cache = {}
        sums: dict[int, tuple[CCTNode, MetricValues]] = {}
        for scope, leaf_line, costs in self._frame_scopes(profile):
            leaf = self.leaf_scope(scope, leaf_line)
            entry = sums.get(leaf.uid)
            if entry is None:
                entry = sums[leaf.uid] = (leaf, {})
            add_into(entry[1], costs)
        for leaf, raw in sums.values():
            add_into(leaf.raw, raw)
        self.cct.invalidate_caches()
        return list(sums.values())

    # ------------------------------------------------------------------ #
    def _resolve_proc(self, frame: Frame) -> StructureNode:
        key = (frame.file, frame.proc)
        proc = self._proc_cache.get(key)
        if proc is not None:
            return proc
        proc = self.structure.find_procedure(frame.proc, frame.file or None)
        if proc is None and not frame.file:
            # an ambiguous file-less name: the procedure synthesized for
            # it before (by another rank or correlator), if there is one
            proc = self.structure.find_procedure(frame.proc, UNKNOWN_FILE)
        if proc is None:
            # binary-only code: synthesize structure under <unknown>
            lm = self.structure.add_load_module(_UNKNOWN_MODULE)
            file_scope = self.structure.add_file(lm, frame.file or UNKNOWN_FILE)
            proc = self.structure.add_procedure(file_scope, frame.proc, 0)
        self._proc_cache[key] = proc
        return proc

    def resolves_stably(self, frames: Iterable[Frame]) -> bool:
        """Whether each of *frames* resolves to one procedure for good.

        Resolution synthesizes a procedure for code the structure does
        not know, and a file-less frame resolves by name only while that
        name is unambiguous.  So once a synthesized procedure shares its
        name with a file-less frame's, or a file-less name is already
        ambiguous, which procedure a frame gets depends on the order
        frames are seen (and every rank may get a new one).  True when
        that cannot happen: resolving *frames* in any order, any number
        of times, yields the same procedures.
        """
        idents = {(frame.proc, frame.file) for frame in frames}
        synthesized: dict[str, int] = {}
        for name, file in idents:
            if self.structure.find_procedure(name, file or None) is None:
                synthesized[name] = synthesized.get(name, 0) + 1
        return all(
            len(self.structure.procedures_named(name))
            + synthesized.get(name, 0) == 1
            for name, file in idents
            if not file
        )

    def _call_line_set(self, proc: StructureNode) -> set[int]:
        lines = self._call_lines.get(proc.uid)
        if lines is None:
            lines = {line for line, _callee in proc.calls} if proc.calls else set()
            self._call_lines[proc.uid] = lines
        return lines

    def _descend_loops(self, node: CCTNode, proc: StructureNode, line: int) -> CCTNode:
        """Create/visit the CCT loop chain enclosing *line* within *proc*."""
        for scope in StructureModel.scope_chain_for_line(proc, line):
            node = node.ensure_loop(scope)
        return node

    def frame_scope(self, caller: CCTNode | None, frame: Frame) -> CCTNode:
        """Create/visit the scope of *frame* called from frame scope *caller*.

        With *caller* None, *frame* is an entry frame under the root;
        otherwise its call site nests in the loop chain that encloses
        ``frame.call_line`` in the caller's procedure.
        """
        proc = self._resolve_proc(frame)
        if caller is None:
            return self.cct.root.ensure_frame(proc)
        struct = caller.struct
        anchor = self._descend_loops(caller, struct, frame.call_line)
        site = anchor.ensure_call_site(frame.call_line, struct=struct)
        return site.ensure_frame(proc)

    def _frame_scopes(self, profile: ProfileData):
        """``(frame scope, leaf line, costs)`` in ``profile.paths()`` order.

        Walks the call-path trie instead of re-inserting every path: a
        trie node's frame scope is resolved once, when the first context
        below it is, so scopes are created in the order and with the
        procedure resolutions a path-by-path insertion from the root
        would produce.  A context with no frame is an empty call path.
        """
        if profile.root.leaf_costs:
            raise CorrelationError("empty call path")
        # entries: [trie node, parent entry, frame scope once resolved]
        stack = [[child, None, None]
                 for child in reversed(profile.root.children.values())]
        while stack:
            entry = stack.pop()
            node = entry[0]
            if node.leaf_costs:
                scope = entry[2] or self._resolve_scope(entry)
                for line, costs in node.leaf_costs.items():
                    yield scope, line, costs
            for child in reversed(node.children.values()):
                stack.append([child, entry, None])

    def _resolve_scope(self, entry: list) -> CCTNode:
        """The frame scope of a trie entry, resolving unresolved parents."""
        chain = []
        while entry is not None and entry[2] is None:
            chain.append(entry)
            entry = entry[1]
        scope = entry[2] if entry is not None else None
        for entry in reversed(chain):
            scope = entry[2] = self.frame_scope(scope, entry[0].frame)
        return scope

    def leaf_scope(self, frame_node: CCTNode, line: int) -> CCTNode:
        """Create/visit the scope a sample at *line* of a frame lands on."""
        proc = frame_node.struct
        anchor = self._descend_loops(frame_node, proc, line)
        if line in self._call_line_set(proc):
            return anchor.ensure_call_site(line, struct=proc)
        return anchor.ensure_statement(line, struct=proc)


def correlate(profile: ProfileData, structure: StructureModel) -> CCT:
    """Correlate a single profile, returning its canonical CCT."""
    correlator = Correlator(structure)
    correlator.add_profile(profile)
    return correlator.cct


def rank_tree(leaves: Sequence[tuple[CCTNode, MetricValues]]) -> CCT:
    """One rank's own (unattributed) CCT from :meth:`Correlator.add_rank`.

    Copies each leaf's path from the union root in first-touch order and
    gives the leaf its rank sum: the nodes, child order and raw values a
    separate correlator builds from the same profile.
    """
    cct = CCT()
    copies: dict[int, CCTNode] = {}
    for leaf, raw in leaves:
        chain = []
        node = leaf
        while node.parent is not None and node.uid not in copies:
            chain.append(node)
            node = node.parent
        mine = copies.get(node.uid, cct.root)
        for src in reversed(chain):
            mine = CCTNode(src.kind, struct=src.struct, line=src.line,
                           parent=mine)
            copies[src.uid] = mine
        mine.raw = dict(raw)
    cct.invalidate_caches()
    return cct
