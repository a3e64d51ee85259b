"""Static program structure model (the ``hpcstruct`` substrate).

HPCToolkit's ``hpcstruct`` recovers a program's static structure from its
binary: load modules, source files, procedures, loop nests, inlined code and
statements.  The presentation layer treats this structure as first-class
information: the canonical calling context tree (CCT) fuses dynamic call
paths with these static scopes, and the Flat View is organized around them.

This module defines the structure tree itself.  Builders live in
:mod:`repro.hpcstruct.pystruct` (recovery from Python source via ``ast``)
and :mod:`repro.hpcstruct.synthstruct` (from synthetic program models).

A :class:`StructureNode` tree has the shape::

    Root
      LoadModule
        File
          Procedure
            Loop
              Loop
                Statement
            Statement (a call-site statement carries ``calls`` targets)

Inlined code appears as ``INLINED_PROC`` / ``INLINED_LOOP`` scopes nested
inside the procedure into which the compiler inlined it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional
from weakref import ref

from repro.errors import StructureError

__all__ = [
    "StructKind",
    "SourceLocation",
    "StructureNode",
    "StructureModel",
    "UNKNOWN_FILE",
    "UNKNOWN_PROC",
]

UNKNOWN_FILE = "<unknown file>"
UNKNOWN_PROC = "<unknown procedure>"


class StructKind(Enum):
    """Kinds of static program scopes."""

    ROOT = "root"
    LOAD_MODULE = "load-module"
    FILE = "file"
    PROCEDURE = "procedure"
    LOOP = "loop"
    STATEMENT = "statement"
    INLINED_PROC = "inlined-procedure"
    INLINED_LOOP = "inlined-loop"

    @property
    def is_inlined(self) -> bool:
        return self in (StructKind.INLINED_PROC, StructKind.INLINED_LOOP)

    @property
    def is_loop(self) -> bool:
        return self in (StructKind.LOOP, StructKind.INLINED_LOOP)


@dataclass(frozen=True, slots=True)
class SourceLocation:
    """A source coordinate: file path plus a begin/end line range."""

    file: str = UNKNOWN_FILE
    line: int = 0
    end_line: int = 0

    def __post_init__(self) -> None:
        if self.end_line < self.line:
            object.__setattr__(self, "end_line", self.line)

    def contains_line(self, line: int) -> bool:
        """True when *line* falls within this scope's line range."""
        return self.line <= line <= self.end_line

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.line == self.end_line:
            return f"{self.file}:{self.line}"
        return f"{self.file}:{self.line}-{self.end_line}"


_node_ids = itertools.count(1)


class StructureNode:
    """One scope in the static structure tree.

    Nodes are identified for correlation/merging purposes by their
    :attr:`key` — ``(kind, name, file, line)`` relative to the parent — so
    two independently built structure trees for the same program agree on
    node identity.

    A node owns its children and links to its parent weakly, so the tree
    is acyclic and is freed by reference counting.  A node is valid while
    its owner (normally a :class:`StructureModel`) lives: once the parent
    is gone, :attr:`parent` raises :class:`~repro.errors.StructureError`.
    """

    __slots__ = (
        "uid",
        "kind",
        "name",
        "location",
        "_parent",
        "children",
        "calls",
        "_child_index",
        "__weakref__",
    )

    def __init__(
        self,
        kind: StructKind,
        name: str = "",
        location: SourceLocation | None = None,
        parent: Optional["StructureNode"] = None,
    ) -> None:
        self.uid: int = next(_node_ids)
        self.kind = kind
        self.name = name
        self.location = location or SourceLocation()
        self._parent: ref | None = None
        self.children: list[StructureNode] = []
        #: procedure names this statement may call (call-site statements only)
        self.calls: tuple[str, ...] = ()
        self._child_index: dict[tuple, StructureNode] = {}
        if parent is not None:
            parent._attach(self)

    @property
    def parent(self) -> Optional["StructureNode"]:
        """The enclosing scope; None only for a root."""
        link = self._parent
        if link is None:
            return None
        node = link()
        if node is None:
            raise _owner_gone(self)
        return node

    # ------------------------------------------------------------------ #
    # identity & hierarchy
    # ------------------------------------------------------------------ #
    @property
    def key(self) -> tuple:
        """Identity of this node among its siblings."""
        # ``_value_`` is ``value`` without the enum descriptor's cost
        return (self.kind._value_, self.name, self.location.file,
                self.location.line)

    def _attach(self, child: "StructureNode") -> None:
        key = child.key
        if key in self._child_index:
            raise StructureError(
                f"duplicate structure scope {key!r} under {self.describe()}"
            )
        self._child_index[key] = child
        self.children.append(child)
        child._parent = ref(self)

    def child_by_key(self, key: tuple) -> Optional["StructureNode"]:
        return self._child_index.get(key)

    def ancestors(self) -> Iterator["StructureNode"]:
        """Yield proper ancestors, innermost first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def walk(self) -> Iterator["StructureNode"]:
        """Yield this node and all descendants, preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    # ------------------------------------------------------------------ #
    # typed navigation
    # ------------------------------------------------------------------ #
    def _enclosing(self, kinds: tuple) -> Optional["StructureNode"]:
        """The innermost of self and its ancestors of one of *kinds*."""
        node = self
        while node is not None and node.kind not in kinds:
            node = node.parent
        return node

    @property
    def enclosing_procedure(self) -> Optional["StructureNode"]:
        """The innermost enclosing (possibly inlined) procedure scope."""
        return self._enclosing(_PROCEDURE_KINDS)

    @property
    def enclosing_file(self) -> Optional["StructureNode"]:
        return self._enclosing(_FILE_KINDS)

    def describe(self) -> str:
        """Human-readable description, e.g. ``procedure g @ file2.c:2``."""
        label = self.name or self.kind.value
        return f"{self.kind.value} {label} @ {self.location}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StructureNode {self.describe()}>"


_PROCEDURE_KINDS = (StructKind.PROCEDURE, StructKind.INLINED_PROC)
_FILE_KINDS = (StructKind.FILE,)


def _owner_gone(node: StructureNode) -> StructureError:
    return StructureError(
        f"the structure model owning {node.describe()} was dropped; "
        f"keep it alive (a CCT pins its own) while using its scopes"
    )


class StructureModel:
    """A whole-program static structure tree with lookup indexes.

    The model owns a single ``ROOT`` node; load modules hang beneath it.
    Lookup goes two ways:

    * :meth:`procedure` — find a procedure scope by (module, file, name).
    * :meth:`scope_chain_for_line` — map ``(file, line)`` within a
      procedure to the innermost chain of loop scopes enclosing that line,
      which is how correlation fuses a dynamic call path with loop nests.
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.root = StructureNode(StructKind.ROOT, name=name)
        self._procs: dict[tuple[str, str], StructureNode] = {}
        self._procs_by_name: dict[str, list[StructureNode]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_load_module(self, name: str) -> StructureNode:
        key = (StructKind.LOAD_MODULE.value, name, UNKNOWN_FILE, 0)
        existing = self.root.child_by_key(key)
        if existing is not None:
            return existing
        return StructureNode(StructKind.LOAD_MODULE, name=name, parent=self.root)

    def add_file(self, module: StructureNode, path: str) -> StructureNode:
        if module.kind is not StructKind.LOAD_MODULE:
            raise StructureError("files must be added under a load module")
        key = (StructKind.FILE.value, path, path, 0)
        existing = module.child_by_key(key)
        if existing is not None:
            return existing
        return StructureNode(
            StructKind.FILE,
            name=path,
            location=SourceLocation(file=path),
            parent=module,
        )

    def add_procedure(
        self,
        file_scope: StructureNode,
        name: str,
        line: int,
        end_line: int | None = None,
    ) -> StructureNode:
        if file_scope.kind is not StructKind.FILE:
            raise StructureError("procedures must be added under a file")
        loc = SourceLocation(
            file=file_scope.location.file, line=line, end_line=end_line or line
        )
        proc = StructureNode(StructKind.PROCEDURE, name=name, location=loc, parent=file_scope)
        self._register_procedure(proc)
        return proc

    def _register_procedure(self, proc: StructureNode) -> None:
        file = proc.location.file
        self._procs[(file, proc.name)] = proc
        self._procs_by_name.setdefault(proc.name, []).append(proc)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def procedure(self, name: str, file: str | None = None) -> StructureNode:
        """Find a procedure scope by name (optionally qualified by file)."""
        if file is not None:
            proc = self._procs.get((file, name))
            if proc is None:
                raise StructureError(f"unknown procedure {name!r} in {file!r}")
            return proc
        candidates = self._procs_by_name.get(name, [])
        if not candidates:
            raise StructureError(f"unknown procedure {name!r}")
        if len(candidates) > 1:
            files = sorted(p.location.file for p in candidates)
            raise StructureError(
                f"ambiguous procedure {name!r}; defined in {files}; pass file="
            )
        return candidates[0]

    def procedures_named(self, name: str) -> list[StructureNode]:
        """Every procedure scope called *name*, in registration order."""
        return list(self._procs_by_name.get(name, ()))

    def find_procedure(self, name: str, file: str | None = None) -> StructureNode | None:
        """Like :meth:`procedure` but returns None instead of raising."""
        try:
            return self.procedure(name, file)
        except StructureError:
            return None

    def procedures(self) -> Iterator[StructureNode]:
        yield from self._procs.values()

    @staticmethod
    def scope_chain_for_line(proc: StructureNode, line: int) -> list[StructureNode]:
        """Innermost loop/inline scope chain enclosing *line* within *proc*.

        Returns the chain outermost-first, excluding *proc* itself.  A line
        outside every loop yields an empty chain.  Nested candidates are
        resolved by depth (innermost match wins) and, among siblings, the
        first whose range contains the line.
        """
        chain: list[StructureNode] = []
        node = proc
        descended = True
        while descended:
            descended = False
            for child in node.children:
                if child.kind in (
                    StructKind.LOOP,
                    StructKind.INLINED_LOOP,
                    StructKind.INLINED_PROC,
                ) and child.location.contains_line(line):
                    chain.append(child)
                    node = child
                    descended = True
                    break
        return chain

    def merge_from(self, other: "StructureModel") -> None:
        """Graft scopes from *other* into this model (union by key).

        Preorder with an explicit stack, so scopes are created (and
        procedures registered) in the order a recursive graft visits them.
        """
        stack = [(self.root, child) for child in reversed(other.root.children)]
        while stack:
            dst, child = stack.pop()
            mine = dst.child_by_key(child.key)
            if mine is None:
                mine = StructureNode(child.kind, child.name, child.location, parent=dst)
                mine.calls = child.calls
                if child.kind is StructKind.PROCEDURE:
                    self._register_procedure(mine)
            stack.extend((mine, grandchild) for grandchild in reversed(child.children))

    def stats(self) -> dict[str, int]:
        """Count scopes by kind — useful for tests and reports."""
        counts: dict[str, int] = {}
        for node in self.root.walk():
            counts[node.kind.value] = counts.get(node.kind.value, 0) + 1
        return counts
