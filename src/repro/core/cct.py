"""The canonical calling context tree (canonical CCT).

The canonical CCT is the paper's central data structure (Section IV): a
fusion of dynamic calling context — a sequence of <call site, callee>
pairs — with static program structure (loop nests, inlined code,
statements).  Every scope in the tree is either *dynamic* (procedure
frames, call sites) or *static* (loops, statements); the hybrid
exclusive-metric rule of Eq. 1 dispatches on this classification.

Tree shape invariants:

* The root's children are procedure frames of entry points (e.g. ``main``).
* A ``FRAME``'s children are the static scopes executed inside it — loops
  and statements — plus ``CALL_SITE`` scopes at the source position of each
  call (call sites nest inside the loops that contain them).
* A ``CALL_SITE``'s children are the ``FRAME``\\ s of its callees (usually
  one; more with function pointers / virtual dispatch).
* ``STATEMENT`` scopes are leaves; raw sample costs live on statements and
  on call-site scopes (a sample whose program counter sits at the call
  instruction itself).

Raw metric values (``node.raw``) are what measurement produces; the
attributed ``exclusive`` / ``inclusive`` values are computed by
:mod:`repro.core.attribution`.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Iterator, Optional
from weakref import ref

from repro.errors import CorrelationError, StructureError
from repro.core.metrics import MetricValues, add_into
from repro.hpcstruct.model import StructKind, StructureModel, StructureNode

__all__ = ["CCTKind", "CCTNode", "CCT"]


class CCTKind(Enum):
    """Kinds of scopes appearing in a canonical CCT."""

    ROOT = "root"
    FRAME = "procedure-frame"    # dynamic: one invocation context of a procedure
    CALL_SITE = "call-site"      # dynamic: the call itself, at a source line
    LOOP = "loop"                # static: a loop nest level
    STATEMENT = "statement"      # static: a source line

    @property
    def is_dynamic(self) -> bool:
        """Dynamic scopes represent caller–callee relationships (Sec. IV-A)."""
        return self in (CCTKind.FRAME, CCTKind.CALL_SITE)

    @property
    def is_static(self) -> bool:
        return self in (CCTKind.LOOP, CCTKind.STATEMENT)


_uid_counter = itertools.count(1)


class CCTNode:
    """One scope instance in a canonical CCT.

    A node owns its children; its link to its parent is weak, so a tree
    holds no reference cycle and is freed by reference counting as soon
    as its owner (normally a :class:`CCT`) is dropped.  A node is valid
    while its owner lives: once the parent is gone, :attr:`parent`
    raises :class:`~repro.errors.StructureError` rather than reading as
    the root's "no parent".
    """

    __slots__ = (
        "uid",
        "kind",
        "struct",
        "line",
        "_parent",
        "children",
        "raw",
        "exclusive",
        "inclusive",
        "_child_index",
        "__weakref__",
    )

    def __init__(
        self,
        kind: CCTKind,
        struct: StructureNode | None = None,
        line: int = 0,
        parent: Optional["CCTNode"] = None,
    ) -> None:
        self.uid: int = next(_uid_counter)
        self.kind = kind
        #: associated static scope: the procedure for FRAMEs, the loop for
        #: LOOPs, the innermost enclosing static scope for statements and
        #: call sites (used to recover file/procedure identity).
        self.struct = struct
        #: source line for CALL_SITE / STATEMENT scopes
        self.line = line
        self._parent: ref | None = None
        self.children: list[CCTNode] = []
        self.raw: MetricValues = {}
        self.exclusive: MetricValues = {}
        self.inclusive: MetricValues = {}
        self._child_index: dict[tuple, CCTNode] = {}
        if parent is not None:
            parent._attach(self)

    @property
    def parent(self) -> Optional["CCTNode"]:
        """The enclosing scope; None only for a root."""
        link = self._parent
        if link is None:
            return None
        node = link()
        if node is None:
            raise _owner_gone(self)
        return node

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    @property
    def key(self) -> tuple:
        """Identity of this scope among its siblings (used for merging)."""
        struct_id = self.struct.uid if self.struct is not None else 0
        # ``_value_`` is ``value`` without the enum descriptor's cost;
        # every attach computes a key
        return (self.kind._value_, struct_id, self.line)

    @property
    def name(self) -> str:
        """Display name of the scope."""
        if self.kind is CCTKind.ROOT:
            return "<program root>"
        if self.kind is CCTKind.FRAME:
            return self.struct.name if self.struct is not None else "<unknown>"
        if self.kind is CCTKind.LOOP:
            if self.struct is None:
                return "loop"
            if self.struct.kind is StructKind.INLINED_PROC:
                return self.struct.name  # inlined code keeps its identity
            return f"loop at {self.struct.location}"
        file = self.file
        return f"{file}:{self.line}" if file else f"line {self.line}"

    @property
    def file(self) -> str:
        if self.struct is None:
            return ""
        file_scope = self.struct.enclosing_file
        if file_scope is not None:
            return file_scope.name
        return self.struct.location.file

    @property
    def procedure(self) -> StructureNode | None:
        """The static procedure this scope belongs to.

        For a FRAME this is its own procedure; for inner scopes it is the
        procedure of the enclosing frame.
        """
        if self.kind is CCTKind.FRAME:
            return self.struct
        frame = self.enclosing_frame
        return frame.struct if frame is not None else None

    @property
    def enclosing_frame(self) -> Optional["CCTNode"]:
        """The innermost enclosing procedure frame (self, if a frame)."""
        node = self
        while node is not None and node.kind is not CCTKind.FRAME:
            node = node.parent
        return node

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _attach(self, child: "CCTNode") -> None:
        self._child_index[child.key] = child
        self.children.append(child)
        child._parent = ref(self)

    def _ensure(self, kind: CCTKind, struct: StructureNode | None, line: int) -> "CCTNode":
        struct_id = struct.uid if struct is not None else 0
        key = (kind._value_, struct_id, line)
        node = self._child_index.get(key)
        if node is None:
            node = CCTNode(kind, struct=struct, line=line, parent=self)
        return node

    def ensure_frame(self, proc: StructureNode) -> "CCTNode":
        """Get or create the callee frame for *proc* under this scope."""
        if proc.kind not in (StructKind.PROCEDURE, StructKind.INLINED_PROC):
            raise CorrelationError(f"frame requires a procedure scope, got {proc.kind}")
        if self.kind not in (CCTKind.ROOT, CCTKind.CALL_SITE):
            raise CorrelationError(
                f"procedure frames may only appear under the root or a call "
                f"site, not under {self.kind.value}"
            )
        return self._ensure(CCTKind.FRAME, proc, 0)

    def ensure_loop(self, loop: StructureNode) -> "CCTNode":
        if not loop.kind.is_loop and loop.kind is not StructKind.INLINED_PROC:
            raise CorrelationError(f"loop scope requires a loop, got {loop.kind}")
        return self._ensure(CCTKind.LOOP, loop, loop.location.line)

    def ensure_call_site(self, line: int, struct: StructureNode | None = None) -> "CCTNode":
        return self._ensure(CCTKind.CALL_SITE, struct or self.struct, line)

    def ensure_statement(self, line: int, struct: StructureNode | None = None) -> "CCTNode":
        return self._ensure(CCTKind.STATEMENT, struct or self.struct, line)

    def add_raw(self, values: dict[int, float] | None = None, **_ignored) -> None:
        """Accumulate raw sample cost onto this scope."""
        if values:
            add_into(self.raw, values)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def walk(self) -> Iterator["CCTNode"]:
        """Preorder traversal of this subtree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def walk_postorder(self) -> Iterator["CCTNode"]:
        """Postorder traversal (children before parents), iterative."""
        stack: list[tuple[CCTNode, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))

    def ancestors(self) -> Iterator["CCTNode"]:
        """Proper ancestors, innermost first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def call_path(self) -> list["CCTNode"]:
        """The chain of procedure frames from the root down to this scope."""
        frames = [n for n in self.ancestors() if n.kind is CCTKind.FRAME]
        if self.kind is CCTKind.FRAME:
            frames.insert(0, self)
        frames.reverse()
        return frames

    @property
    def depth(self) -> int:
        return sum(1 for _ in self.ancestors())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CCTNode {self.kind.value} {self.name!r} uid={self.uid}>"


def _owner_gone(node: CCTNode) -> StructureError:
    return StructureError(
        f"the tree owning scope {node.kind.value} uid={node.uid} was "
        f"dropped; keep its CCT alive while using its nodes"
    )


class CCT:
    """A canonical calling context tree: a root plus node-count bookkeeping.

    The tree owns its nodes (see :class:`CCTNode`) and pins *structure*,
    the :class:`~repro.hpcstruct.model.StructureModel` its scopes' static
    links point into, so a scope's file and procedure stay readable for
    as long as the tree lives.

    The tree carries a *version* counter used to invalidate derived caches
    (the ``frames_by_procedure`` index and the columnar
    :class:`~repro.core.engine.MetricEngine` projection).  Every operation
    that mutates the tree's shape or metric values —
    :meth:`prune`, :func:`repro.core.attribution.attribute`,
    :func:`repro.hpcprof.merge.merge_ccts`, correlation, summarization —
    calls :meth:`invalidate_caches`; code that mutates nodes directly must
    do the same before relying on cached projections.
    """

    def __init__(self, structure: StructureModel | None = None) -> None:
        self.root = CCTNode(CCTKind.ROOT)
        #: the structure model this tree's ``struct`` links point into
        self.structure = structure
        self._version: int = 0
        self._frames_cache: dict[StructureNode, list[CCTNode]] | None = None
        #: cached columnar projection, managed by :mod:`repro.core.engine`
        self._engine = None

    @property
    def version(self) -> int:
        """Monotonic mutation counter (cache-invalidation token)."""
        return self._version

    def invalidate_caches(self) -> None:
        """Drop cached projections after a shape or value mutation."""
        self._version += 1
        self._frames_cache = None
        self._engine = None

    def __len__(self) -> int:
        return sum(1 for _ in self.root.walk())

    def walk(self) -> Iterator[CCTNode]:
        return self.root.walk()

    def frames(self) -> Iterator[CCTNode]:
        """All procedure-frame scopes in the tree."""
        for node in self.root.walk():
            if node.kind is CCTKind.FRAME:
                yield node

    def frames_by_procedure(self) -> dict[StructureNode, list[CCTNode]]:
        """Group frame instances by their static procedure (cached).

        This index drives both the Callers View (top-level entries) and the
        Flat View (procedure-level aggregation); both consult it on every
        build, so the full-tree walk is cached and invalidated alongside
        the other projections on merge/prune.  Treat the returned mapping
        as read-only.
        """
        if self._frames_cache is None:
            index: dict[StructureNode, list[CCTNode]] = {}
            for frame in self.frames():
                index.setdefault(frame.struct, []).append(frame)
            self._frames_cache = index
        return self._frames_cache

    def prune(self, keep: Callable[[CCTNode], bool] | None = None) -> int:
        """Remove subtrees with no raw metrics anywhere (sparseness rule).

        The paper: "there is no representation for a scope unless there is
        a non-zero performance metric or it is a parent of another scope
        that meets this criteria."  Returns the number of removed nodes.

        Iterative (children decided before their parent via the postorder
        walk), so chains deeper than the interpreter recursion limit prune
        correctly.
        """
        keep = keep or (lambda node: bool(node.raw))
        removed = 0
        keep_flags: dict[int, bool] = {}

        for node in self.root.walk_postorder():
            kept_children = []
            for child in node.children:
                if keep_flags.pop(child.uid):
                    kept_children.append(child)
                else:
                    removed += sum(1 for _ in child.walk())
                    node._child_index.pop(child.key, None)
            node.children = kept_children
            keep_flags[node.uid] = bool(kept_children) or keep(node)

        if removed:
            self.invalidate_caches()
        return removed
