"""Call path profile data — the output of measurement (``hpcrun`` substrate).

A call path profile is a compact trie of dynamic call paths.  Each trie
node is one procedure activation context, keyed by *who* was called and
*from which source line*; raw sample costs hang off trie nodes keyed by the
leaf source line where the sample's program counter landed.

This is the measurement-side picture only: no loops, no inlining, no
static structure — exactly what an asynchronous-sampling profiler can see
from stack unwinds.  Fusing these paths with static structure into a
canonical CCT is the job of :mod:`repro.hpcprof.correlate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.errors import ProfilerError
from repro.core.metrics import MetricTable, MetricValues, add_into

__all__ = ["Frame", "PathNode", "ProfileData"]


@dataclass(frozen=True, slots=True)
class Frame:
    """One dynamic frame on a call path.

    ``call_line`` is the source line *in the caller* where this frame was
    invoked (0 for entry frames with no caller, e.g. ``main``).
    """

    proc: str
    file: str
    call_line: int = 0

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.proc, self.file, self.call_line)


class PathNode:
    """One node of the call-path trie (one procedure activation context)."""

    __slots__ = ("frame", "children", "leaf_costs")

    def __init__(self, frame: Frame | None = None) -> None:
        self.frame = frame
        self.children: dict[tuple[str, str, int], PathNode] = {}
        #: raw sample cost by leaf source line within this frame
        self.leaf_costs: dict[int, MetricValues] = {}

    def ensure_child(self, frame: Frame) -> "PathNode":
        node = self.children.get(frame.key)
        if node is None:
            node = PathNode(frame)
            self.children[frame.key] = node
        return node

    def add_cost(self, line: int, costs: Mapping[int, float]) -> None:
        if not costs:
            return
        slot = self.leaf_costs.setdefault(line, {})
        add_into(slot, costs)

    def walk(self) -> Iterator["PathNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())


class ProfileData:
    """A single-thread (or single-rank) call path profile.

    Parameters
    ----------
    metrics:
        The metric table; sample costs are keyed by metric id.
    rank, thread:
        Identity of the measured execution stream.
    """

    def __init__(
        self,
        metrics: MetricTable | None = None,
        rank: int = 0,
        thread: int = 0,
        program: str = "",
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricTable()
        self.rank = rank
        self.thread = thread
        self.program = program
        self.root = PathNode()
        self.sample_count = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def add_sample(
        self,
        frames: Sequence[Frame],
        leaf_line: int,
        costs: Mapping[int, float],
    ) -> None:
        """Record one sample: a full call path plus leaf-line costs.

        *frames* runs outermost-first.  Costs are keyed by metric id and
        already include the sampling period (cost = samples × period).
        """
        if not frames:
            raise ProfilerError("a sample needs at least one frame")
        node = self.root
        for frame in frames:
            node = node.ensure_child(frame)
        node.add_cost(leaf_line, costs)
        self.sample_count += 1

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return sum(1 for _ in self.root.walk()) - 1  # exclude synthetic root

    def totals(self) -> MetricValues:
        """Total raw cost per metric over the whole profile."""
        out: MetricValues = {}
        for node in self.root.walk():
            for costs in node.leaf_costs.values():
                add_into(out, costs)
        return out

    def paths(self) -> Iterator[tuple[list[Frame], int, MetricValues]]:
        """Yield ``(frames, leaf_line, costs)`` for every recorded context.

        Preorder over the trie (a node's contexts before its children's),
        with an explicit stack, so call paths deeper than the interpreter
        recursion limit are walked too.
        """
        stack: list[tuple[PathNode, list[Frame]]] = [(self.root, [])]
        while stack:
            node, prefix = stack.pop()
            if node.frame is not None:
                prefix = prefix + [node.frame]
            for line, costs in node.leaf_costs.items():
                yield prefix, line, costs
            stack.extend((child, prefix) for child in reversed(node.children.values()))

    # ------------------------------------------------------------------ #
    # transforms
    # ------------------------------------------------------------------ #
    def merge_into(self, other: "ProfileData") -> None:
        """Accumulate this profile's costs into *other* (same metric table)."""
        if other.metrics.names() != self.metrics.names():
            raise ProfilerError("cannot merge profiles with different metric tables")
        for src, dst in _walk_into(self.root, other.root):
            for line, costs in src.leaf_costs.items():
                dst.add_cost(line, costs)
        other.sample_count += self.sample_count

    def resampled(self, period: float, rng) -> "ProfileData":
        """Simulate asynchronous statistical sampling of this exact profile.

        Each leaf cost ``c`` becomes ``Poisson(c / period) × period`` — the
        unbiased async-sampling estimator.  Useful for studying how the
        presentation behaves under realistic sampling noise.
        """
        if period <= 0:
            raise ProfilerError(f"period must be positive, got {period}")
        out = ProfileData(self.metrics, rank=self.rank, thread=self.thread,
                          program=self.program)
        for src, dst in _walk_into(self.root, out.root):
            for line, costs in src.leaf_costs.items():
                noisy = {}
                for mid, value in costs.items():
                    drawn = float(rng.poisson(value / period)) * period
                    if drawn:
                        noisy[mid] = drawn
                if noisy:
                    dst.add_cost(line, noisy)
        out.sample_count = self.sample_count
        return out


def _walk_into(src: PathNode, dst: PathNode) -> Iterator[tuple[PathNode, PathNode]]:
    """``(source node, its twin under dst)`` in preorder, with an explicit
    stack, so tries deeper than the recursion limit copy too.  Twins are
    created in child order, so every children dict under *dst* gets the
    insertion order a recursive copy gives it."""
    stack = [(src, dst)]
    while stack:
        node, twin = stack.pop()
        yield node, twin
        pairs = [(child, twin.ensure_child(child.frame))
                 for child in node.children.values()]
        stack.extend(reversed(pairs))
