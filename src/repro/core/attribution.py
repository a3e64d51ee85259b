"""Metric attribution over the canonical CCT (Section IV, Eqs. 1 and 2).

Measurement attributes raw sample costs to leaf scopes (statements, and
call-site scopes when the program counter sits at the call instruction).
Attribution turns these raw values into the *exclusive* and *inclusive*
values every view presents.

Exclusive values follow the paper's hybrid rule (Eq. 1), dispatching on the
dynamic/static classification of the scope:

* **procedure frame** (dynamic) — the sum of raw costs of every descendant
  statement reachable without crossing a call site, i.e. all cost incurred
  *within the frame* regardless of loop nesting;
* **loop** (static, not a frame) — its own raw cost plus the raw cost of
  its direct child statements and call-site lines; nested loops are *not*
  included ("the exclusive cost of l1 does not include the cost of l2 …
  since l2 is not a statement");
* **statement / call site** — its own raw cost (a call site's exclusive
  cost "only includes the cost of its invocation", rule 1).

Inclusive values (Eq. 2) are the straightforward bottom-up sum: a scope's
raw cost plus the inclusive cost of its children.

The module also implements the *exposed-instance* rule of Section IV-B: to
aggregate a set of CCT instances of one procedure (for the Callers and
Flat views) without double counting recursive chains, only instances with
no ancestor instance in the same set contribute.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence

from repro.core.cct import CCT, CCTKind, CCTNode
from repro.core.metrics import MetricValues, add_into, total

__all__ = [
    "attribute",
    "attribute_dicts",
    "exposed_instances",
    "exposed_sum",
    "aggregate_exposed",
]

#: below this node count the columnar engine's array build/scatter overhead
#: outweighs its vectorized kernels, so ``attribute`` keeps the dict path.
#: Measured (attribution + engine build per tree, dict -> engine): fig1
#: 130 -> 176 us, pflotran 181 -> 417 us, s3d 634 -> 655 us, moab 488 ->
#: 469 us; forcing the engine on every tree cost the paper-model
#: ``explore-paper`` benchmark ~3% throughput (docs/performance.md)
COLUMNAR_MIN_NODES = 128


def attribute(cct: CCT) -> None:
    """Compute ``exclusive`` and ``inclusive`` for every scope, in place.

    This is the paper's *initialization* step.  Safe to call repeatedly;
    values are recomputed from ``raw`` each time.

    Two equivalent backends exist (see ``docs/performance.md``): the
    sparse-dict reference path and the columnar
    :class:`~repro.core.engine.MetricEngine` path, whose vectorized
    kernels replicate the dict path's floating-point evaluation order so
    the results agree bit-for-bit.  Trees of at least
    ``COLUMNAR_MIN_NODES`` scopes take the engine, smaller ones the dicts;
    call :func:`attribute_dicts` or
    :func:`~repro.core.engine.attribute_columnar` to pin a backend.
    """
    # count no further than the threshold: the choice walks at most
    # COLUMNAR_MIN_NODES scopes, however large the tree
    last = next(islice(cct.walk(), COLUMNAR_MIN_NODES - 1, None), None)
    if last is not None:
        from repro.core.engine import attribute_columnar  # lazy: import cycle

        attribute_columnar(cct)
    else:
        attribute_dicts(cct)


def attribute_dicts(cct: CCT) -> None:
    """The sparse-dict attribution backend (reference implementation).

    One postorder pass computes both equations.  The within-frame raw sums
    of Eq. 1 are carried bottom-up as per-node subtotals (a scope's raw
    cost plus the subtotals of its non-frame children) rather than by a
    per-frame descendant walk: the arithmetic visits each scope once, and
    the per-parent, child-order accumulation matches the columnar engine's
    segment-add kernels addition for addition.
    """
    within: dict[int, MetricValues] = {}  # uid -> within-frame raw subtotal
    for node in cct.root.walk_postorder():
        # -- inclusive: Eq. 2 ------------------------------------------- #
        incl: MetricValues = dict(node.raw)
        for child in node.children:
            add_into(incl, child.inclusive)
        node.inclusive = incl

        # -- within-frame subtotal: raw + non-frame children's subtotals - #
        sub: MetricValues = dict(node.raw)
        for child in node.children:
            if child.kind is not CCTKind.FRAME:
                add_into(sub, within.pop(child.uid))

        # -- exclusive: Eq. 1 (hybrid rule) ----------------------------- #
        if node.kind in (CCTKind.STATEMENT, CCTKind.CALL_SITE):
            node.exclusive = dict(node.raw)
        elif node.kind is CCTKind.LOOP:
            excl: MetricValues = dict(node.raw)
            for child in node.children:
                if child.kind in (CCTKind.STATEMENT, CCTKind.CALL_SITE):
                    add_into(excl, child.raw)
            node.exclusive = excl
        elif node.kind is CCTKind.FRAME:
            node.exclusive = sub
        else:  # ROOT
            node.exclusive = dict(node.raw)

        if node.kind is not CCTKind.FRAME:
            # a frame's subtotal never propagates (the Eq. 1 barrier)
            within[node.uid] = sub
    cct.invalidate_caches()


def exposed_instances(instances: Iterable[CCTNode]) -> list[CCTNode]:
    """Return the *exposed* members of an instance set.

    An instance is exposed if it has no proper ancestor that is also in the
    set (Section IV-B).  Summing inclusive costs over exposed instances
    only avoids double-counting recursive chains.
    """
    nodes = list(instances)
    member_uids = {n.uid for n in nodes}
    exposed: list[CCTNode] = []
    for node in nodes:
        if not any(a.uid in member_uids for a in node.ancestors()):
            exposed.append(node)
    return exposed


def exposed_sum(
    instances: Sequence[CCTNode],
    *,
    inclusive: bool = True,
) -> MetricValues:
    """Sum inclusive (or exclusive) values over the exposed instances.

    Both flavours are aggregated over exposed instances only, matching the
    worked example of Figure 2: the Callers View top-level entry for the
    recursive procedure ``g`` shows inclusive 9 (= g1:6 + g3:3) and
    exclusive 4 (= g1:1 + g3:3); the nested instance g2 contributes to
    neither, its cost being visible under the recursive-caller child.
    """
    exposed = exposed_instances(instances)
    if inclusive:
        return total(n.inclusive for n in exposed)
    return total(n.exclusive for n in exposed)


def aggregate_exposed(instances: Sequence[CCTNode]) -> tuple[MetricValues, MetricValues]:
    """Return ``(inclusive, exclusive)`` aggregates over exposed instances."""
    exposed = exposed_instances(instances)
    return (
        total(n.inclusive for n in exposed),
        total(n.exclusive for n in exposed),
    )
