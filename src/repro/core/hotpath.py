"""Hot path analysis (Section V-C, Eq. 3).

Given a starting scope ``x``, a metric, and a threshold ``t`` (default
50%), the hot path extends from ``x`` through the child with the maximum
inclusive metric value, as long as that child accounts for at least
``t × mI(x)``; it ends at the first scope whose heaviest child falls below
the threshold — the scope where the cost stops being concentrated, i.e.
the potential bottleneck.

Hot path analysis is deliberately generic: it can start at *any* scope of
*any* view (not just the CCT root) and use *any* metric, including derived
metrics — "it is not just something that one applies to the root of the
calling context tree".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ViewError
from repro.core.metrics import MetricFlavor, MetricKind, MetricSpec
from repro.core.views import View, ViewNode

__all__ = ["DEFAULT_THRESHOLD", "HotPathResult", "hot_path", "hot_path_generic"]

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class HotPathResult:
    """The expanded hot path and the scope it pinpoints."""

    path: tuple
    values: tuple[float, ...]

    @property
    def hotspot(self):
        """The scope at which the hot path ends — the potential bottleneck."""
        return self.path[-1]

    @property
    def hotspot_value(self) -> float:
        return self.values[-1]

    def __len__(self) -> int:
        return len(self.path)


def hot_path_generic(
    start,
    value_fn: Callable[[object], float],
    children_fn: Callable[[object], Sequence],
    threshold: float = DEFAULT_THRESHOLD,
    max_depth: int = 10_000,
) -> HotPathResult:
    """Eq. 3 over any tree shape.

    ``value_fn`` must return the inclusive metric value of a scope and
    ``children_fn`` its children.  The path always contains ``start``.
    """
    if not (0.0 < threshold <= 1.0):
        raise ViewError(f"hot-path threshold must be in (0, 1], got {threshold}")
    path = [start]
    values = [float(value_fn(start))]
    node = start
    for _ in range(max_depth):
        kids = children_fn(node)
        if not kids:
            break
        best = max(kids, key=value_fn)
        best_value = float(value_fn(best))
        parent_value = values[-1]
        if parent_value <= 0.0 or best_value < threshold * parent_value:
            break
        path.append(best)
        values.append(best_value)
        node = best
    return HotPathResult(tuple(path), tuple(values))


def hot_path(
    view: View,
    spec: MetricSpec,
    start: ViewNode | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> HotPathResult:
    """Hot path through a view, starting at *start* (or the heaviest root).

    Uses the *inclusive* flavour of the selected metric, as Eq. 3
    prescribes, regardless of which flavour the selected display column
    shows.

    When the view carries a columnar engine and the metric is measured
    (not derived), the descent gathers each level's child values from the
    engine's matrices in one vectorized read instead of per-row dict
    lookups; the argmax/threshold logic is identical either way.
    """
    incl = MetricSpec(spec.mid, MetricFlavor.INCLUSIVE)
    engine = view.engine
    if (
        engine is not None
        and spec.mid < engine.num_metrics
        and view.metrics.by_id(spec.mid).kind is not MetricKind.DERIVED
    ):
        return _hot_path_view_columnar(view, engine, incl, start, threshold)
    if start is None:
        roots = view.roots
        if not roots:
            raise ViewError(f"{view.title} is empty")
        start = max(roots, key=lambda r: view.value(r, incl))
    return hot_path_generic(
        start,
        value_fn=lambda n: view.value(n, incl),
        children_fn=lambda n: n.children,
        threshold=threshold,
    )


def _hot_path_view_columnar(
    view: View,
    engine,
    incl: MetricSpec,
    start: ViewNode | None,
    threshold: float,
    max_depth: int = 10_000,
) -> HotPathResult:
    """Eq. 3 over view rows with per-level columnar gathers.

    ``np.argmax`` returns the first maximum, matching ``max(key=...)``'s
    tie rule, so the chosen path is identical to the generic descent.
    """
    import numpy as np  # engine present implies numpy available

    if not (0.0 < threshold <= 1.0):
        raise ViewError(f"hot-path threshold must be in (0, 1], got {threshold}")
    if start is None:
        roots = view.roots
        if not roots:
            raise ViewError(f"{view.title} is empty")
        root_values = engine.gather_view_values(roots, incl)
        best_root = int(np.argmax(root_values))
        start = roots[best_root]
        start_value = float(root_values[best_root])
    else:
        start_value = float(engine.gather_view_values([start], incl)[0])
    path = [start]
    values = [start_value]
    node = start
    for _ in range(max_depth):
        kids = node.children
        if not kids:
            break
        kid_values = engine.gather_view_values(kids, incl)
        best = int(np.argmax(kid_values))
        best_value = float(kid_values[best])
        if values[-1] <= 0.0 or best_value < threshold * values[-1]:
            break
        node = kids[best]
        path.append(node)
        values.append(best_value)
    return HotPathResult(tuple(path), tuple(values))

