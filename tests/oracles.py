"""Reference implementations the production kernels are checked against.

These are the straightforward per-row forms that the batched kernels
replaced; tests compare the two ``float.hex`` by ``float.hex``.
"""

from __future__ import annotations

import numpy as np

from repro.core.hotpath import DEFAULT_THRESHOLD, HotPathResult, hot_path_generic


def per_row_exposed(engine, instances):
    """Exposed-instance ``(inclusive, exclusive)`` of one group, per row.

    Distinct rows sorted; a row is exposed iff it falls outside the most
    recent exposed row's subtree.  The exposed rows are then summed in
    input order into zero vectors (a row listed twice counts twice).
    """
    rows = [engine.row_of(node) for node in instances]
    exposed = set()
    cover = -1
    for row in sorted(set(rows)):
        if row >= cover:
            exposed.add(row)
            cover = engine.subtree_end[row]
    incl = np.zeros(engine.num_metrics)
    excl = np.zeros(engine.num_metrics)
    for row in rows:
        if row in exposed:
            incl += engine.inclusive[row]
            excl += engine.exclusive[row]
    return _sparse(incl), _sparse(excl)


def _sparse(vector):
    (mids,) = np.nonzero(vector)
    return {int(mid): float(vector[mid]) for mid in mids}


def level_exposed(engine, groups):
    """The production level kernel over CCT instance *groups*."""
    rows, offsets = [], [0]
    for group in groups:
        rows.extend(engine.row_of(node) for node in group)
        offsets.append(len(rows))
    return engine.aggregate_exposed(rows, offsets)


def hot_path_cct(start, mid, threshold=DEFAULT_THRESHOLD) -> HotPathResult:
    """Eq. 3 straight over CCT scopes, by inclusive value of metric *mid*."""
    return hot_path_generic(
        start,
        value_fn=lambda n: n.inclusive.get(mid, 0.0),
        children_fn=lambda n: n.children,
        threshold=threshold,
    )
