"""Reference implementations the production kernels are checked against.

These are the straightforward per-row forms that the batched kernels
replaced; tests compare the two ``float.hex`` by ``float.hex``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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


@dataclass
class Moments:
    """Scalar Welford statistics over a stream of values, plus the exact
    parallel combination (Chan et al.) — the oracle for the per-row
    accumulator :class:`repro.hpcprof.summarize.RowMoments`."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, x: float) -> None:
        """Welford online update with one value."""
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        self.minimum = min(self.minimum, x)
        self.maximum = max(self.maximum, x)

    def merge(self, other: "Moments") -> "Moments":
        """Fold *other* in: same count/mean/M2 as one stream, up to rounding."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        n = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / n
        self.mean = (self.count * self.mean + other.count * other.mean) / n
        self.count = n
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @property
    def variance(self) -> float:
        """Population variance (0 for fewer than 2 values)."""
        return self.m2 / self.count if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def total(self) -> float:
        return self.mean * self.count

    @classmethod
    def of(cls, values: Iterable[float]) -> "Moments":
        m = cls()
        for x in values:
            m.add(x)
        return m
