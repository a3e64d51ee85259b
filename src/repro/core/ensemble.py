"""Ensemble analysis over a union CCT: statistics, diffs, regressions.

The paper's derived-metric machinery (Section VI-A, Figure 6) compares
*two* profiles by scale-and-subtract.  This module generalizes that to
a corpus: :func:`align_experiments` structurally aligns N runs into one
:class:`EnsembleView` (a supergraph over a columnar member×scope value
matrix, built by :mod:`repro.hpcprof.align`), on top of which

* :meth:`EnsembleView.stats` / :meth:`~EnsembleView.attach_stats`
  compute per-scope mean/std/min/max (via the exact Welford reduction
  shared with rank summarization) and quantiles across members;
* :meth:`EnsembleView.diff` builds pairwise or baseline-vs-corpus diff
  *experiments* whose raw values are ``target - factor * baseline`` per
  scope — re-attributed through Eq. 1/2, so the three views, hot paths
  (Eq. 3), and derived metrics all work on a diff unchanged.  Since
  IEEE subtraction gives ``x - x == 0.0`` exactly and attribution of
  all-zero raws yields zeros, ``diff(A, A)`` is exactly zero
  everywhere, and ``diff(A, B)`` is the exact negation of
  ``diff(B, A)`` — properties the test battery pins;
* :func:`detect_regressions` flags scopes whose *inclusive share* of a
  metric shifted beyond an absolute threshold or beyond k·σ of the
  baseline corpus, as structured :class:`RegressionFinding` records
  (bridged to tuning advice by :func:`repro.core.advisor.advise_regressions`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.attribution import attribute
from repro.core.cct import CCT, CCTKind, CCTNode
from repro.core.metrics import MetricKind
from repro.errors import MetricError
from repro.hpcprof.align import (
    DEFAULT_WORKING_SET,
    Alignment,
    align_members,
)

__all__ = [
    "EnsembleStats",
    "EnsembleView",
    "RegressionFinding",
    "align_experiments",
    "detect_regressions",
]

#: default absolute inclusive-share shift that flags a scope
DEFAULT_THRESHOLD = 0.02

#: default sigma multiplier against the baseline corpus spread
DEFAULT_SIGMA = 3.0

#: scopes whose share (target or baseline) is below this are ignored
DEFAULT_MIN_SHARE = 0.005

#: default quantile levels of :meth:`EnsembleView.stats`
DEFAULT_QUANTILES = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class EnsembleStats:
    """Per-union-scope statistics of one metric across the members.

    Every array has one entry per union node, in preorder (row order of
    the alignment matrices).  ``mean``/``stddev`` come from the same
    sequential Welford recurrence the rank summaries use, advanced in
    member order, so they are bit-identical to the ``.rpstore`` summary
    path over the same inputs.
    """

    metric: str
    flavor: str
    count: int
    mean: np.ndarray
    stddev: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    quantiles: dict[float, np.ndarray]


@dataclass(frozen=True)
class RegressionFinding:
    """One scope whose inclusive share moved against the baseline corpus."""

    scope: str
    kind: str                 #: "regression" (grew) or "improvement" (shrank)
    metric: str
    path: tuple[str, ...]     #: frame names from the root to the scope
    target: str               #: label of the compared member
    target_share: float
    baseline_mean: float      #: mean inclusive share over the corpus
    baseline_stddev: float
    delta: float              #: target_share - baseline_mean
    sigmas: float | None      #: |delta| / stddev (None when stddev == 0)
    target_value: float
    baseline_mean_value: float

    def to_payload(self) -> dict:
        return {
            "scope": self.scope,
            "kind": self.kind,
            "metric": self.metric,
            "path": list(self.path),
            "target": self.target,
            "target_share": self.target_share,
            "baseline_mean": self.baseline_mean,
            "baseline_stddev": self.baseline_stddev,
            "delta": self.delta,
            "sigmas": self.sigmas,
            "target_value": self.target_value,
            "baseline_mean_value": self.baseline_mean_value,
        }

    def describe(self) -> str:
        sig = f", {self.sigmas:.1f} sigma" if self.sigmas is not None else ""
        return (
            f"[{self.kind}] {self.scope} ({self.metric}): share "
            f"{100 * self.baseline_mean:.2f}% -> "
            f"{100 * self.target_share:.2f}% "
            f"({self.delta:+.2%}{sig})\n"
            f"    at {' -> '.join(self.path) or '<program root>'}"
        )


class EnsembleView:
    """N structurally aligned experiments, ready for comparison.

    Thin analysis layer over an :class:`~repro.hpcprof.align.Alignment`:
    the union experiment (member sums) renders through the regular
    Flat/Callers/CC pipeline, per-scope statistics come from the
    columnar matrices, and :meth:`diff` / :meth:`member` materialize
    ordinary experiments from matrix rows.
    """

    def __init__(self, alignment: Alignment) -> None:
        self.alignment = alignment
        self._summaries: dict[int, object] = {}

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def names(self) -> list[str]:
        return self.alignment.names

    @property
    def n_experiments(self) -> int:
        return self.alignment.n_members

    @property
    def union(self):
        """The union experiment (raw values = member sums, attributed)."""
        return self.alignment.union

    @property
    def nodes(self) -> list[CCTNode]:
        """Union tree in preorder — the row order of every matrix."""
        return self.alignment.nodes

    def _mid(self, metric: str | None) -> int:
        if metric is None:
            if not self.alignment.mids:
                raise MetricError("ensemble has no raw metrics")
            return self.alignment.mids[0]
        mid = self.union.metrics.by_name(metric).mid
        if mid not in self.alignment.mids:
            raise MetricError(
                f"metric {metric!r} is not a raw metric of this ensemble"
            )
        return mid

    def matrix(self, metric: str | None = None, flavor: str = "inclusive"):
        """The ``(n_experiments, n_union_nodes)`` value matrix (read-only)."""
        return self.alignment.matrix(self._mid(metric), flavor)

    def resolve(self, which) -> tuple[int | None, str]:
        """A member selector → ``(index, label)``.

        Accepts an index (negatives count from the end), a member name
        (first match), or ``"mean"`` — the corpus mean, which has no
        index.
        """
        if which == "mean":
            return None, "mean"
        if isinstance(which, bool) or not isinstance(which, (int, str)):
            raise MetricError(
                f"member selector must be an index, a name, or 'mean', "
                f"got {type(which).__name__}"
            )
        if isinstance(which, str):
            try:
                return self.names.index(which), which
            except ValueError:
                raise MetricError(
                    f"unknown ensemble member {which!r} "
                    f"(have: {', '.join(self.names)})"
                ) from None
        index = which if which >= 0 else self.alignment.n_members + which
        if not (0 <= index < self.alignment.n_members):
            raise MetricError(
                f"member index {which} out of range for "
                f"{self.alignment.n_members} members"
            )
        return index, self.names[index]

    def _row(self, index: int | None, mid: int, flavor: str) -> np.ndarray:
        matrix = self.alignment.matrix(mid, flavor)
        if index is None:  # the corpus mean
            return matrix.mean(axis=0)
        return matrix[index]

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def stats(
        self,
        metric: str | None = None,
        flavor: str = "inclusive",
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> EnsembleStats:
        """Per-scope mean/std/min/max/quantiles across the members."""
        from repro.hpcprof.summarize import welford_moments

        mid = self._mid(metric)
        matrix = self.alignment.matrix(mid, flavor)
        count, mean, m2, minimum, maximum = welford_moments(matrix.T)
        if count > 1:
            variance = m2 / count
        else:
            variance = np.zeros_like(mean)
        return EnsembleStats(
            metric=self.union.metrics.by_id(mid).name,
            flavor=flavor,
            count=count,
            mean=mean,
            stddev=np.sqrt(np.maximum(variance, 0.0)),
            minimum=minimum,
            maximum=maximum,
            quantiles={
                float(q): np.quantile(matrix, q, axis=0) for q in quantiles
            },
        )

    def attach_stats(self, metric: str | None = None):
        """Attach mean/min/max/stddev columns over *members* to the union.

        Same descriptor names and ids as rank summarization
        (:func:`~repro.hpcprof.summarize.register_summary_ids`), so an
        ensemble session's stat columns render exactly like a parallel
        experiment's — idempotent per metric.
        """
        from repro.hpcprof.summarize import (
            apply_summary_stats,
            register_summary_ids,
            welford_moments,
        )

        mid = self._mid(metric)
        ids = self._summaries.get(mid)
        if ids is not None:
            return ids
        ids = register_summary_ids(self.union.metrics, mid)
        for flavor in ("inclusive", "exclusive"):
            matrix = self.alignment.matrix(mid, flavor)
            stats = welford_moments(matrix.T)
            mask = np.any(matrix != 0.0, axis=0)
            apply_summary_stats(self.nodes, flavor, ids, stats, mask)
        self.union.cct.invalidate_caches()
        self._summaries[mid] = ids
        self.union._summaries[mid] = ids
        return ids

    # ------------------------------------------------------------------ #
    # materialization (members and diffs as ordinary experiments)
    # ------------------------------------------------------------------ #
    def _copy_skeleton(self) -> tuple[CCT, dict[int, CCTNode]]:
        """A fresh copy of the union tree shape (no metric values).

        Preorder over the alignment's node list guarantees parents are
        copied before children and child order is preserved, so copies
        of the same union always walk in the same order — the property
        that makes diff antisymmetry exact.
        """
        nodes = self.nodes
        clone = CCT()
        twins = {nodes[0].uid: clone.root}
        for node in nodes[1:]:
            twins[node.uid] = CCTNode(
                node.kind, struct=node.struct, line=node.line,
                parent=twins[node.parent.uid],
            )
        return clone, twins

    def _materialize(self, name: str, vectors: dict[int, np.ndarray]):
        """An experiment over the union skeleton with given raw vectors."""
        from repro.hpcprof.experiment import Experiment

        clone, twins = self._copy_skeleton()
        nodes = self.nodes
        for mid, vec in vectors.items():
            for row in np.flatnonzero(vec):
                twins[nodes[row].uid].raw[mid] = float(vec[row])
        attribute(clone)
        return Experiment(
            name, self.alignment.pristine_metrics.copy(),
            self.union.structure, clone,
        )

    def member(self, which):
        """One member (or ``"mean"``) re-materialized over the union tree.

        Value-identical to the original member where scopes align, with
        the union's shape — handy for rendering a member against the
        ensemble's row order.
        """
        index, label = self.resolve(which)
        return self._materialize(
            label,
            {mid: self._row(index, mid, "raw") for mid in self.alignment.mids},
        )

    def diff(self, baseline=0, target=-1, factor: float = 1.0, name=None):
        """The diff experiment ``target - factor * baseline``.

        *baseline* / *target* select members (index, name, or
        ``"mean"`` for the corpus mean).  Per scope and raw metric, the
        diff's raw value is ``target_raw - factor * baseline_raw``
        (Section VI-A's scale-and-subtract, over aligned union scopes);
        re-attribution makes inclusive/exclusive diffs obey Eq. 1/2, so
        the result renders through any view, and positive values mean
        the target got more expensive.
        """
        if factor <= 0:
            raise MetricError(
                f"scaling factor must be positive, got {factor}"
            )
        b_index, b_label = self.resolve(baseline)
        t_index, t_label = self.resolve(target)
        vectors = {}
        for mid in self.alignment.mids:
            base = self._row(b_index, mid, "raw")
            tgt = self._row(t_index, mid, "raw")
            # factor 1.0 takes the exact  t - b  path: x - x == 0.0 and
            # (a - b) == -(b - a) hold bitwise, the identity/antisymmetry
            # contract of the property suite
            vectors[mid] = tgt - base if factor == 1.0 else tgt - factor * base
        if name is None:
            scaled = f"{factor:g}*" if factor != 1.0 else ""
            name = f"{t_label} vs {scaled}{b_label}"
        return self._materialize(name, vectors)

    def to_payload(self) -> dict:
        return {
            "members": list(self.names),
            "n_experiments": self.n_experiments,
            "union_scopes": self.alignment.nnodes,
            "metrics": [
                d.name for d in self.union.metrics
                if d.kind is MetricKind.RAW
            ],
            "report": self.alignment.report.to_payload(),
        }


def align_experiments(
    members: Sequence,
    *,
    name: str = "ensemble",
    working_set_bytes: int = DEFAULT_WORKING_SET,
    strict: bool = True,
) -> EnsembleView:
    """Align N experiments (objects or database paths) into an ensemble.

    Members given as paths (``.xml`` / ``.rpdb`` / ``.rpstore``) are
    streamed one at a time under *working_set_bytes*, so hundred-profile
    ensembles stay bounded-memory; ``strict=False`` salvages corrupted
    binary members instead of refusing them.  See
    :func:`repro.hpcprof.align.align_members` for the alignment rules.
    """
    return EnsembleView(align_members(
        members, name=name,
        working_set_bytes=working_set_bytes, strict=strict,
    ))


def detect_regressions(
    ensemble: EnsembleView,
    metric: str | None = None,
    target=-1,
    baseline=None,
    threshold: float = DEFAULT_THRESHOLD,
    sigma: float = DEFAULT_SIGMA,
    min_share: float = DEFAULT_MIN_SHARE,
    kinds: Sequence[CCTKind] = (CCTKind.FRAME, CCTKind.LOOP),
) -> list[RegressionFinding]:
    """Scopes of *target* whose inclusive share moved against the corpus.

    Shares are per-member: a scope's inclusive value over that member's
    own total, so uniformly faster or slower runs do not trip the
    detector — only *redistribution* of cost does.  The baseline corpus
    is every other member by default, or an explicit list of member
    selectors.  A scope is flagged when

    * ``|delta| > threshold`` (absolute share shift), or
    * ``|delta| > sigma * stddev`` of the corpus shares (when the
      corpus actually varies — a zero-spread corpus only triggers the
      absolute rule);

    scopes whose share is below *min_share* on both sides are ignored,
    as are kinds outside *kinds* (frames and loops by default — the
    scopes a person would act on).  Findings are sorted by |delta|,
    largest first; ``kind`` is "regression" when the share grew.
    """
    mid = ensemble._mid(metric)
    metric_name = ensemble.union.metrics.by_id(mid).name
    t_index, t_label = ensemble.resolve(target)
    if t_index is None:
        raise MetricError("regression target must be a member, not 'mean'")
    if baseline is None:
        corpus = [i for i in range(ensemble.n_experiments) if i != t_index]
    else:
        corpus = []
        for selector in baseline:
            index, _ = ensemble.resolve(selector)
            if index is None:
                raise MetricError(
                    "baseline corpus members must be members, not 'mean'"
                )
            corpus.append(index)
    if not corpus:
        raise MetricError("regression baseline corpus is empty")

    from repro.hpcprof.summarize import welford_moments

    incl = ensemble.alignment.matrix(mid, "inclusive")
    totals = incl[:, 0]  # row 0 is the root: each member's own total
    safe = np.where(totals == 0.0, 1.0, totals)
    shares = incl / safe[:, None]
    count, mean, m2, _minimum, _maximum = welford_moments(shares[corpus].T)
    if count > 1:
        stddev = np.sqrt(np.maximum(m2 / count, 0.0))
    else:
        stddev = np.zeros_like(mean)
    delta = shares[t_index] - mean

    findings: list[RegressionFinding] = []
    kinds = tuple(kinds)
    for row, node in enumerate(ensemble.nodes):
        if row == 0 or node.kind not in kinds:
            continue
        d = float(delta[row])
        t_share = float(shares[t_index][row])
        b_mean = float(mean[row])
        if max(t_share, b_mean) < min_share:
            continue
        spread = float(stddev[row])
        over_threshold = abs(d) > threshold
        over_sigma = sigma > 0 and spread > 0.0 and abs(d) > sigma * spread
        if not (over_threshold or over_sigma):
            continue
        findings.append(RegressionFinding(
            scope=node.name,
            kind="regression" if d > 0 else "improvement",
            metric=metric_name,
            path=tuple(f.name for f in node.call_path()),
            target=t_label,
            target_share=t_share,
            baseline_mean=b_mean,
            baseline_stddev=spread,
            delta=d,
            sigmas=abs(d) / spread if spread > 0.0 else None,
            target_value=float(incl[t_index][row]),
            baseline_mean_value=float(
                math.fsum(incl[i][row] for i in corpus) / len(corpus)
            ),
        ))
    findings.sort(key=lambda f: (-abs(f.delta), f.scope))
    return findings
