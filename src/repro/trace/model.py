"""Timestamped call-path traces — the time dimension over the CCT.

A profile answers *where* time went; a trace also answers *when*.  This
module holds the in-memory trace model: per-rank streams of timestamped
call-path samples (:class:`TraceData`) and the multi-rank bundle
(:class:`TraceSet`) that materializes time-windowed CCTs through the
same construction path the untimed profiles use
(:meth:`~repro.hpcprof.experiment.Experiment.from_profiles`).

Exactness is the load-bearing design decision.  Windowed results must
be **bit-identical** whether they are computed from in-memory events or
from the chunked on-disk store (:mod:`repro.trace.store`), and disjoint
windows covering the trace must sum *exactly* to the whole-trace CCT.
Floating-point addition is non-associative, so event costs are carried
as **int64 ticks** with a per-metric float ``resolution``: the
materialized value of a scope is ``total_ticks * resolution``, computed
once after an exact integer sum.  Integer sums are order-independent,
so every backend and every partition of the event stream produces the
same float64 values down to the last bit.  Timestamps are float64
seconds; they are only ever *compared* (``t0 <= t < t1``), never
summed, so they carry no rounding hazard.

``window(None, None)`` materializes every event — by construction it
is the trace's untimed profile (:meth:`TraceData.profile` with no
bounds), which is the contract the query layer and the property suite
pin.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.errors import TraceError
from repro.core.metrics import MetricTable
from repro.hpcrun.profile_data import Frame, ProfileData
from repro.obs.spans import span, traced
from repro.trace.contexts import ContextTable

__all__ = [
    "DEFAULT_RESOLUTION",
    "TIME_RESOLUTION",
    "TraceData",
    "TraceSet",
    "materialize_profile",
    "quantize",
    "window_experiment",
]

#: Default cost resolution: one tick is 2**-20 metric units.  Dyadic on
#: purpose — ``ticks * DEFAULT_RESOLUTION`` is an *exact* float64
#: product for every |ticks| < 2**53, so quantized costs materialize
#: without rounding.
DEFAULT_RESOLUTION = 2.0 ** -20

#: Resolution for wall-clock metrics measured in seconds: one tick is
#: one nanosecond.
TIME_RESOLUTION = 1e-9

_TICK_LIMIT = 2 ** 62  # leave headroom below int64 overflow for sums


def quantize(value: float, resolution: float = DEFAULT_RESOLUTION) -> int:
    """The tick count nearest to *value* at *resolution*."""
    ticks = round(value / resolution)
    if not -_TICK_LIMIT < ticks < _TICK_LIMIT:
        raise TraceError(
            f"cost {value!r} overflows int64 ticks at resolution {resolution!r}"
        )
    return int(ticks)


def materialize_profile(
    ticks: np.ndarray,
    contexts: Sequence[tuple[tuple[Frame, ...], int]],
    metrics: MetricTable,
    resolutions: Mapping[int, float],
    rank: int = 0,
    program: str = "",
) -> ProfileData:
    """Turn a per-context tick matrix into a :class:`ProfileData`.

    *ticks* is ``(n_contexts, n_metrics)`` int64; row *i* belongs to
    ``contexts[i]``.  Each non-zero cell materializes exactly once as
    ``ticks * resolution`` — no float accumulation happens here, which
    is what makes every caller (in-memory window, chunked store,
    partition-of-windows) agree bit for bit.
    """
    profile = ProfileData(metrics, rank=rank, program=program)
    rows = np.flatnonzero(ticks.any(axis=1))
    for ci, row in zip(rows.tolist(), ticks[rows].tolist()):
        frames, leaf_line = contexts[ci]
        costs = {mid: t * resolutions[mid] for mid, t in enumerate(row) if t}
        profile.add_sample(frames, leaf_line, costs)
    return profile


def _bound(t: float | None, default: float) -> float:
    if t is None:
        return default
    t = float(t)
    if math.isnan(t):
        raise TraceError("window bound must not be NaN")
    return t


def check_window(t0: float | None, t1: float | None) -> tuple[float, float]:
    """Validate and normalize window bounds to ``(-inf, +inf)`` floats."""
    lo = _bound(t0, -math.inf)
    hi = _bound(t1, math.inf)
    if lo > hi:
        raise TraceError(f"window is inverted: t0={t0!r} > t1={t1!r}")
    return lo, hi


class TraceData:
    """One rank's timestamped call-path sample stream.

    Events are recorded via :meth:`record` and frozen with
    :meth:`seal`, after which the trace exposes sorted columnar arrays
    (``times`` float64, ``ctx_ids`` int64, ``ticks`` int64
    ``(n_events, n_metrics)``) and answers window queries.

    Parameters
    ----------
    metrics:
        The metric table; event ticks are keyed by metric id.
    resolutions:
        Optional per-metric tick resolution overrides (metric id ->
        units per tick); defaults to :data:`DEFAULT_RESOLUTION`.
    time_metric:
        Metric id whose ticks measure the passage of trace time (used
        to reconstruct event durations for flame charts).
    time_scale:
        Seconds of trace time per materialized unit of the time metric.
    """

    def __init__(
        self,
        metrics: MetricTable,
        resolutions: Mapping[int, float] | None = None,
        rank: int = 0,
        program: str = "",
        time_metric: int = 0,
        time_scale: float = 1.0,
    ) -> None:
        self.metrics = metrics
        self.rank = rank
        self.program = program
        self.resolutions: dict[int, float] = {
            mid: DEFAULT_RESOLUTION for mid in range(len(metrics))
        }
        if resolutions:
            for mid, res in resolutions.items():
                if mid not in self.resolutions:
                    raise TraceError(f"resolution for unknown metric id {mid}")
                if not (res > 0 and math.isfinite(res)):
                    raise TraceError(f"resolution must be positive, got {res!r}")
                self.resolutions[mid] = float(res)
        if len(metrics) and not (0 <= time_metric < len(metrics)):
            raise TraceError(f"time_metric id {time_metric} out of range")
        self.time_metric = time_metric
        self.time_scale = float(time_scale)

        self._contexts: list[tuple[tuple[Frame, ...], int]] = []
        self._ctx_index: dict[tuple, int] = {}
        self._rec_times: list[float] = []
        self._rec_ctx: list[int] = []
        self._rec_ticks: list[list[int]] = []
        self._sealed = False
        self.times: np.ndarray | None = None
        self.ctx_ids: np.ndarray | None = None
        self.ticks: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def intern_context(self, frames: Sequence[Frame], leaf_line: int) -> int:
        """The stable integer id of a ``(call path, leaf line)`` context."""
        key = (tuple(f.key for f in frames), leaf_line)
        ci = self._ctx_index.get(key)
        if ci is None:
            if not frames:
                raise TraceError("a trace event needs at least one frame")
            ci = len(self._contexts)
            self._contexts.append((tuple(frames), int(leaf_line)))
            self._ctx_index[key] = ci
        return ci

    def record(
        self,
        frames: Sequence[Frame],
        leaf_line: int,
        t: float,
        ticks: Mapping[int, int],
    ) -> None:
        """Record one timestamped sample.

        *frames* runs outermost-first (like
        :meth:`ProfileData.add_sample`); *t* is the sample timestamp in
        trace seconds; *ticks* maps metric id -> integer tick cost.
        """
        if self._sealed:
            raise TraceError("trace is sealed; no further events")
        t = float(t)
        if not math.isfinite(t) or t < 0.0:
            raise TraceError(f"event timestamp must be finite and >= 0, got {t!r}")
        ci = self.intern_context(frames, leaf_line)
        row = [0] * len(self.metrics)
        for mid, count in ticks.items():
            if not (0 <= mid < len(self.metrics)):
                raise TraceError(f"event ticks for unknown metric id {mid}")
            count = int(count)
            if not -_TICK_LIMIT < count < _TICK_LIMIT:
                raise TraceError(f"tick count {count} overflows int64 headroom")
            row[mid] = count
        self._rec_times.append(t)
        self._rec_ctx.append(ci)
        self._rec_ticks.append(row)

    def seal(self) -> "TraceData":
        """Freeze the stream: sort events by time, build the arrays.

        The metric table may have grown while recording (the sim
        executor registers metrics lazily); earlier events are padded
        with zero ticks for the late columns and late metrics pick up
        the default resolution.
        """
        if self._sealed:
            return self
        n = len(self._rec_times)
        width = len(self.metrics)
        for mid in range(width):
            self.resolutions.setdefault(mid, DEFAULT_RESOLUTION)
        times = np.asarray(self._rec_times, dtype=np.float64)
        ctx = np.asarray(self._rec_ctx, dtype=np.int64)
        ticks = np.zeros((n, width), dtype=np.int64)
        for i, row in enumerate(self._rec_ticks):
            ticks[i, : len(row)] = row
        order = np.argsort(times, kind="stable")
        self.times = times[order]
        self.ctx_ids = ctx[order]
        self.ticks = ticks[order]
        self._rec_times = []
        self._rec_ctx = []
        self._rec_ticks = []
        self._sealed = True
        return self

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def n_events(self) -> int:
        self._require_sealed()
        return len(self.times)

    @property
    def contexts(self) -> list[tuple[tuple[Frame, ...], int]]:
        return list(self._contexts)

    @property
    def t_begin(self) -> float | None:
        self._require_sealed()
        return float(self.times[0]) if len(self.times) else None

    @property
    def t_end(self) -> float | None:
        self._require_sealed()
        return float(self.times[-1]) if len(self.times) else None

    def _require_sealed(self) -> None:
        if not self._sealed:
            raise TraceError("trace must be sealed first (call seal())")

    # ------------------------------------------------------------------ #
    # windowing
    # ------------------------------------------------------------------ #
    def window_slice(self, t0: float | None, t1: float | None) -> slice:
        """Index slice of events with ``t0 <= t < t1`` (None = unbounded)."""
        self._require_sealed()
        lo, hi = check_window(t0, t1)
        start = int(np.searchsorted(self.times, lo, side="left"))
        stop = int(np.searchsorted(self.times, hi, side="left"))
        return slice(start, stop)

    def window_ticks(
        self, t0: float | None = None, t1: float | None = None
    ) -> np.ndarray:
        """Exact int64 ``(n_contexts, n_metrics)`` tick sums over a window."""
        sel = self.window_slice(t0, t1)
        out = np.zeros(
            (len(self._contexts), self.ticks.shape[1]), dtype=np.int64
        )
        np.add.at(out, self.ctx_ids[sel], self.ticks[sel])
        return out

    def profile(
        self, t0: float | None = None, t1: float | None = None
    ) -> ProfileData:
        """Materialize the (optionally windowed) untimed profile."""
        return materialize_profile(
            self.window_ticks(t0, t1),
            self._contexts,
            self.metrics,
            self.resolutions,
            rank=self.rank,
            program=self.program,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"{self.n_events} events" if self._sealed else "recording"
        return (
            f"<TraceData rank={self.rank} {state}, "
            f"{len(self._contexts)} contexts>"
        )


class TraceSet:
    """A multi-rank trace with one shared context table.

    The per-rank :class:`TraceData` context ids are remapped into one
    global table (rank order, first-seen order within a rank) so window
    tick matrices are directly comparable — and byte-comparable — with
    the chunked store, which persists exactly this table.
    """

    def __init__(
        self,
        traces: Sequence[TraceData],
        structure,
        name: str = "trace",
    ) -> None:
        if not traces:
            raise TraceError("a TraceSet needs at least one rank trace")
        self.traces = [t.seal() for t in traces]
        self.structure = structure
        self.name = name
        first = self.traces[0]
        for t in self.traces[1:]:
            if t.metrics.names() != first.metrics.names():
                raise TraceError("rank traces disagree on metric tables")
            if t.resolutions != first.resolutions:
                raise TraceError("rank traces disagree on tick resolutions")
            if (t.time_metric, t.time_scale) != (
                first.time_metric,
                first.time_scale,
            ):
                raise TraceError("rank traces disagree on the time metric")
        self.metrics = first.metrics
        self.resolutions = dict(first.resolutions)
        self.time_metric = first.time_metric
        self.time_scale = first.time_scale
        self.program = first.program

        # global context table + per-rank remap vectors
        self.contexts: list[tuple[tuple[Frame, ...], int]] = []
        index: dict[tuple, int] = {}
        self._remap: list[np.ndarray] = []
        for t in self.traces:
            local = np.zeros(len(t._contexts), dtype=np.int64)
            for ci, (frames, leaf_line) in enumerate(t._contexts):
                key = (tuple(f.key for f in frames), leaf_line)
                gi = index.get(key)
                if gi is None:
                    gi = len(self.contexts)
                    self.contexts.append((frames, leaf_line))
                    index[key] = gi
                local[ci] = gi
            self._remap.append(local)
        self._context_table = None

    # ------------------------------------------------------------------ #
    @property
    def nranks(self) -> int:
        return len(self.traces)

    @property
    def n_events(self) -> int:
        return sum(t.n_events for t in self.traces)

    @property
    def t_begin(self) -> float | None:
        begins = [t.t_begin for t in self.traces if t.t_begin is not None]
        return min(begins) if begins else None

    @property
    def t_end(self) -> float | None:
        ends = [t.t_end for t in self.traces if t.t_end is not None]
        return max(ends) if ends else None

    # ------------------------------------------------------------------ #
    def window_ticks(
        self, t0: float | None = None, t1: float | None = None
    ) -> np.ndarray:
        """Exact int64 ``(nranks, n_contexts, n_metrics)`` window sums."""
        out = np.zeros(
            (self.nranks, len(self.contexts), self.traces[0].ticks.shape[1]),
            dtype=np.int64,
        )
        for r, t in enumerate(self.traces):
            sel = t.window_slice(t0, t1)
            np.add.at(out[r], self._remap[r][t.ctx_ids[sel]], t.ticks[sel])
        return out

    def events_window(
        self, rank: int, t0: float | None = None, t1: float | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One rank's events in a window: ``(times, global ctx ids, ticks)``.

        Times are sorted ascending; ctx ids index :attr:`contexts`.
        """
        if not (0 <= rank < self.nranks):
            raise TraceError(f"rank {rank} out of range [0, {self.nranks})")
        t = self.traces[rank]
        sel = t.window_slice(t0, t1)
        return (
            t.times[sel],
            self._remap[rank][t.ctx_ids[sel]],
            t.ticks[sel],
        )

    def events_windows(
        self, t0: float | None = None, t1: float | None = None
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every rank's :meth:`events_window`, as one list."""
        return [self.events_window(r, t0, t1) for r in range(self.nranks)]

    @property
    def context_table(self) -> ContextTable:
        """Call-path prefix ids of :attr:`contexts` (built once)."""
        if self._context_table is None:
            self._context_table = ContextTable(self.contexts)
        return self._context_table

    # ------------------------------------------------------------------ #
    @traced("trace.skeleton-basis")
    def skeleton_basis(self):
        """``(metrics, structure)`` that window experiments are built on;
        the in-memory trace holds both, so nothing is read."""
        return self.metrics, self.structure

    def window_experiment(
        self, t0: float | None = None, t1: float | None = None
    ):
        """The CCT experiment of the window — the trace query backend."""
        return window_experiment(self, t0, t1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TraceSet {self.name!r}: {self.nranks} rank(s), "
            f"{self.n_events} events, {len(self.contexts)} contexts>"
        )


def window_experiment(source, t0: float | None, t1: float | None):
    """One shared construction path for windowed experiments.

    Both the in-memory :class:`TraceSet` and the chunked
    :class:`~repro.trace.store.TraceStore` funnel through here, so the
    two backends cannot drift in how a window becomes an
    :class:`~repro.hpcprof.experiment.Experiment`: the exact tick sums
    of ``source.window_ticks`` materialize into one profile per rank,
    which :meth:`~repro.hpcprof.experiment.Experiment.from_profiles`
    correlates straight into the union tree (a single-rank trace gives a
    serial experiment).  Per-rank trees are built only if read.

    This is the reference construction: a store's windowed queries take
    :meth:`~repro.trace.store.TraceStore.window_frame` instead, which
    yields the same rows and values without building the CCT.
    """
    from repro.hpcprof.experiment import Experiment

    ticks = source.window_ticks(t0, t1)
    metrics, structure = source.skeleton_basis()
    with span("trace.window-experiment"):
        profiles = [
            materialize_profile(ticks[r], source.contexts, metrics,
                                source.resolutions, rank=r,
                                program=source.program)
            for r in range(source.nranks)
        ]
        if len(profiles) == 1:
            return Experiment.from_profile(profiles[0], structure,
                                           source.name)
        return Experiment.from_profiles(profiles, structure, source.name)
