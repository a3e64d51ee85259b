"""Flame-chart slabs and time-binned imbalance series over traces.

Both functions accept either backend — an in-memory
:class:`~repro.trace.model.TraceSet` or an on-disk
:class:`~repro.trace.store.TraceStore` — through the shared windowing
protocol (``events_window`` / ``window_ticks``), so the server's
``/v1/trace`` endpoint is storage-agnostic.

A **flame slab** is the per-depth span decomposition of one rank's
window: consecutive events that share the same call-path prefix up to a
depth merge into one span at that depth.  Spans carry their time
extent plus an exact per-metric tick total, materialized once — the
same integer-exactness discipline as window queries.  The slab ships
as a :class:`~repro.server.wire.TableSnapshot` (rows of
``[scope, depth, begin, end, value]``), which is precisely the shape
the columnar wire encoder frames, so ``/v1/trace`` negotiates
``application/x-repro-columnar`` for free.

The **idleness series** bins the window into equal-width intervals and
reports, per bin, per-rank busy time reduced to mean/max plus the two
derived ratios the imbalance literature uses: ``idleness = 1 -
mean/max`` (the fraction of aggregate capacity wasted waiting on the
slowest rank) and ``imbalance = max/mean - 1``.  A phase shift shows
as a step in the per-bin profile; a straggler rank shows as rising
idleness late in the run.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TraceError
from repro.obs.spans import traced
from repro.server.wire import TableSnapshot
from repro.trace.model import check_window

__all__ = ["flame_slab", "flame_snapshot", "idleness_series"]


def _duration_seconds(source, ticks: np.ndarray) -> np.ndarray:
    """Per-event trace-time extents from the designated time metric."""
    tm = source.time_metric
    unit = source.resolutions[tm] * source.time_scale
    return ticks[:, tm].astype(np.float64) * unit


@traced("trace.flame-slab")
def flame_slab(
    source,
    rank: int = 0,
    t0: float | None = None,
    t1: float | None = None,
    metric: str | None = None,
    max_spans: int = 2000,
) -> dict:
    """Per-depth span arrays of one rank's window.

    Returns ``{"rank", "t0", "t1", "metric", "depths": [[span, ...],
    ...], "span_count", "truncated"}`` where each span is
    ``{"name", "file", "begin", "end", "value"}`` (value = the span's
    exact metric total, int64 ticks x resolution).  ``depths[d]`` lists
    the spans at call-path depth ``d`` in time order.

    Spans close in (closing event, depth) order — a span at depth ``d``
    closes at the first event after its run, or at the end of the
    window — and the first ``max_spans`` to close are kept; the rest
    are counted in ``truncated``.
    """
    if max_spans < 1:
        raise TraceError(f"max_spans must be >= 1, got {max_spans}")
    metrics = source.metrics
    mid = (
        metrics.by_name(metric).mid
        if metric is not None
        else source.time_metric
    )
    resolution = source.resolutions[mid]
    times, ctx_ids, ticks = source.events_window(rank, t0, t1)
    ends = times + _duration_seconds(source, ticks)
    event_ticks = ticks[:, mid]

    # prefix ids: one integer per distinct call-path prefix at each
    # depth of the contexts this window uses; -1 past a path's leaf
    used, inverse = np.unique(ctx_ids, return_inverse=True)
    paths = [source.contexts[int(ci)][0] for ci in used]
    max_depth = max((len(p) for p in paths), default=0)
    prefix_of = np.full((max_depth, len(used)), -1, dtype=np.int64)
    prefix_ids: dict[tuple, int] = {}
    frames: list = []  # prefix id -> the frame it ends in
    for u, path in enumerate(paths):
        for d in range(len(path)):
            pid = prefix_ids.get(path[: d + 1])
            if pid is None:
                pid = prefix_ids[path[: d + 1]] = len(frames)
                frames.append(path[d])
            prefix_of[d, u] = pid
    prefix = prefix_of[:, inverse]

    # a span at depth d is a run of consecutive events with one prefix
    # id; it closes at the event after its last one (len(times) at the
    # window end), so (closing event, depth) is its closing-order key
    depth_runs = []
    for d in range(max_depth):
        row = prefix[d]
        at = np.flatnonzero(row >= 0)
        run_start = np.ones(len(at), dtype=bool)
        run_start[1:] = (at[1:] != at[:-1] + 1) | (row[at[1:]] != row[at[:-1]])
        starts = np.flatnonzero(run_start)
        last = np.append(at[starts[1:] - 1], at[-1]) if len(at) else at
        depth_runs.append((at, starts, (last + 1) * max_depth + d))

    kept = [len(starts) for _at, starts, _key in depth_runs]
    total = sum(kept)
    if total > max_spans:
        keys = np.concatenate([key for _at, _starts, key in depth_runs])
        cutoff = np.partition(keys, max_spans - 1)[max_spans - 1]
        # a depth's spans close in time order: the kept ones are a prefix
        kept = [int(np.count_nonzero(key <= cutoff))
                for _at, _starts, key in depth_runs]

    depth_spans: list[list[dict]] = []
    for d, (at, starts, _key) in enumerate(depth_runs):
        k = kept[d]
        if not k:
            depth_spans.append([])
            continue
        first = at[starts[:k]]
        span_end = np.maximum.reduceat(ends[at], starts)[:k]
        span_ticks = np.add.reduceat(event_ticks[at], starts)[:k]
        span_frames = [frames[pid] for pid in prefix[d, first].tolist()]
        depth_spans.append([
            {
                "name": frame.proc,
                "file": frame.file,
                "begin": begin,
                "end": end,
                "value": value,
            }
            for frame, begin, end, value in zip(
                span_frames,
                times[first].tolist(),
                span_end.tolist(),
                (span_ticks.astype(np.float64) * resolution).tolist(),
            )
        ])

    lo, hi = check_window(t0, t1)
    span_count = sum(kept)
    return {
        "rank": rank,
        "t0": None if math.isinf(lo) else lo,
        "t1": None if math.isinf(hi) else hi,
        "metric": metrics.by_id(mid).name,
        "event_count": int(len(times)),
        "span_count": span_count,
        "truncated": total - span_count,
        "depths": depth_spans,
    }


def flame_snapshot(slab: dict) -> TableSnapshot:
    """A flame slab as a wire table: ``[scope, depth, begin, end, value]``.

    The row order (depth-major, time within a depth) and the float
    values are exactly those of the ``depths`` arrays, so the columnar
    encoding decodes to the same cells the JSON response carries.
    """
    names: list[str] = []
    depths: list[int] = []
    rows: list[list[float]] = []
    for d, spans in enumerate(slab["depths"]):
        for span in spans:
            names.append(span["name"])
            depths.append(d)
            rows.append([span["begin"], span["end"], span["value"]])
    values = (
        np.asarray(rows, dtype=np.float64)
        if rows
        else np.zeros((0, 3), dtype=np.float64)
    )
    return TableSnapshot(
        view="trace-flame",
        generation=0,
        names=tuple(names),
        depths=np.asarray(depths, dtype=np.int64),
        labels=("begin", "end", slab["metric"]),
        values=values,
        truncated=slab["truncated"],
    )


@traced("trace.idleness-series")
def idleness_series(
    source,
    t0: float | None = None,
    t1: float | None = None,
    bins: int = 32,
) -> dict:
    """Time-binned busy/idleness/imbalance over all ranks of a window.

    Each event's time extent is distributed across the bins it overlaps
    (proportionally), yielding per-rank busy seconds per bin: an event
    within one bin adds its whole clipped extent there, an event
    crossing bin edges adds its overlap with each bin.  The reductions
    are ``idleness = 1 - mean/max`` and ``imbalance = max/mean - 1`` (0
    where the bin is empty).
    """
    if bins < 1:
        raise TraceError(f"bins must be >= 1, got {bins}")
    lo, hi = check_window(t0, t1)
    if math.isinf(lo) and source.t_begin is None:
        raise TraceError("cannot bin an empty trace without bounds")
    unbounded = math.isinf(hi)
    if unbounded and source.t_end is None:
        raise TraceError("cannot bin an empty trace without bounds")
    # each rank's events are fetched once; an unbounded window extends to
    # the extent of the last events of the whole stream, so it fetches
    # everything and cuts the window start locally (times are sorted)
    events = []
    extent = -math.inf
    for r in range(source.nranks):
        times, _ctx, ticks = source.events_window(
            r, None if unbounded else t0, t1
        )
        ends = times + _duration_seconds(source, ticks)
        if unbounded and len(times):
            extent = max(extent, float(np.max(ends)))
            cut = int(np.searchsorted(times, lo, side="left"))
            times, ends = times[cut:], ends[cut:]
        events.append((times, ends))
    if math.isinf(lo):
        lo = float(source.t_begin)
    if unbounded:
        # include the extent of the last events
        hi = max(float(source.t_end), extent)
    if not hi > lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    width = (hi - lo) / bins

    busy = np.zeros((source.nranks, bins), dtype=np.float64)
    for r, (times, ends) in enumerate(events):
        begins = np.clip(times, lo, hi)
        ends = np.clip(ends, lo, hi)
        live = ends > begins
        begins, ends = begins[live], ends[live]
        if not len(begins):
            continue
        first = np.clip(((begins - lo) / width).astype(np.int64), 0, bins - 1)
        last = np.clip(((ends - lo) / width).astype(np.int64), 0, bins - 1)
        # event-major (event, bin) pairs: each bin then receives the same
        # float additions, in the same order, as an event-by-event loop
        count = last - first + 1
        event = np.repeat(np.arange(len(count)), count)
        b = first[event] + (
            np.arange(len(event)) - np.repeat(np.cumsum(count) - count, count)
        )
        seg_lo = np.maximum(begins[event], edges[b])
        seg_hi = np.minimum(ends[event], edges[b + 1])
        single = (count == 1)[event]
        amount = np.where(single, (ends - begins)[event], seg_hi - seg_lo)
        keep = single | (seg_hi > seg_lo)
        np.add.at(busy[r], b[keep], amount[keep])

    mean = busy.mean(axis=0)
    peak = busy.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        idleness = np.where(peak > 0, 1.0 - mean / np.where(peak > 0, peak, 1.0), 0.0)
        imbalance = np.where(mean > 0, peak / np.where(mean > 0, mean, 1.0) - 1.0, 0.0)
    return {
        "t0": float(lo),
        "t1": float(hi),
        "bins": bins,
        "nranks": source.nranks,
        "edges": edges.tolist(),
        "mean_busy": mean.tolist(),
        "max_busy": peak.tolist(),
        "idleness": idleness.tolist(),
        "imbalance": imbalance.tolist(),
    }
