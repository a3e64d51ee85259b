"""Differential battery: the array-at-a-time trace kernels vs per-event loops.

:func:`~repro.trace.flame.flame_slab` and
:func:`~repro.trace.flame.idleness_series` reduce whole event arrays at
once (run detection on prefix ids, ``reduceat`` span totals, one
``np.add.at`` of event-major (bin, amount) pairs per rank).  The
reference implementations below are the straightforward per-event
loops, frozen here as oracles.  Every output must agree **bit for bit**
(``float.hex`` on every float) on both backends — the in-memory
:class:`~repro.trace.model.TraceSet` and the chunked
:class:`~repro.trace.store.TraceStore` — for random traces (1-4 ranks,
call paths of varied depth, ties, zero-duration and many-bin events),
random windows, ``max_spans`` in {1, small, 2000} and ``bins`` in
{1, 16, 100}.  The edge cases the vectorization is most likely to get
wrong are pinned explicitly at the end.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace import (
    TraceData,
    TraceSet,
    create_trace_store,
    flame_slab,
    idleness_series,
)
from repro.trace.model import check_window

T_SPAN = 10.0
#: default time-metric resolution: 1024 ticks are one second of trace
#: time, so durations are exact dyadic fractions comparable to T_SPAN;
#: a decimal resolution (1e-3) makes float sums order-sensitive
TICKS_PER_S = 1024


# --------------------------------------------------------------------- #
# frozen per-event oracles
# --------------------------------------------------------------------- #
def _durations(source, ticks):
    tm = source.time_metric
    unit = source.resolutions[tm] * source.time_scale
    return ticks[:, tm].astype(np.float64) * unit


def oracle_flame_slab(source, rank=0, t0=None, t1=None, metric=None,
                      max_spans=2000):
    if max_spans < 1:
        raise TraceError(f"max_spans must be >= 1, got {max_spans}")
    metrics = source.metrics
    mid = (metrics.by_name(metric).mid if metric is not None
           else source.time_metric)
    resolution = source.resolutions[mid]
    times, ctx_ids, ticks = source.events_window(rank, t0, t1)
    durs = _durations(source, ticks)
    paths = [source.contexts[int(ci)][0] for ci in ctx_ids]

    max_depth = max((len(p) for p in paths), default=0)
    depth_spans = [[] for _ in range(max_depth)]
    open_spans = [None] * max_depth
    span_count = 0
    truncated = 0

    def close(d):
        nonlocal span_count, truncated
        span = open_spans[d]
        open_spans[d] = None
        if span is None:
            return
        if span_count >= max_spans:
            truncated += 1
            return
        frame = span[0][d]
        depth_spans[d].append({"name": frame.proc, "file": frame.file,
                               "begin": span[1], "end": span[2],
                               "value": int(span[3]) * resolution})
        span_count += 1

    prev_path = None
    for i in range(len(times)):
        p = paths[i]
        begin = float(times[i])
        end = begin + float(durs[i])
        event_ticks = int(ticks[i, mid])
        for d in range(len(p)):
            span = open_spans[d]
            if (span is not None and prev_path is not None
                    and len(prev_path) > d
                    and prev_path[: d + 1] == p[: d + 1]):
                span[2] = max(span[2], end)
                span[3] += event_ticks
            else:
                close(d)
                open_spans[d] = [p, begin, end, event_ticks]
        for d in range(len(p), max_depth):
            close(d)
        prev_path = p
    for d in range(max_depth):
        close(d)

    lo, hi = check_window(t0, t1)
    return {"rank": rank, "t0": None if math.isinf(lo) else lo,
            "t1": None if math.isinf(hi) else hi,
            "metric": metrics.by_id(mid).name,
            "event_count": int(len(times)), "span_count": span_count,
            "truncated": truncated, "depths": depth_spans}


def oracle_idleness_series(source, t0=None, t1=None, bins=32):
    if bins < 1:
        raise TraceError(f"bins must be >= 1, got {bins}")
    lo, hi = check_window(t0, t1)
    if math.isinf(lo):
        if source.t_begin is None:
            raise TraceError("cannot bin an empty trace without bounds")
        lo = float(source.t_begin)
    if math.isinf(hi):
        if source.t_end is None:
            raise TraceError("cannot bin an empty trace without bounds")
        hi = float(source.t_end)
        for r in range(source.nranks):
            times, _ctx, ticks = source.events_window(r, None, None)
            if len(times):
                hi = max(hi, float(np.max(times + _durations(source, ticks))))
    if not hi > lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    width = (hi - lo) / bins

    busy = np.zeros((source.nranks, bins), dtype=np.float64)
    for r in range(source.nranks):
        times, _ctx, ticks = source.events_window(r, t0, t1)
        if not len(times):
            continue
        durs = _durations(source, ticks)
        begins = np.clip(times, lo, hi)
        ends = np.clip(times + durs, lo, hi)
        first = np.clip(((begins - lo) / width).astype(np.int64), 0, bins - 1)
        last = np.clip(((ends - lo) / width).astype(np.int64), 0, bins - 1)
        for i in range(len(times)):
            b0, b1 = int(first[i]), int(last[i])
            if ends[i] <= begins[i]:
                continue
            if b0 == b1:
                busy[r, b0] += ends[i] - begins[i]
                continue
            for b in range(b0, b1 + 1):
                seg_lo = max(begins[i], edges[b])
                seg_hi = min(ends[i], edges[b + 1])
                if seg_hi > seg_lo:
                    busy[r, b] += seg_hi - seg_lo

    mean = busy.mean(axis=0)
    peak = busy.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        idleness = np.where(peak > 0,
                            1.0 - mean / np.where(peak > 0, peak, 1.0), 0.0)
        imbalance = np.where(mean > 0,
                             peak / np.where(mean > 0, mean, 1.0) - 1.0, 0.0)
    return {"t0": float(lo), "t1": float(hi), "bins": bins,
            "nranks": source.nranks, "edges": edges.tolist(),
            "mean_busy": mean.tolist(), "max_busy": peak.tolist(),
            "idleness": idleness.tolist(), "imbalance": imbalance.tolist()}


# --------------------------------------------------------------------- #
# traces
# --------------------------------------------------------------------- #
def _templates():
    """Sealed simulated traces supplying real contexts + structure: a
    uniform tree (paths of depth 1-4 sharing prefixes) and fig1
    (recursion: equal procedure names at different depths)."""
    from repro.sim.scale import scale_program
    from repro.sim.spmd import trace_spmd
    from repro.sim.workloads import fig1

    return [
        trace_spmd(scale_program(fanout=2, depth=3), nranks=1, seed=7,
                   trace_slices=2, name="kernel-tree"),
        trace_spmd(fig1.build(), nranks=1, seed=7, trace_slices=2,
                   name="kernel-fig1"),
    ]


TEMPLATES = _templates()


def build_traces(template, rank_events,
                 resolution: float = 1 / TICKS_PER_S) -> TraceSet:
    """A TraceSet of ``[(ctx index, t, duration ticks), ...]`` per rank."""
    tm = template.time_metric
    traces = []
    for rank, events in enumerate(rank_events):
        td = TraceData(template.metrics, resolutions={tm: resolution},
                       rank=rank, program=template.program, time_metric=tm,
                       time_scale=1.0)
        for ci, t, ticks in events:
            frames, leaf_line = template.contexts[ci]
            td.record(frames, leaf_line, t, {tm: ticks})
        traces.append(td)
    return TraceSet(traces, template.structure, name=template.name)


def hexify(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hexify(v) for k, v in value.items()}
    if isinstance(value, list):
        return [hexify(v) for v in value]
    return value


def outcome(fn, *args, **kwargs):
    """A kernel's result in ``float.hex`` form, or its error message."""
    try:
        return hexify(fn(*args, **kwargs))
    except TraceError as exc:
        return ("error", str(exc))


def assert_kernels_match(source, windows, max_spans_values, bins_values):
    for t0, t1 in windows:
        for rank in range(source.nranks):
            for max_spans in max_spans_values:
                want = outcome(oracle_flame_slab, source, rank, t0, t1,
                               max_spans=max_spans)
                got = outcome(flame_slab, source, rank, t0, t1,
                              max_spans=max_spans)
                assert got == want, (t0, t1, rank, max_spans)
        for bins in bins_values:
            want = outcome(oracle_idleness_series, source, t0, t1, bins=bins)
            got = outcome(idleness_series, source, t0, t1, bins=bins)
            assert got == want, (t0, t1, bins)


def on_both_backends(traces, check, chunk_duration=1.0):
    check(traces)
    with tempfile.TemporaryDirectory() as tmp:
        store = create_trace_store(traces, os.path.join(tmp, "t.rpstore"),
                                   chunk_duration=chunk_duration)
        try:
            check(store)
        finally:
            store.close()


# a grid of exact times makes ties, shared begin/end points and events
# landing on bin edges common; free floats cover everything else
times_st = st.one_of(
    st.integers(0, 40).map(lambda k: k * T_SPAN / 40),
    st.floats(0.0, T_SPAN, exclude_max=True, allow_nan=False),
)
ticks_st = st.one_of(
    st.just(0),                                   # zero duration
    st.integers(1, TICKS_PER_S // 4),             # short
    st.integers(1, int(T_SPAN) * TICKS_PER_S),    # up to many bins
)
bound_st = st.one_of(
    st.none(),
    st.integers(-4, 48).map(lambda k: k * T_SPAN / 40),
    st.floats(-1.0, T_SPAN + 2.0, allow_nan=False),
)


@st.composite
def random_traces(draw):
    template = draw(st.sampled_from(TEMPLATES))
    n_ctx = len(template.contexts)
    event = st.tuples(st.integers(0, n_ctx - 1), times_st, ticks_st)
    nranks = draw(st.integers(1, 4))
    rank_events = [draw(st.lists(event, max_size=24)) for _ in range(nranks)]
    if not any(rank_events):
        rank_events[0].append(draw(event))
    resolution = draw(st.sampled_from([1 / TICKS_PER_S, 1e-3]))
    return build_traces(template, rank_events, resolution)


@st.composite
def windows(draw):
    a, b = draw(bound_st), draw(bound_st)
    if a is not None and b is not None and a > b:
        a, b = b, a
    return [(a, b), (None, None)]


@settings(max_examples=40, deadline=None)
@given(traces=random_traces(), wins=windows(),
       small=st.integers(2, 8))
def test_kernels_bit_identical_to_per_event_oracles(traces, wins, small):
    def check(source):
        assert_kernels_match(source, wins, (1, small, 2000), (1, 16, 100))

    on_both_backends(traces, check, chunk_duration=T_SPAN / 7)


# --------------------------------------------------------------------- #
# pinned edge cases
# --------------------------------------------------------------------- #
TREE = TEMPLATES[0]


def _ctx(*procs: str) -> int:
    """Index of the tree-template context whose path is *procs*."""
    for ci, (frames, _line) in enumerate(TREE.contexts):
        if tuple(f.proc for f in frames) == procs:
            return ci
    raise LookupError(procs)


ALL_SPANS = (1, 2, 3, 5, 2000)
ALL_BINS = (1, 10, 16, 100)


def test_empty_window():
    traces = build_traces(TREE, [[(_ctx("p0_0"), 1.0, 512)],
                                 [(_ctx("p0_0"), 2.0, 512)]])
    on_both_backends(traces, lambda s: assert_kernels_match(
        s, [(5.0, 5.0), (3.0, 4.0), (-2.0, -1.0)], ALL_SPANS, ALL_BINS))
    slab = flame_slab(traces, 0, 5.0, 5.0)
    assert slab["depths"] == [] and slab["span_count"] == 0


def test_zero_duration_events():
    leaf = _ctx("p0_0", "p1_0", "p2_0")
    traces = build_traces(TREE, [[(leaf, 1.0, 0), (leaf, 1.0, 0),
                                  (_ctx("p0_0"), 2.5, 0), (leaf, 3.0, 256)]])
    on_both_backends(traces, lambda s: assert_kernels_match(
        s, [(None, None), (1.0, 3.0), (0.0, 10.0)], ALL_SPANS, ALL_BINS))


def test_event_spanning_many_bins():
    traces = build_traces(TREE, [
        [(_ctx("p0_0", "p1_1"), 0.125, 9 * TICKS_PER_S + 3)],
        [(_ctx("p0_0"), 0.0, 10), (_ctx("p0_0", "p1_0"), 4.0, 700)],
    ])
    on_both_backends(traces, lambda s: assert_kernels_match(
        s, [(None, None), (0.0, 10.0), (2.0, 7.5)], ALL_SPANS, ALL_BINS))
    series = idleness_series(traces, 0.0, 10.0, bins=100)
    assert sum(1 for v in series["max_busy"] if v > 0) > 80


def test_event_ending_exactly_on_a_bin_edge():
    # with [0, 10) in 10 bins the edges are the integers: the first
    # event ends exactly on edge 3, the second begins exactly on it
    leaf = _ctx("p0_0", "p1_0")
    traces = build_traces(TREE, [[(leaf, 2.0, TICKS_PER_S),
                                  (leaf, 3.0, TICKS_PER_S // 2)]])
    on_both_backends(traces, lambda s: assert_kernels_match(
        s, [(0.0, 10.0), (None, None), (2.0, 3.0)], ALL_SPANS, ALL_BINS))
    series = idleness_series(traces, 0.0, 10.0, bins=10)
    assert series["max_busy"][:4] == [0.0, 0.0, 1.0, 0.5]


def test_path_shorter_then_longer_again():
    deep = _ctx("p0_0", "p1_0", "p2_0", "p3_0")
    traces = build_traces(TREE, [[
        (deep, 1.0, 64), (_ctx("p0_0"), 1.5, 64), (deep, 2.0, 64),
        (_ctx("p0_0", "p1_0"), 2.5, 64), (deep, 3.0, 64),
    ]])
    on_both_backends(traces, lambda s: assert_kernels_match(
        s, [(None, None), (1.5, 3.5)], ALL_SPANS, ALL_BINS))
    slab = flame_slab(traces)
    # one root span; the shorter path splits every deeper depth
    assert [len(spans) for spans in slab["depths"]] == [1, 2, 3, 3]


@pytest.mark.parametrize("max_spans", [1, 4, 7])
def test_truncation_keeps_spans_in_closing_order(max_spans):
    deep = _ctx("p0_0", "p1_0", "p2_0", "p3_0")
    other = _ctx("p0_0", "p1_1", "p2_0")
    events = [(deep if i % 2 else other, 0.5 * i, 32) for i in range(12)]
    traces = build_traces(TREE, [events])
    on_both_backends(traces, lambda s: assert_kernels_match(
        s, [(None, None), (1.0, 4.0)], (max_spans,), (16,)))
    slab = flame_slab(traces, max_spans=max_spans)
    assert slab["span_count"] == max_spans
    assert slab["span_count"] + slab["truncated"] == \
        flame_slab(traces)["span_count"]


def test_decimal_times_and_durations():
    """Non-dyadic times and durations: float sums per bin depend on the
    order of additions, and bins found by division disagree with the
    ``linspace`` edges by an ulp for some events (those near an edge
    must keep the single-bin ``end - begin`` amount)."""
    ctxs = [_ctx("p0_0", "p1_0"), _ctx("p0_0", "p1_1", "p2_0"), _ctx("p0_0")]
    rank_events = [
        [(ctxs[(k + r) % 3], k / 100, 3 + (k * (r + 1)) % 7)
         for k in range(100)]
        for r in range(2)
    ]
    traces = build_traces(TREE, rank_events, resolution=1e-3)
    on_both_backends(traces, lambda s: assert_kernels_match(
        s, [(0.1, 1.1), (None, None), (0.3, 0.9)], (1, 37, 2000),
        (1, 7, 16, 100)), chunk_duration=0.13)
