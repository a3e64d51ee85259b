"""Differential battery: a store's window frame vs. the window experiment.

A :class:`~repro.trace.store.TraceStore` answers a windowed query from
its tick sums, cutting the window's tree out of the all-context union
tree (:meth:`TraceStore.window_frame`).  The reference is the
construction every backend used before and the in-memory trace still
uses: :meth:`TraceStore.window_experiment` materializes one profile per
rank, correlates them into a CCT and attributes it.  The two must agree
on everything a query result shows — names, categories, depths,
``float.hex`` of every cell, ``rows``, ``parents`` and ``truncated`` —
for every query shape and window.

Row order is the trap: it reaches ``rows`` and ``parents``, tie order
under ``sort``, and the float order of the Eq. 2 sums.  The traces are
built to expose it: several ranks, non-dyadic resolutions (sums round),
negative ticks that cancel, file-less entry frames and stray call lines
that collide on one scope, binary-only frames, and empty windows.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import MetricTable
from repro.hpcrun.profile_data import Frame
from repro.hpcstruct.synthstruct import build_structure
from repro.query import query, run_query
from repro.sim.spmd import run_spmd
from repro.sim.workloads import fig1, pflotran
from repro.trace import TraceData, TraceSet, create_trace_store

T_SPAN = 10.0
METRICS = MetricTable()
for _name in ("cycles", "flops"):
    METRICS.add(_name)
#: non-dyadic on purpose: materialized costs round when summed
RESOLUTIONS = {0: 1e-9, 1: 0.1}


def _context_pool():
    """Real call paths of a simulated run plus colliding variants and
    binary-only frames."""
    program = pflotran.build()
    seen, pool = set(), []
    for profile in run_spmd(program, 2, seed=3):
        for frames, line, _costs in profile.paths():
            key = (tuple(f.key for f in frames), line)
            if key not in seen:
                seen.add(key)
                pool.append((tuple(frames), line))
    real = list(pool)
    for frames, line in real[:5]:
        entry = frames[0]
        # both land on the same procedure frame as ``entry``
        pool.append(((Frame(entry.proc, ""),) + frames[1:], line))
        pool.append(((Frame(entry.proc, entry.file, 99),) + frames[1:], line))
    # binary-only code: procedures under <unknown load module>
    pool.append(((real[0][0][0], Frame("memcpy", "", 12)), 4))
    pool.append(((real[1][0][0], Frame("__libc_io", "libc.c", 30)), 9))
    return program, pool


PROGRAM, CONTEXTS = _context_pool()

QUERIES = [
    query("**/*"),
    query("**/*").sort("cycles").limit(6),
    query("**/*").sort("flops", "exclusive", descending=False).limit(9),
    query("**/*").filter("cycles.exclusive >= 5%"),
    query("**/*").filter("flops.inclusive > 0.3", category="frame"),
    query("**/*").prune("**/memcpy"),
    query("**/*").filter(category=("frame", "loop")).squash(),
    query("**/*").filter(category="statement").squash().sort("cycles")
    .limit(4),
    query("**/*").groupby("name").sort("cycles", "exclusive"),
    query("**/*").groupby("depth"),
    query("main/**/*").select(flavors=("raw", "exclusive")),
]


def fingerprint(result) -> tuple:
    return (
        result.names,
        result.categories,
        result.depths.tolist(),
        result.labels,
        [[float(v).hex() for v in row] for row in result.values],
        None if result.rows is None else result.rows.tolist(),
        None if result.parents is None else result.parents.tolist(),
        result.truncated,
    )


def trace_set(rank_events, contexts=CONTEXTS, structure=None) -> TraceSet:
    traces = []
    for rank, events in enumerate(rank_events):
        td = TraceData(METRICS, resolutions=RESOLUTIONS, rank=rank,
                       program="window-frame")
        for frames, line in contexts:  # one shared context table
            td.record(frames, line, 0.0, {})
        for ci, t, ticks in events:
            frames, line = contexts[ci]
            td.record(frames, line, t, dict(enumerate(ticks)))
        traces.append(td)
    return TraceSet(traces, structure or build_structure(PROGRAM),
                    name="window-frame")


def assert_frames_agree(store, windows, queries=QUERIES) -> None:
    for t0, t1 in windows:
        for q in queries:
            want = run_query(q, store.window_experiment(t0, t1))
            got = run_query(q.window(t0, t1), store)
            assert fingerprint(got) == fingerprint(want), (t0, t1, q)


ticks_row = st.lists(st.integers(-10 ** 6, 10 ** 9), min_size=2, max_size=2)


@st.composite
def trace_events(draw):
    """Per-rank ``(ctx, t, ticks)`` over 1-3 ranks; some events are
    followed by their negation, so the pair cancels in a wide window."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        events = []
        for ci, t, ticks, cancel_at in draw(st.lists(
            st.tuples(
                st.integers(0, len(CONTEXTS) - 1),
                st.floats(0.0, T_SPAN, exclude_max=True, allow_nan=False),
                ticks_row,
                st.none() | st.floats(0.0, T_SPAN, exclude_max=True,
                                      allow_nan=False),
            ),
            max_size=14,
        )):
            events.append((ci, t, ticks))
            if cancel_at is not None:
                events.append((ci, cancel_at, [-v for v in ticks]))
        out.append(events)
    return out


@settings(max_examples=40, deadline=None)
@given(rank_events=trace_events(),
       cuts=st.tuples(st.floats(0, T_SPAN, allow_nan=False),
                      st.floats(0, T_SPAN, allow_nan=False)))
def test_window_frame_equals_window_experiment(rank_events, cuts):
    a, b = sorted(cuts)
    traces = trace_set(rank_events)
    with tempfile.TemporaryDirectory() as tmp:
        store = create_trace_store(traces, os.path.join(tmp, "t"),
                                   chunk_duration=T_SPAN / 7)
        try:
            assert store._union_tree() is not None  # the array path runs
            assert_frames_agree(store, [
                (None, None), (a, b), (None, a), (b, None), (a, a),
                (T_SPAN + 1.0, T_SPAN + 2.0),
            ])
        finally:
            store.close()


def _diverging_pair():
    """Two contexts whose paths part below one shared entry frame."""
    for i, (fi, _li) in enumerate(CONTEXTS):
        for j, (fj, _lj) in enumerate(CONTEXTS[i + 1:], i + 1):
            if len(fi) > 1 and len(fj) > 1 and fi[0] == fj[0] and \
                    fi[1].proc != fj[1].proc:
                return i, j
    raise AssertionError("no diverging pair in the context pool")


def test_subwindow_child_order_differs_from_whole_trace(tmp_path):
    """A sub-window orders children by its own first touches.

    Over the whole trace rank 0 touches context ``i`` before ``j``;
    after t=4 only ``j`` is on rank 0 and ``i`` moves to rank 1, so the
    window lists ``j``'s branch first — unlike the whole trace."""
    i, j = _diverging_pair()
    traces = trace_set([[(i, 1.0, [3, 1]), (j, 5.0, [2, 1])],
                        [(i, 6.0, [4, 1])]])
    store = create_trace_store(traces, str(tmp_path / "t"))
    try:
        assert_frames_agree(store, [(None, None), (4.0, None)])
        proc_i, proc_j = CONTEXTS[i][0][1].proc, CONTEXTS[j][0][1].proc

        def order(t0):
            names = run_query(query("**/*").window(t0, None), store).names
            return names.index(proc_i) < names.index(proc_j)

        assert order(None) and not order(4.0)
    finally:
        store.close()


def test_colliding_contexts_sum_within_a_rank_first(tmp_path):
    """Two contexts of one rank on one leaf sum before the ranks add:
    ``(0.1 + 0.1) + (0.1 + 0.4)`` rounds apart from a running sum."""
    frames, line = CONTEXTS[0]
    fileless = CONTEXTS.index(((Frame(frames[0].proc, ""),) + frames[1:],
                               line))
    traces = trace_set([[(0, 1.0, [0, 1]), (fileless, 2.0, [0, 1])],
                        [(0, 1.5, [0, 1]), (fileless, 2.5, [0, 4])]])
    store = create_trace_store(traces, str(tmp_path / "t"))
    try:
        assert_frames_agree(store, [(None, None), (1.2, None)])
        got = run_query(query("**/*").select("flops", "inclusive"), store)
        assert got.values[0, 0] == (0.1 + 0.1) + (0.1 + 0.4)
    finally:
        store.close()


def test_ambiguous_procedures_fall_back_to_the_experiment(tmp_path):
    """fig1 knows ``g`` in file2.c; an unknown ``g`` in z.c makes the
    file-less ``g`` ambiguous, so which procedure it gets depends on
    the order frames resolve in.  No fixed union tree stands for every
    window then, and the store answers through the window experiment.
    (The file-less context carries no ticks: resolving it would
    synthesize a second ``<unknown file>`` ``g``.)"""
    main = Frame("m", "file1.c")
    contexts = [((main, Frame("g", "z.c", 8)), 3),
                ((main, Frame("g", "", 8)), 3),
                ((main,), 2)]
    traces = trace_set([[(0, 1.0, [5, 1]), (2, 2.0, [7, 2])],
                        [(2, 3.0, [9, 3]), (0, 4.0, [1, 1])]],
                       contexts=contexts,
                       structure=build_structure(fig1.build()))
    store = create_trace_store(traces, str(tmp_path / "t"))
    try:
        assert store._union_tree() is None
        assert_frames_agree(store, [(None, None), (1.5, None), (2.5, 3.5)])
    finally:
        store.close()


@pytest.mark.parametrize("nranks", [1, 3])
def test_simulated_trace_windows(tmp_path, nranks):
    """A simulated multi-phase trace, over a sweep of windows."""
    from repro.sim.spmd import trace_spmd

    traces = trace_spmd(pflotran.build(), nranks=nranks, seed=2,
                        trace_slices=6, name="sim-window")
    span = traces.t_end - traces.t_begin
    store = create_trace_store(traces, str(tmp_path / "t"),
                               chunk_duration=span / 9)
    try:
        edges = [traces.t_begin + span * k / 5 for k in range(6)]
        windows = [(None, None)] + list(zip(edges, edges[2:]))
        assert_frames_agree(store, windows, [
            query("**/*"),
            query("**/*").sort().limit(15),
            query("**/*").filter(category="frame").squash(),
            query("**/*").groupby("name").sort(),
        ])
        for t0, t1 in windows:  # and the in-memory trace agrees too
            q = query("**/*").sort().limit(20).window(t0, t1)
            assert fingerprint(run_query(q, store)) == \
                fingerprint(run_query(q, traces))
    finally:
        store.close()
