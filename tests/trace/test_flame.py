"""Flame-chart slabs and time-binned idleness series.

The straggler fixture plants rank-proportional work, so the idleness
series has a known shape (rising toward the end of the trace) and the
per-rank flame slabs have known relative spans.
"""

from __future__ import annotations

import pytest

from repro.errors import MetricError, TraceError
from repro.trace import flame_slab, idleness_series
from repro.trace.flame import flame_snapshot


def test_flame_slab_shape(fig1_traces):
    slab = flame_slab(fig1_traces, rank=0)
    assert slab["rank"] == 0
    assert slab["event_count"] > 0
    assert slab["span_count"] == sum(
        len(spans) for spans in slab["depths"])
    assert not slab["truncated"]
    for depth, spans in enumerate(slab["depths"]):
        for span in spans:
            assert span["end"] >= span["begin"] >= 0.0
            assert set(span) == {"name", "file", "begin", "end", "value"}
    # depth 0 is the entry procedure: exactly one merged span for a
    # single sequential rank
    assert len(slab["depths"][0]) >= 1


def test_flame_slab_windows_nest(fig1_traces):
    whole = flame_slab(fig1_traces, rank=0)
    t0, t1 = fig1_traces.t_begin, fig1_traces.t_end
    mid = (t0 + t1) / 2
    half = flame_slab(fig1_traces, rank=0, t0=t0, t1=mid)
    assert half["event_count"] <= whole["event_count"]
    for spans in half["depths"]:
        for span in spans:
            assert span["begin"] < mid


def test_flame_slab_max_spans_truncates(fig1_traces):
    slab = flame_slab(fig1_traces, rank=0, max_spans=1)
    assert slab["truncated"]
    assert slab["span_count"] <= 1 + sum(
        1 for _ in slab["depths"])  # at most one span admitted per depth


def test_flame_slab_validates_inputs(fig1_traces):
    with pytest.raises(TraceError, match="out of range"):
        flame_slab(fig1_traces, rank=9)
    with pytest.raises(MetricError):
        flame_slab(fig1_traces, metric="nope")


def test_flame_snapshot_is_tabular(fig1_traces):
    slab = flame_slab(fig1_traces, rank=0)
    snap = flame_snapshot(slab)
    assert snap.view == "trace-flame"
    rows = snap.to_rows()
    assert len(rows) == slab["span_count"]
    assert snap.labels[:2] == ("begin", "end")


def test_idleness_series_shape(straggler_traces):
    series = idleness_series(straggler_traces, bins=8)
    assert series["nranks"] == 4
    assert len(series["edges"]) == 9
    for key in ("mean_busy", "max_busy", "idleness", "imbalance"):
        assert len(series[key]) == 8
    for mean, mx, idle in zip(series["mean_busy"], series["max_busy"],
                              series["idleness"]):
        assert mx >= mean >= 0.0
        assert 0.0 <= idle <= 1.0


def test_idleness_rises_for_stragglers(straggler_traces):
    """Rank-proportional work: early bins are balanced, late bins are
    idle on the fast ranks — the planted signal the golden corpus and
    the paper's trace view are about."""
    series = idleness_series(straggler_traces, bins=8)
    idle = series["idleness"]
    first_half = sum(idle[:4]) / 4
    second_half = sum(idle[4:]) / 4
    assert second_half > first_half


def test_idleness_series_validates_bins(fig1_traces):
    with pytest.raises(TraceError):
        idleness_series(fig1_traces, bins=0)


def test_trace_read_path_records_spans(fig1_store):
    """With a tracer installed, the store scans, the kernels and the
    window frame show up as ``trace.*`` spans, nested under the kernel
    that called them: the context table once per open, the window frame
    once per query, and one events pass per idleness series."""
    from repro.obs import install, uninstall
    from repro.query import query, run_query

    tracer = install()
    try:
        fig1_store.window_ticks()
        flame_slab(fig1_store, rank=0)
        idleness_series(fig1_store, bins=4)
        for _ in range(2):
            run_query(query("**/*").window(None, None), fig1_store)
    finally:
        uninstall()
    snap = tracer.snapshot()
    calls = {path: n for path, (n, _s) in snap.items()}
    assert ("trace.window-ticks",) in calls
    assert ("trace.flame-slab", "trace.events-window") in calls
    assert calls[("trace.idleness-series", "trace.events-windows")] == 1
    assert ("trace.idleness-series", "trace.events-window") not in calls
    # flame builds the prefix table, the first query the union tree
    assert calls[("trace.flame-slab", "trace.context-table")] == 1
    assert calls[("trace.context-table",)] == 1
    assert calls[("trace.window-frame",)] == 2
    assert calls[("trace.window-ticks",)] == 3
    assert not any("trace.window-experiment" in path for path in calls)
