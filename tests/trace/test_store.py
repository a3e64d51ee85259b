"""Unit coverage for the time-partitioned chunked trace store: layout,
path resolution, chunk pruning, slab fast path, verification, and the
structured-error surface."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import TraceCorrupt, TraceError
from repro.trace import create_trace_store, is_trace_path, open_trace
from repro.trace.store import TRACE_MANIFEST
from tests.file_backing import is_file_backed


def test_create_writes_manifest_chunks_and_skeleton(fig1_store):
    files = sorted(os.listdir(os.path.join(fig1_store.path)))
    assert TRACE_MANIFEST in files
    assert "skeleton.rpdb" in files
    assert any(f.endswith(".events") for f in files)
    assert any(f.endswith(".slab") for f in files)
    assert fig1_store.chunks_total >= 2


def test_create_refuses_existing_path(fig1_traces, tmp_path):
    path = str(tmp_path / "t.rpstore")
    create_trace_store(fig1_traces, path).close()
    with pytest.raises(TraceError, match="exists"):
        create_trace_store(fig1_traces, path)
    # overwrite replaces in place
    store = create_trace_store(fig1_traces, path, overwrite=True)
    store.close()


def test_create_validates_chunk_duration(fig1_traces, tmp_path):
    with pytest.raises(TraceError, match="chunk_duration"):
        create_trace_store(fig1_traces, str(tmp_path / "x"),
                           chunk_duration=0.0)


def test_open_resolves_enclosing_rpstore(fig1_traces, tmp_path):
    """A store dir containing a ``trace/`` subdir opens transparently."""
    root = tmp_path / "c.rpstore"
    create_trace_store(fig1_traces, str(root / "trace")).close()
    assert is_trace_path(str(root))
    assert is_trace_path(str(root / "trace"))
    with open_trace(str(root)) as store:
        assert store.n_events == fig1_traces.n_events


def test_open_missing_store_is_structured(tmp_path):
    assert not is_trace_path(str(tmp_path / "nope"))
    with pytest.raises(TraceError, match="no trace store"):
        open_trace(str(tmp_path / "nope"))


def test_info_summary(fig1_store, fig1_traces):
    info = fig1_store.info()
    assert info["nranks"] == 2
    assert info["n_events"] == fig1_traces.n_events
    assert info["chunks"] == fig1_store.chunks_total
    assert [m["name"] for m in info["metrics"]] == \
        fig1_traces.metrics.names()
    json.dumps(info)  # JSON-friendly by contract


def test_window_ticks_match_in_memory(fig1_store, fig1_traces):
    t0 = fig1_traces.t_begin
    t1 = fig1_traces.t_end
    for window in [(None, None), (t0, (t0 + t1) / 2), ((t0 + t1) / 2, None)]:
        assert np.array_equal(
            fig1_store.window_ticks(*window),
            fig1_traces.window_ticks(*window),
        )


def test_narrow_window_prunes_chunks(fig1_store, fig1_traces):
    """A window inside one partition must not touch every chunk."""
    import math

    middle = fig1_store._chunks[len(fig1_store._chunks) // 2]
    fig1_store.reset_counters()
    # the smallest window containing the chunk's own events
    fig1_store.window_ticks(middle.t_lo,
                            math.nextafter(middle.t_hi, math.inf))
    assert 0 < fig1_store.chunks_touched < fig1_store.chunks_total


def test_covered_chunks_use_slab_fast_path(fig1_store, fig1_traces):
    """Whole-trace window: every chunk is fully covered, so the answer
    comes from pre-aggregated slabs — and equals the event-level sum."""
    fig1_store.reset_counters()
    whole = fig1_store.window_ticks(None, None)
    assert fig1_store.chunks_touched == fig1_store.chunks_total
    # event-level reconstruction agrees
    by_events = np.zeros_like(whole)
    for rank in range(fig1_store.nranks):
        _times, ctx, ticks = fig1_store.events_window(rank)
        np.add.at(by_events[rank], ctx, ticks)
    assert np.array_equal(whole, by_events)


def test_chunk_arrays_are_file_backed_views(fig1_store):
    """Chunk slabs and event arrays read straight from the mapping: plain
    ndarrays (no np.memmap subclass), read-only, no resident copy."""
    fig1_store.window_ticks(None, None)
    for chunk in fig1_store._chunks:
        arrays = (fig1_store._chunk_slab(chunk),
                  *fig1_store._chunk_events(chunk))
        for array in arrays:
            assert type(array) is np.ndarray
            assert not array.flags.writeable
            assert is_file_backed(array)
    # a window's event arrays are gathered copies, detached from the file
    times, ctx, ticks = fig1_store.events_window(0)
    assert not any(is_file_backed(a) for a in (times, ctx, ticks))


def test_events_window_checks_rank(fig1_store):
    with pytest.raises(TraceError, match="out of range"):
        fig1_store.events_window(99)


def test_skeleton_round_trips_structure(fig1_store, fig1_traces):
    skel = fig1_store.skeleton
    windowed = fig1_traces.window_experiment(None, None)
    assert sorted(n.name for n in skel.cct.walk() if n.name) == \
        sorted(n.name for n in windowed.cct.walk() if n.name)


def test_malformed_manifest_is_trace_corrupt(fig1_traces, tmp_path):
    path = str(tmp_path / "t.rpstore")
    create_trace_store(fig1_traces, path).close()
    manifest = os.path.join(path, TRACE_MANIFEST)
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    with pytest.raises(TraceCorrupt):
        open_trace(path)


def test_canonical_manifest_verifies_without_reencoding(fig1_store,
                                                       monkeypatch):
    """The self-CRC of a manifest as written is checked over its stored
    bytes; the canonical re-encode is only the fallback."""
    import repro.trace.store as trace_store

    def refuse(*_args, **_kwargs):
        raise AssertionError("manifest re-encoded on open")

    monkeypatch.setattr(trace_store.json, "dumps", refuse)
    with open_trace(fig1_store.path) as store:
        assert store.chunks_total == fig1_store.chunks_total


def test_reformatted_manifest_still_opens(fig1_traces, tmp_path):
    """Whitespace the canonical encoder would not write fails the byte
    CRC, but the fallback re-encodes the parsed body and accepts it."""
    path = str(tmp_path / "t.rpstore")
    create_trace_store(fig1_traces, path).close()
    manifest = os.path.join(path, TRACE_MANIFEST)
    with open(manifest, encoding="utf-8") as fh:
        data = json.load(fh)
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=4)
    with open_trace(path) as store:
        assert store.n_events == fig1_traces.n_events
    data["t_end"] = data["t_end"] + 1.0
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    with pytest.raises(TraceCorrupt, match="self-CRC32"):
        open_trace(path)


def test_missing_chunk_file_fails_eagerly(fig1_traces, tmp_path):
    """Size checks run at open: a deleted chunk can never serve a
    phantom (empty) window later."""
    path = str(tmp_path / "t.rpstore")
    create_trace_store(fig1_traces, path).close()
    victim = next(f for f in os.listdir(path) if f.endswith(".events"))
    os.unlink(os.path.join(path, victim))
    with pytest.raises(TraceCorrupt):
        open_trace(path)


def test_corrupt_chunk_payload_fails_on_read(fig1_traces, tmp_path):
    """Same-size bit damage passes the eager size check but the lazy
    CRC catches it the moment the chunk is read."""
    path = str(tmp_path / "t.rpstore")
    create_trace_store(fig1_traces, path).close()
    victim = next(f for f in sorted(os.listdir(path))
                  if f.endswith(".events"))
    full = os.path.join(path, victim)
    blob = bytearray(open(full, "rb").read())
    blob[len(blob) // 2] ^= 0x40
    with open(full, "wb") as fh:
        fh.write(bytes(blob))
    with open_trace(path) as store:
        with pytest.raises(TraceCorrupt, match="CRC32"):
            # partial windows force the event path through every chunk
            for chunk in store._chunks:
                store._chunk_events(chunk)


def test_window_experiment_equals_in_memory_query(fig1_store,
                                                  fig1_traces):
    from repro.query import query, run_query

    metric = fig1_traces.metrics.by_id(0).name
    span = fig1_traces.t_end - fig1_traces.t_begin
    t0 = fig1_traces.t_begin + 0.25 * span
    t1 = fig1_traces.t_begin + 0.75 * span
    q = query("**/*").window(t0, t1).sort(metric)
    assert run_query(q, fig1_store).to_rows() == \
        run_query(q, fig1_traces).to_rows()
