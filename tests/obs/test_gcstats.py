"""Garbage-collector accounting: counters, exposition, and ``gc`` spans.

Automatic collection is switched off around the span tests (the
``no_automatic_gc`` fixture), so the only collections are the explicit
``gc.collect()`` calls (which run the registered callbacks like any
other collection) and a scripted tracer clock gives exact pause times.
"""

from __future__ import annotations

import builtins
import gc
import json
import os
import threading

import pytest

from repro.obs import gc_stats
from repro.obs import spans
from repro.obs.export import tracer_experiment
from repro.obs.spans import SpanTracer, install, span, uninstall
from repro.server.app import AnalysisApp, prometheus_from_states
from repro.server.pool import merge_stats_payloads


@pytest.fixture(autouse=True)
def clean_tracer():
    uninstall()
    yield
    uninstall()


def test_counts_a_full_collection():
    before = gc_stats()
    gc.collect()
    after = gc_stats()
    assert set(after) == {"gen0", "gen1", "gen2"}
    assert after["gen2"]["collections"] == before["gen2"]["collections"] + 1
    assert after["gen2"]["pause_s"] > before["gen2"]["pause_s"]


def test_a_forked_child_counts_from_zero(no_automatic_gc):
    """Pool workers are forked; each reports only its own collections,
    so the pool's sum counts every collection once.  (The child
    inherits automatic collection off, so it runs none.)"""
    gc.collect()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        os.write(write, json.dumps(gc_stats()).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        child = json.load(fh)
    os.waitpid(pid, 0)
    assert gc_stats()["gen2"]["collections"] >= 1
    assert all(counts["collections"] == 0 for counts in child.values())


class TestPauseSpans:
    def test_pause_is_a_gc_child_of_the_open_span(self, no_automatic_gc):
        # outer opens at 0, the collection runs 1 -> 3, outer closes at 5
        ticks = iter([0.0, 1.0, 3.0, 5.0])
        tracer = install(SpanTracer(clock=lambda: next(ticks)))
        with span("outer"):
            gc.collect()
        assert tracer.snapshot() == {("outer",): (1, 3.0),
                                     ("outer", "gc"): (1, 2.0)}

    def test_pause_outside_any_span_is_a_root_gc_span(self, no_automatic_gc):
        ticks = iter([1.0, 1.5])
        tracer = install(SpanTracer(clock=lambda: next(ticks)))
        gc.collect()
        assert tracer.snapshot() == {("gc",): (1, 0.5)}

    def test_self_profile_gets_its_own_gc_row(self, no_automatic_gc):
        tracer = install()
        with span("server.request"):
            gc.collect()
        uninstall()
        flat = tracer_experiment(tracer).flat_view()
        assert "obs://gc" in {row.name for row in flat.roots}


    def test_collection_under_the_registry_lock_cannot_deadlock(
        self, monkeypatch
    ):
        """A collection may start at any allocation, including the copy
        :meth:`SpanTracer.snapshot` makes under its registry lock, and on
        a thread whose first span is that collection's ``gc`` span."""
        tracer = install()

        def collecting_list(items=()):
            gc.collect()
            return builtins.list(items)

        monkeypatch.setattr(spans, "list", collecting_list, raising=False)
        done = []
        worker = threading.Thread(
            target=lambda: done.append(tracer.snapshot()), daemon=True
        )
        worker.start()
        worker.join(timeout=10.0)
        assert done, "snapshot() deadlocked on its own gc span"
        monkeypatch.undo()
        assert tracer.snapshot()[("gc",)][0] >= 1


class TestServerExposition:
    def test_stats_and_metrics_carry_gc_counts(self):
        app = AnalysisApp()
        gc.collect()
        stats = app.stats_payload()["gc"]
        assert stats["gen2"]["collections"] >= 1
        text = app.prometheus_text()
        for family in ("collections_total", "collected_objects_total",
                       "pause_seconds_total"):
            assert f"# TYPE repro_gc_{family} counter" in text
            for generation in "012":
                assert f'repro_gc_{family}{{generation="{generation}"}}' in text

    def test_pool_merges_gc_counts_across_workers(self):
        app = AnalysisApp()
        state, payload = app.metrics_state(), app.stats_payload()
        collections = state["gc"]["gen2"]["collections"]
        doubled = prometheus_from_states([state, state])
        assert (f'repro_gc_collections_total{{generation="2"}} '
                f'{2 * collections}') in doubled
        merged = merge_stats_payloads([payload, payload])["gc"]
        assert merged["gen2"]["collections"] == \
            2 * payload["gc"]["gen2"]["collections"]
        assert merged["gen0"]["pause_s"] == 2 * payload["gc"]["gen0"]["pause_s"]
