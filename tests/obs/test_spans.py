"""The span tracer: recording semantics, threading, and the fast path.

The contract under test is the one the <3% overhead budget rests on:
disabled hook sites return one shared no-op object (no allocation),
enabled spans record **self time** per calling context on lock-free
per-thread state, and the merged snapshot recovers exact call counts
and a conserved total across threads.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import promexport, slowlog
from repro.obs.spans import (
    SpanTracer,
    current_trace_id,
    current_tracer,
    install,
    reset_trace_id,
    set_trace_id,
    span,
    traced,
    uninstall,
)


@pytest.fixture(autouse=True)
def clean_tracer(no_automatic_gc):
    uninstall()
    yield
    uninstall()


class TestDisabledFastPath:
    def test_span_is_shared_noop(self):
        assert current_tracer() is None
        a = span("x")
        b = span("y")
        assert a is b  # one shared object, no per-call allocation

    def test_noop_span_records_nothing(self):
        with span("outer"):
            with span("inner"):
                pass
        tracer = install()
        assert tracer.snapshot() == {}

    def test_traced_decorator_passthrough(self):
        @traced("compute")
        def add(a, b):
            return a + b

        assert add(2, 3) == 5

    def test_install_uninstall_cycle(self):
        tracer = install()
        assert current_tracer() is tracer
        with span("alive"):
            pass
        assert uninstall() is tracer
        with span("dead"):
            pass
        assert tracer.snapshot() == {("alive",): (1, pytest.approx(
            tracer.snapshot()[("alive",)][1]))}
        assert ("dead",) not in tracer.snapshot()


class TestRecording:
    def test_calling_context_paths(self):
        tracer = install()
        with span("request"):
            with span("decode"):
                pass
            with span("render"):
                with span("engine"):
                    pass
        with span("request"):
            with span("render"):
                pass
        snap = tracer.snapshot()
        calls = {path: n for path, (n, _s) in snap.items()}
        assert calls == {
            ("request",): 2,
            ("request", "decode"): 1,
            ("request", "render"): 2,
            ("request", "render", "engine"): 1,
        }

    def test_self_time_sums_to_wall_time(self):
        """Self times are a partition: their sum equals the root's
        inclusive time (the Eq. 1 invariant the export relies on).

        The tracer reads a scripted clock, so the self times are exact:
        root runs 0→5 with its child 2→3.5 and its grandchild 2.5→3."""
        ticks = iter([0.0, 2.0, 2.5, 3.0, 3.5, 5.0])
        tracer = install(SpanTracer(clock=lambda: next(ticks)))
        with span("root"):
            with span("child"):
                with span("grandchild"):
                    pass
        snap = tracer.snapshot()
        assert snap == {
            ("root",): (1, 3.5),
            ("root", "child"): (1, 1.0),
            ("root", "child", "grandchild"): (1, 0.5),
        }
        # the child's time is NOT double counted in the root
        assert sum(s for _n, s in snap.values()) == 5.0

    def test_exception_still_pops(self):
        tracer = install()
        with pytest.raises(ValueError):
            with span("outer"):
                with span("inner"):
                    raise ValueError("boom")
        snap = tracer.snapshot()
        assert ("outer",) in snap and ("outer", "inner") in snap
        # stack fully unwound: a new span starts a fresh root path
        with span("after"):
            pass
        assert ("after",) in tracer.snapshot()

    def test_traced_decorator_records(self):
        tracer = install()

        @traced("kernel")
        def work():
            return 42

        assert work() == 42
        assert tracer.snapshot()[("kernel",)][0] == 1

    def test_reset(self):
        tracer = install()
        with span("x"):
            pass
        tracer.reset()
        assert tracer.snapshot() == {}
        with span("y"):
            pass
        assert tracer.span_count() == 1

    def test_thread_merge_conserves_counts(self):
        tracer = install()
        n_threads, n_iter = 8, 200

        def worker():
            for _ in range(n_iter):
                with span("request"):
                    with span("stage"):
                        pass

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = tracer.snapshot()
        assert snap[("request",)][0] == n_threads * n_iter
        assert snap[("request", "stage")][0] == n_threads * n_iter


class TestTraceIds:
    def test_ambient_set_and_reset(self):
        assert current_trace_id() is None
        token = set_trace_id("abc123")
        assert current_trace_id() == "abc123"
        reset_trace_id(token)
        assert current_trace_id() is None

    def test_thread_isolation(self):
        set_trace_id("main-id")
        seen = {}

        def worker():
            seen["worker"] = current_trace_id()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["worker"] is None  # context does not leak across threads
        assert current_trace_id() == "main-id"
        set_trace_id(None)


class TestHistogram:
    def test_bucketing_and_cumulative(self):
        h = promexport.Histogram(bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 2.0):
            h.observe(v)
        assert h.total == 4
        assert h.sum == pytest.approx(3.05)
        assert h.cumulative() == [("0.1", 1), ("1.0", 3), ("+Inf", 4)]

    def test_boundary_goes_to_lower_bucket(self):
        h = promexport.Histogram(bounds=(0.1, 1.0))
        h.observe(0.1)  # le="0.1" bucket is inclusive, Prometheus-style
        assert h.cumulative()[0] == ("0.1", 1)

    def test_render_metrics_format(self):
        h = promexport.Histogram(bounds=(0.5,))
        h.observe(0.2)
        text = promexport.render_metrics([
            ("t_total", "counter", "help text",
             [("", {"endpoint": "/x"}, 3)]),
            ("t_seconds", "histogram", "latency",
             [("_bucket", {"le": le}, n) for le, n in h.cumulative()]
             + [("_sum", None, h.sum), ("_count", None, h.total)]),
        ])
        assert '# TYPE t_total counter' in text
        assert 't_total{endpoint="/x"} 3' in text
        assert 't_seconds_bucket{le="0.5"} 1' in text
        assert 't_seconds_bucket{le="+Inf"} 1' in text
        assert 't_seconds_count 1' in text
        assert text.endswith("\n")

    def test_label_escaping(self):
        line = promexport.format_sample(
            "m", {"path": 'a"b\\c\nd'}, 1
        )
        assert line == 'm{path="a\\"b\\\\c\\nd"} 1'


class TestSlowLog:
    def test_threshold_and_ring(self):
        log = slowlog.SlowLog(threshold_ms=10.0, maxlen=2)
        assert not log.record("/fast", 5.0, 200, "t1")
        assert log.record("/slow", 15.0, 200, "t2")
        assert log.record("/slower", 50.0, 500, "t3")
        assert log.record("/slowest", 99.0, 200, "t4")
        payload = log.to_payload()
        assert payload["threshold_ms"] == 10.0
        assert payload["observed"] == 3
        # bounded ring, newest first
        assert [e["endpoint"] for e in payload["recent"]] == [
            "/slowest", "/slower"
        ]
        assert payload["recent"][1]["trace_id"] == "t3"
        assert payload["recent"][1]["status"] == 500
