"""The server resilience layer: deadlines, shedding, eviction, health.

All timing here is driven by :class:`repro.testing.FakeClock` — no
sleeps, no wall-clock races; expiry and TTL eviction are exact.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import DeadlineExceeded
from repro.hpcprof import database
from repro.hpcprof.experiment import Experiment
from repro.server import AnalysisApp
from repro.server.deadline import Deadline, checkpoint, deadline_scope
from repro.server.sessions import SessionRegistry
from repro.sim.workloads import fig1
from repro.testing import FakeClock, patched, slow_call
from repro.viewer.session import ViewerSession
from tests.server.conftest import scaled


def post(app, path, body=None):
    raw = json.dumps(body).encode() if body is not None else b""
    return app.handle("POST", path, raw)


@pytest.fixture()
def clock():
    return FakeClock()


# --------------------------------------------------------------------- #
# deadlines
# --------------------------------------------------------------------- #
class TestDeadline:
    def test_checkpoint_is_noop_without_deadline(self):
        checkpoint()  # must not raise outside a scope

    def test_expiry_is_exact(self, clock):
        deadline = Deadline(5.0, clock=clock)
        with deadline_scope(deadline):
            checkpoint()
            clock.advance(4.999)
            checkpoint()
            clock.advance(0.002)
            with pytest.raises(DeadlineExceeded) as err:
                checkpoint("render")
            assert "render" in str(err.value)
            assert err.value.retry_after is not None

    def test_scopes_nest_and_restore(self, clock):
        outer = Deadline(100.0, clock=clock)
        inner = Deadline(1.0, clock=clock)
        with deadline_scope(outer):
            with deadline_scope(inner):
                clock.advance(2.0)
                with pytest.raises(DeadlineExceeded):
                    checkpoint()
            checkpoint()  # outer still has budget

    def test_slow_render_503_and_cache_untainted(self, clock):
        """A render that burns past its deadline answers 503
        deadline-exceeded; the aborted partial work never enters the
        cache, so the post-fault render is correct and freshly built."""
        app = AnalysisApp(request_timeout_s=1.0, clock=clock)
        _, payload = post(app, "/sessions", {"workload": "fig1"})
        sid = payload["session"]["id"]

        exp_cls = Experiment
        slow = slow_call(exp_cls.calling_context_view, clock, cost_s=5.0)
        with patched(exp_cls, "calling_context_view", slow):
            status, payload = app.handle("GET", f"/sessions/{sid}/render")
            assert status == 503
            assert payload["error"]["code"] == "deadline-exceeded"
            assert payload["error"]["retry_after"] is not None
        assert app.cache.stats()["entries"] == 0

        # fault removed: the same request now succeeds, and matches a
        # fresh uncached render of the same experiment byte for byte
        status, served = app.handle("GET", f"/sessions/{sid}/render")
        assert status == 200
        fresh = ViewerSession(Experiment.from_program(fig1.build()))
        from repro.server.sessions import render_snapshot
        from repro.core.views import ViewKind

        expected = render_snapshot(fresh, ViewKind.CALLING_CONTEXT)
        assert served["text"] == expected["text"]

    def test_fast_render_within_deadline_succeeds(self, clock):
        app = AnalysisApp(request_timeout_s=30.0, clock=clock)
        _, payload = post(app, "/sessions", {"workload": "fig1"})
        status, _ = app.handle(
            "GET", f"/sessions/{payload['session']['id']}/render"
        )
        assert status == 200


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #
class TestAdmission:
    def test_sheds_past_the_limit_with_retry_after(self):
        app = AnalysisApp(max_inflight=2)
        ready = threading.Barrier(3)
        release = threading.Event()
        results = []

        real_match = AnalysisApp._match

        def stalling_match(self_app, method, path):
            ready.wait(timeout=scaled(10))
            release.wait(timeout=scaled(10))
            return real_match(self_app, method, path)

        def worker():
            results.append(app.handle("GET", "/sessions"))

        with patched(AnalysisApp, "_match", stalling_match):
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            ready.wait(timeout=scaled(10))  # both stalled requests are in flight
            status, payload = app.handle("GET", "/sessions")
            release.set()
            for t in threads:
                t.join(timeout=scaled(10))

        assert status == 429
        assert payload["error"]["code"] == "too-many-requests"
        assert payload["error"]["retry_after"] >= 1.0
        assert all(s == 200 for s, _ in results)
        assert app.stats_payload()["requests"]["shed"] == 1
        assert app.inflight() == 0

    def test_healthz_and_stats_exempt_from_shedding(self):
        app = AnalysisApp(max_inflight=0)
        status, _ = app.handle("GET", "/sessions")
        assert status == 429
        status, payload = app.handle("GET", "/stats")
        assert status == 200
        # healthz answers (liveness) even while reporting not-ready
        status, payload = app.handle("GET", "/healthz")
        assert status == 503
        assert payload["error"]["code"] == "overloaded"

    def test_healthz_ready_when_idle(self):
        app = AnalysisApp()
        status, payload = app.handle("GET", "/healthz")
        assert status == 200
        assert payload["live"] and payload["ready"]

    def test_unlimited_admission_when_disabled(self):
        app = AnalysisApp(max_inflight=None)
        status, payload = app.handle("GET", "/healthz")
        assert status == 200


# --------------------------------------------------------------------- #
# session eviction
# --------------------------------------------------------------------- #
class TestEviction:
    def test_ttl_evicts_idle_sessions(self, clock):
        app = AnalysisApp(session_ttl_s=60.0, clock=clock)
        _, p1 = post(app, "/sessions", {"workload": "fig1"})
        sid1 = p1["session"]["id"]
        clock.advance(50)
        _, p2 = post(app, "/sessions", {"workload": "fig1"})
        sid2 = p2["session"]["id"]
        # sid1 idle 50s: still alive, and touching it resets its TTL
        assert app.handle("GET", f"/sessions/{sid1}")[0] == 200
        clock.advance(55)
        # sid2 is now 55s idle (alive), sid1 only 55s since touch (alive)
        assert app.handle("GET", f"/sessions/{sid2}")[0] == 200
        clock.advance(61)
        status, payload = app.handle("GET", f"/sessions/{sid1}")
        assert status == 404
        assert payload["error"]["code"] == "unknown-session"
        assert app.registry.evictions >= 1

    def test_lru_cap_evicts_oldest(self, clock):
        app = AnalysisApp(max_sessions=2, clock=clock)
        sids = []
        for _ in range(3):
            clock.advance(1)
            _, p = post(app, "/sessions", {"workload": "fig1"})
            sids.append(p["session"]["id"])
        assert app.handle("GET", f"/sessions/{sids[0]}")[0] == 404
        assert app.handle("GET", f"/sessions/{sids[1]}")[0] == 200
        assert app.handle("GET", f"/sessions/{sids[2]}")[0] == 200
        assert len(app.registry) == 2

    def test_scope_budget_evicts_lru_but_never_newest(self, clock):
        registry = SessionRegistry(scope_budget=25, clock=clock)
        exp = Experiment.from_program(fig1.build())  # 19 scopes
        h1 = registry.register(exp, "a")
        clock.advance(1)
        h2 = registry.register(
            Experiment.from_program(fig1.build()), "b"
        )  # 38 > 25: h1 evicted, h2 (newest) kept though itself 19 > 25...
        assert len(registry) == 1
        assert registry.get(h2.sid) is h2
        with pytest.raises(Exception):
            registry.get(h1.sid)
        assert registry.total_cost() == 19

    def test_eviction_purges_render_cache(self, clock):
        app = AnalysisApp(max_sessions=1, clock=clock)
        _, p1 = post(app, "/sessions", {"workload": "fig1"})
        sid1 = p1["session"]["id"]
        assert app.handle("GET", f"/sessions/{sid1}/render")[0] == 200
        assert app.cache.stats()["entries"] == 1
        clock.advance(1)
        post(app, "/sessions", {"workload": "fig1"})  # evicts sid1
        assert app.cache.stats()["entries"] == 0
        assert app.stats_payload()["evictions"] == 1

    def test_no_eviction_by_default(self, clock):
        app = AnalysisApp(clock=clock)
        sids = []
        for _ in range(8):
            clock.advance(10_000)
            _, p = post(app, "/sessions", {"workload": "fig1"})
            sids.append(p["session"]["id"])
        assert all(
            app.handle("GET", f"/sessions/{s}")[0] == 200 for s in sids
        )
        assert app.registry.evictions == 0


# --------------------------------------------------------------------- #
# TOCTOU-free database opening
# --------------------------------------------------------------------- #
class TestOpenDatabase:
    def test_missing_file_404_without_exists_probe(self, tmp_path):
        app = AnalysisApp()
        status, payload = post(
            app, "/sessions", {"database": str(tmp_path / "gone.rpdb")}
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown-database"

    def test_directory_path_is_structured_error(self, tmp_path):
        app = AnalysisApp()
        status, payload = post(app, "/sessions", {"database": str(tmp_path)})
        assert status == 400
        assert payload["error"]["code"] == "bad-database"
        assert str(tmp_path) in payload["error"]["message"]

    def test_vanishing_file_between_calls(self, tmp_path):
        """Simulate the race: the path exists when checked by anyone
        earlier, but open() finds it gone.  database.load must produce
        DatabaseError (→ 404), not FileNotFoundError."""
        path = tmp_path / "blink.rpdb"
        database.save(Experiment.from_program(fig1.build()), str(path))
        app = AnalysisApp()
        import builtins

        real_open = builtins.open

        def vanishing_open(file, *args, **kwargs):
            if str(file) == str(path):
                raise FileNotFoundError(2, "No such file or directory", file)
            return real_open(file, *args, **kwargs)

        with patched(builtins, "open", vanishing_open):
            status, payload = post(app, "/sessions", {"database": str(path)})
        assert status == 404
        assert payload["error"]["code"] == "unknown-database"

    def test_salvage_open_reports_load(self, tmp_path):
        path = tmp_path / "torn.rpdb"
        blob = database.save(Experiment.from_program(fig1.build()), str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])  # torn write
        app = AnalysisApp()
        status, payload = post(
            app, "/sessions", {"database": str(path)}
        )
        assert status == 400  # strict by default
        status, payload = post(
            app, "/sessions", {"database": str(path), "salvage": True}
        )
        assert status == 201
        report = payload["load_report"]
        assert report["clean"] is False
        assert report["bytes"]["lost"] > 0
        # the salvaged session is fully usable
        sid = payload["session"]["id"]
        assert app.handle("GET", f"/sessions/{sid}/render")[0] == 200
