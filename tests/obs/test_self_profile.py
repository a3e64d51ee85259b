"""The dogfooding loop: spans → experiment database → three views.

End-to-end pins for the tentpole: a traced server (or any traced
process) exports a *regular* framed v2 binary database whose
calling-context, callers, and flat views present the recorded spans
with exact Eq. 1 attribution — inclusive wall time recovered from the
recorded self times, call counts conserved, subsystems grouped by
``obs://`` component in the Flat View.
"""

from __future__ import annotations

import time

import pytest

from repro.core.metrics import MetricFlavor, MetricSpec
from repro.core.views import ViewKind
from repro.hpcprof import database
from repro.obs import install, save_self_profile, span, tracer_experiment, uninstall
from repro.obs.export import tracer_profile


@pytest.fixture()
def tracer(no_automatic_gc):
    tracer = install()
    yield tracer
    uninstall()


def record_workload(tracer):
    """A deterministic three-level span shape with measurable time."""
    for _ in range(3):
        with span("server.request /render"):
            with span("server.decode"):
                time.sleep(0.001)
            with span("viewer.render-table"):
                with span("engine.gather-view-values"):
                    time.sleep(0.001)
    with span("server.request /hotpath"):
        with span("engine.hot-path"):
            pass
    return tracer


class TestExperimentShape:
    def test_metrics_and_counts(self, tracer):
        record_workload(tracer)
        exp = tracer_experiment(tracer)
        names = [d.name for d in exp.metrics]
        assert names == ["calls", "wall time (s)"]
        calls_mid = exp.metrics.by_name("calls").mid
        # Eq. 1: the CCT root's inclusive calls equal all spans recorded
        total_calls = exp.cct.root.inclusive.get(calls_mid, 0.0)
        assert total_calls == tracer.span_count() == 14

    def test_inclusive_time_recovered_from_self_times(self, tracer):
        record_workload(tracer)
        snap = tracer.snapshot()
        exp = tracer_experiment(tracer)
        time_mid = exp.metrics.by_name("wall time (s)").mid
        total_self = sum(s for _c, s in snap.values())
        total_inclusive = exp.cct.root.inclusive.get(time_mid, 0.0)
        assert total_inclusive == pytest.approx(total_self, rel=1e-9)

    def test_components_become_flat_view_groups(self, tracer):
        record_workload(tracer)
        exp = tracer_experiment(tracer)
        flat = exp.flat_view()
        names = {n.name for n in flat.roots}
        assert {"obs://server", "obs://viewer", "obs://engine"} <= names

    def test_profile_files_use_component_scheme(self, tracer):
        record_workload(tracer)
        profile = tracer_profile(tracer)
        files = {
            node.frame.file
            for node in profile.root.walk()
            if node.frame is not None
        }
        assert files == {"obs://server", "obs://viewer", "obs://engine"}


class TestDatabaseRoundTrip:
    def test_save_load_render_all_views(self, tracer, tmp_path):
        record_workload(tracer)
        path = str(tmp_path / "self.rpdb")
        exported, size = save_self_profile(tracer, path)
        assert size > 0
        loaded = database.load(path)
        assert len(loaded.cct) == len(exported.cct)
        from repro.viewer.session import ViewerSession
        from repro.viewer.table import render_view

        session = ViewerSession(loaded)
        for kind in ViewKind:
            text = render_view(session.view(kind), depth=4)
            assert "server.request /render" in text
        # hot path analysis works on the self-profile like any other
        result = loaded.hot_path("wall time (s)")
        assert result.hotspot is not None

    def test_served_by_the_analysis_server(self, tracer, tmp_path):
        """Full circle: the server can serve its own profile."""
        from repro.server.app import AnalysisApp

        record_workload(tracer)
        path = str(tmp_path / "self.rpdb")
        save_self_profile(tracer, path)
        app = AnalysisApp()
        status, payload = app.handle(
            "POST", "/v1/sessions",
            f'{{"database": "{path}"}}'.encode(),
        )
        assert status == 201
        sid = payload["session"]["id"]
        status, payload = app.handle(
            "GET", f"/v1/sessions/{sid}/render?view=callers"
        )
        assert status == 200
        assert "engine.gather-view-values" in payload["text"]


class TestAttributionSemantics:
    def test_exclusive_equals_recorded_self_time(self, tracer):
        with span("a"):
            time.sleep(0.002)
            with span("b"):
                time.sleep(0.002)
        snap = tracer.snapshot()
        exp = tracer_experiment(tracer)
        time_mid = exp.metrics.by_name("wall time (s)").mid
        view = exp.calling_context_view()

        def find(name, nodes):
            for node in nodes:
                if node.name == name:
                    return node
                found = find(name, node.children)
                if found is not None:
                    return found
            return None

        node_a = find("a", view.roots)
        assert node_a is not None
        # inclusive(a) must equal self(a) + self(a/b): exact recovery
        spec = MetricSpec(mid=time_mid, flavor=MetricFlavor.INCLUSIVE)
        incl = node_a.value(spec)
        expected = snap[("a",)][1] + snap[("a", "b")][1]
        assert incl == pytest.approx(expected, rel=1e-9)
