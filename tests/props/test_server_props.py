"""Stateful equivalence: the cached server == a fresh ViewerSession.

A :class:`RuleBasedStateMachine` drives one server session through any
interleaving of the paper's operations — sort, hot-path expansion,
flatten/unflatten, derived-metric definition, render — while recording
the mutation history.  After every render (and hot path), the same
history is replayed onto a *fresh, uncached* :class:`ViewerSession`
built from scratch, and the outputs must be byte-identical.

Session ``/v1/query`` responses go through the same cache: each query
observation, in JSON or in the columnar encoding, must be byte-identical
to a fresh ``run_query`` on the mirror session, stamped with the
generation the mutation history implies.

This is the cache-correctness theorem in executable form: if a cache
key failed to capture something a render depends on, or an invalidation
were missed after a mutation, some interleaving found here would return
a stale render that differs from the fresh replay.  The cache is sized
small (8 entries) so eviction and re-population paths run constantly.
A second machine disables the eager per-session invalidation, so the
generation in the key must keep stale entries unreachable on its own.
"""

from __future__ import annotations

import json

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.core.metrics import MetricFlavor
from repro.core.views import ViewKind
from repro.hpcprof.experiment import Experiment
from repro.query import Query, run_query
from repro.server import AnalysisApp
from repro.server.schema import json_body
from repro.server.sessions import hot_path_snapshot, render_snapshot
from repro.server.wire import COLUMNAR_CONTENT_TYPE, encode_columnar
from repro.sim.workloads import fig1
from repro.viewer.session import ViewerSession

from .strategies import (
    derived_formulas,
    hot_thresholds,
    server_render_params,
    view_kind_names,
)

from hypothesis import strategies as st

_KINDS = {
    "cct": ViewKind.CALLING_CONTEXT,
    "callers": ViewKind.CALLERS,
    "flat": ViewKind.FLAT,
}
_FLAVORS = {
    "inclusive": MetricFlavor.INCLUSIVE,
    "exclusive": MetricFlavor.EXCLUSIVE,
}

#: the session-query battery; ``None`` is the newest metric column
#: (a derived one once a derive rule has run), selected and sorted on
_QUERY_SPECS = (
    {"pattern": "**/*", "sort": {"metric": "cycles"}},
    "m / ** / *",
    {"pattern": "m / ** / *", "sort": {"metric": "cycles",
                                       "descending": False}, "limit": 3},
    {"ops": [{"op": "match", "pattern": "** / *"},
             {"op": "groupby", "key": "name"}],
     "sort": {"metric": "cycles"}},
    {"pattern": "**/*", "where": ["cycles.inclusive >= 5%"],
     "flavors": ["exclusive"]},
    None,
)


class CachedServerEquivalence(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.app = AnalysisApp(cache_size=8)
        status, payload = self.app.handle(
            "POST", "/sessions", b'{"workload": "fig1"}'
        )
        assert status == 201
        self.sid = payload["session"]["id"]
        #: render-visible mutations, in order, for the fresh replay
        self.mutations: list[tuple] = []
        #: the session's last-accepted sort op (metric, flavor, descending)
        self.sort: tuple[str, str, bool] | None = None
        self.metric_names = ["cycles"]

    # ------------------------------------------------------------------ #
    def _post(self, tail: str, body: dict | None = None) -> tuple[int, dict]:
        raw = json.dumps(body).encode() if body is not None else b""
        return self.app.handle("POST", f"/sessions/{self.sid}/{tail}", raw)

    def _fresh_session(self) -> ViewerSession:
        """An uncached ViewerSession with the mutation history replayed."""
        session = ViewerSession(Experiment.from_program(fig1.build()))
        for mutation in self.mutations:
            if mutation[0] == "derived":
                session.experiment.add_derived_metric(mutation[1], mutation[2])
            elif mutation[0] == "flatten":
                session.flatten()
            else:
                session.unflatten()
        return session

    def _effective(self, body: dict) -> tuple[str | None, MetricFlavor, bool]:
        """Mirror the server's sort-resolution rules for the replay."""
        metric = body.get("metric")
        if body.get("flavor") is not None:
            flavor = _FLAVORS[body["flavor"]]
        elif metric is None and self.sort is not None:
            flavor = _FLAVORS[self.sort[1]]
        else:
            flavor = MetricFlavor.INCLUSIVE
        if metric is None and self.sort is not None:
            metric = self.sort[0]
        descending = body.get("descending")
        if descending is None:
            descending = self.sort[2] if self.sort is not None else True
        return metric, flavor, descending

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    @rule(idx=st.integers(0, 7),
          flavor=st.sampled_from(["inclusive", "exclusive"]),
          descending=st.booleans())
    def sort(self, idx: int, flavor: str, descending: bool) -> None:
        metric = self.metric_names[idx % len(self.metric_names)]
        status, payload = self._post(
            "sort",
            {"metric": metric, "flavor": flavor, "descending": descending},
        )
        assert status == 200, payload
        self.sort = (metric, flavor, descending)

    @rule(formula=derived_formulas(num_metrics=1))
    def derive(self, formula: str) -> None:
        name = f"d{len(self.metric_names)}"
        status, payload = self._post(
            "metrics", {"name": name, "formula": formula}
        )
        assert status == 201, payload
        self.mutations.append(("derived", name, formula))
        self.metric_names.append(name)

    @rule(a=st.integers(1, 5))
    def derive_composed(self, a: int) -> None:
        """A derived metric referencing the latest (possibly derived) column."""
        last_mid = len(self.metric_names) - 1
        formula = f"{a} * ${last_mid} + $0"
        name = f"d{len(self.metric_names)}"
        status, payload = self._post(
            "metrics", {"name": name, "formula": formula}
        )
        assert status == 201, payload
        self.mutations.append(("derived", name, formula))
        self.metric_names.append(name)

    @rule()
    def flatten(self) -> None:
        status, payload = self._post("flatten")
        assert status == 200, payload
        self.mutations.append(("flatten",))

    @rule()
    def unflatten(self) -> None:
        status, payload = self._post("unflatten")
        assert status == 200, payload
        self.mutations.append(("unflatten",))

    # ------------------------------------------------------------------ #
    # observations — each one is an equivalence check
    # ------------------------------------------------------------------ #
    @rule(params=server_render_params(),
          midx=st.integers(0, 7),
          explicit_metric=st.booleans(),
          flavor=st.sampled_from([None, "inclusive", "exclusive"]))
    def render(self, params: dict, midx: int,
               explicit_metric: bool, flavor: str | None) -> None:
        body = dict(params)
        if explicit_metric:
            body["metric"] = self.metric_names[midx % len(self.metric_names)]
        if flavor is not None:
            body["flavor"] = flavor
        status, payload = self._post("render", body)
        assert status == 200, payload

        metric, eff_flavor, descending = self._effective(body)
        expected = render_snapshot(
            self._fresh_session(),
            _KINDS[body["view"]],
            metric=metric,
            flavor=eff_flavor,
            descending=descending,
            depth=body.get("depth", 3),
            hot_path=body.get("hot_path", False),
            threshold=body.get("threshold"),
            max_rows=body.get("max_rows", 60),
        )
        assert payload["text"] == expected["text"]
        assert payload.get("hot_path") == expected.get("hot_path")

    @rule(kind=view_kind_names(),
          threshold=st.none() | hot_thresholds(),
          midx=st.integers(0, 7),
          explicit_metric=st.booleans())
    def hotpath(self, kind: str, threshold: float | None,
                midx: int, explicit_metric: bool) -> None:
        body: dict = {"view": kind}
        if threshold is not None:
            body["threshold"] = threshold
        if explicit_metric:
            body["metric"] = self.metric_names[midx % len(self.metric_names)]
        status, payload = self._post("hotpath", body)
        assert status == 200, payload

        metric = body.get("metric")
        if metric is None and self.sort is not None:
            metric = self.sort[0]
        expected = hot_path_snapshot(
            self._fresh_session(), _KINDS[kind],
            metric=metric, threshold=threshold,
        )
        assert payload["path"] == expected["path"]
        assert payload["values"] == expected["values"]
        assert payload["hotspot"] == expected["hotspot"]

    @rule(spec=st.sampled_from(_QUERY_SPECS), columnar=st.booleans())
    def query(self, spec, columnar: bool) -> None:
        if spec is None:
            newest = self.metric_names[-1]
            spec = {"pattern": "**/*", "metrics": [newest],
                    "sort": {"metric": newest}}
        raw = json.dumps({"session": self.sid, "query": spec}).encode()
        headers = {"Accept": COLUMNAR_CONTENT_TYPE} if columnar else None
        status, body, _h = self.app.handle_full(
            "POST", "/v1/query", raw, request_headers=headers
        )
        assert status == 200, body

        fresh = run_query(Query.from_spec(spec),
                          self._fresh_session().experiment)
        # every mutation rule bumps the generation exactly once
        snapshot = fresh.to_snapshot(len(self.mutations))
        if columnar:
            assert body.data == encode_columnar(snapshot)
        else:
            expected = snapshot.to_json_payload(self.sid)
            if fresh.categories:
                expected["categories"] = list(fresh.categories)
            assert body.data == json_body(expected)


class GenerationKeyedEquivalence(CachedServerEquivalence):
    """The same theorem with eager invalidation switched off: mutations
    leave their session's entries resident, so only the generation in
    each cache key keeps them from being served."""

    def __init__(self) -> None:
        super().__init__()
        self.app.cache.invalidate_session = lambda sid: 0


_SETTINGS = settings(max_examples=25, stateful_step_count=10, deadline=None)
CachedServerEquivalence.TestCase.settings = _SETTINGS
GenerationKeyedEquivalence.TestCase.settings = _SETTINGS
TestCachedServerEquivalence = CachedServerEquivalence.TestCase
TestGenerationKeyedEquivalence = GenerationKeyedEquivalence.TestCase
