"""The chaos battery: seeded fault plans against the whole service.

Every plan from :func:`repro.testing.fault_plans` — byte-level database
corruption, exceptions thrown inside view construction, renders slowed
past their deadline — is driven through the real request pipeline, and
three system-wide invariants are asserted for each:

1. **structured errors only** — every response, faulted or not, is a
   JSON object; failures carry exactly the error taxonomy shape and
   never a traceback or an HTML body;
2. **the render cache never serves faulted work** — after the fault is
   removed, a replayed render is byte-identical to one computed by a
   fresh, uncached, lock-free session (so nothing the faulted attempt
   touched leaked into the cache);
3. **salvage output is first-class** — a session opened from a
   corrupted database in salvage mode passes the same validation as a
   clean load and serves renders normally.

The full battery (``-m chaos``) sweeps ≥200 plans; a small unmarked
subset keeps coverage in runs that deselect the marker.
"""

from __future__ import annotations

import json

import pytest

from repro.hpcprof import binio
from repro.hpcprof.experiment import Experiment
from repro.hpcprof.recovery import validate_experiment
from repro.server import AnalysisApp
from repro.server.sessions import render_snapshot
from repro.core.views import ViewKind
from repro.sim.workloads import fig1
from repro.testing import FakeClock, FaultPlan, apply_fault, fault_plans, patched, slow_call
from repro.viewer.session import ViewerSession

#: the acceptance floor is 200 plans; run a bit past it
N_PLANS = 240

PLANS = fault_plans(N_PLANS)
BYTE_KINDS = {"bit-flip", "truncate", "truncate-frame", "garble-run"}

_VIEW_NAMES = ("cct", "callers", "flat")
_VIEW_BUILDERS = {
    "cct": "calling_context_view",
    "callers": "callers_view",
    "flat": "flat_view",
}
_VIEW_KINDS = {
    "cct": ViewKind.CALLING_CONTEXT,
    "callers": ViewKind.CALLERS,
    "flat": ViewKind.FLAT,
}
_EXCEPTIONS = (RuntimeError, ValueError, KeyError, ZeroDivisionError)

_ERROR_FIELDS = {"status", "code", "message", "retry_after", "trace_id"}


@pytest.fixture(scope="module")
def blob():
    return binio.dumps_binary(Experiment.from_program(fig1.build()))


def post(app, path, body=None):
    raw = json.dumps(body).encode() if body is not None else b""
    return app.handle("POST", path, raw)


def assert_structured(status: int, payload) -> str:
    """Invariant 1: JSON object out, taxonomy shape on failure."""
    assert isinstance(payload, dict), f"non-dict payload for {status}"
    body = json.dumps(payload, sort_keys=True)  # must be serializable
    assert "Traceback" not in body
    assert "<html" not in body.lower()
    if status >= 400:
        error = payload.get("error")
        assert isinstance(error, dict), f"unstructured {status}: {payload}"
        assert set(error) <= _ERROR_FIELDS
        assert error["status"] == status
        assert isinstance(error["code"], str) and error["code"]
        assert isinstance(error["message"], str)
        # every structured error is traceable back to its request
        assert isinstance(error.get("trace_id"), str) and error["trace_id"]
    return body


def assert_replay_identical(app, sid: str, view: str) -> None:
    """Invariants 2: a cached render equals its fresh recomputation.

    Three-way comparison: first app render (fills the cache), second app
    render (cache hit), and a render through a brand-new uncached
    session built from pristine bytes.  All three must agree byte for
    byte — which fails if a faulted attempt ever leaked into the cache.
    """
    path = f"/v1/sessions/{sid}/render?view={view}"
    s1, p1 = app.handle("GET", path)
    s2, p2 = app.handle("GET", path)
    assert (s1, s2) == (200, 200)
    b1 = json.dumps(p1, sort_keys=True).encode()
    b2 = json.dumps(p2, sort_keys=True).encode()
    assert b1 == b2, "cached replay differs from its own first render"
    fresh = render_snapshot(
        ViewerSession(Experiment.from_program(fig1.build())),
        _VIEW_KINDS[view],
    )
    assert p1["text"] == fresh["text"], "cache served faulted work"


# --------------------------------------------------------------------- #
# plan execution
# --------------------------------------------------------------------- #
def run_byte_plan(plan: FaultPlan, blob: bytes, tmp_path) -> None:
    mutated = apply_fault(blob, plan)
    db = tmp_path / f"fault-{plan.seed}.rpdb"
    db.write_bytes(mutated)
    app = AnalysisApp()

    # strict open: either a working session or a structured error
    status, payload = post(app, "/v1/sessions", {"database": str(db)})
    assert_structured(status, payload)
    assert status in (201, 400, 404), f"strict open: {status}"

    # salvage open: always a session once the 6-byte header survives
    status, payload = post(
        app, "/v1/sessions", {"database": str(db), "salvage": True}
    )
    assert_structured(status, payload)
    if mutated[:6] == blob[:6]:
        assert status == 201, f"salvage refused recoverable input: {payload}"
        report = payload["load_report"]
        assert report["bytes"]["total"] == len(mutated)
        assert (report["bytes"]["recovered"] + report["bytes"]["lost"]
                == report["bytes"]["total"])
        sid = payload["session"]["id"]
        for path in (f"/v1/sessions/{sid}/render", f"/v1/sessions/{sid}/metrics",
                     f"/v1/sessions/{sid}"):
            s, p = app.handle("GET", path)
            assert_structured(s, p)
            assert s in (200, 400), f"salvaged session unusable: {s} {p}"
    else:
        assert status == 400

    # the salvaged bytes load to a validating experiment directly too
    if mutated[:6] == blob[:6]:
        from repro.hpcprof import database as dbmod

        validate_experiment(dbmod.loads(mutated, strict=False))


def run_exception_plan(plan: FaultPlan) -> None:
    view = _VIEW_NAMES[int(plan.position * 10) % 3]
    exc_type = _EXCEPTIONS[int(plan.magnitude * 10) % len(_EXCEPTIONS)]
    app = AnalysisApp()
    _, opened = post(app, "/v1/sessions", {"workload": "fig1"})
    sid = opened["session"]["id"]

    builder = _VIEW_BUILDERS[view]
    original = getattr(Experiment, builder)

    def exploding(self, *args, **kwargs):
        raise exc_type(f"injected by plan {plan.seed}")

    with patched(Experiment, builder, exploding):
        status, payload = app.handle(
            "GET", f"/v1/sessions/{sid}/render?view={view}"
        )
        body = assert_structured(status, payload)
        assert status == 500
        assert payload["error"]["code"] == "internal"
        # the exception text (possibly user data) is not echoed raw
        assert f"plan {plan.seed}" not in body

    # fault removed: nothing faulted was cached; replay is pristine
    assert getattr(Experiment, builder) is original
    assert_replay_identical(app, sid, view)


def run_slow_plan(plan: FaultPlan) -> None:
    view = _VIEW_NAMES[int(plan.position * 10) % 3]
    clock = FakeClock()
    budget = 0.5 + plan.magnitude  # [0.5, 1.5) seconds
    app = AnalysisApp(request_timeout_s=budget, clock=clock)
    _, opened = post(app, "/v1/sessions", {"workload": "fig1"})
    sid = opened["session"]["id"]

    builder = _VIEW_BUILDERS[view]
    slow = slow_call(getattr(Experiment, builder), clock, cost_s=budget * 4)
    with patched(Experiment, builder, slow):
        status, payload = app.handle(
            "GET", f"/v1/sessions/{sid}/render?view={view}"
        )
        assert_structured(status, payload)
        assert status == 503
        assert payload["error"]["code"] == "deadline-exceeded"
        assert payload["error"]["retry_after"] is not None

    assert app.cache.stats()["entries"] == 0  # aborted work not cached
    assert_replay_identical(app, sid, view)


def run_plan(plan: FaultPlan, blob: bytes, tmp_path) -> None:
    if plan.kind in BYTE_KINDS:
        run_byte_plan(plan, blob, tmp_path)
    elif plan.kind == "exception":
        run_exception_plan(plan)
    else:
        run_slow_plan(plan)


# --------------------------------------------------------------------- #
# the battery
# --------------------------------------------------------------------- #
@pytest.mark.chaos
@pytest.mark.parametrize(
    "plan", PLANS, ids=[f"{p.kind}-{p.seed:x}" for p in PLANS]
)
def test_fault_plan(plan, blob, tmp_path):
    run_plan(plan, blob, tmp_path)


def test_fast_subset_covers_every_kind(blob, tmp_path):
    """Unmarked tier-1 insurance: one plan of each kind, even when the
    chaos marker is deselected."""
    by_kind = {}
    for plan in PLANS:
        by_kind.setdefault(plan.kind, plan)
    assert len(by_kind) == 6
    for plan in by_kind.values():
        run_plan(plan, blob, tmp_path)


def test_plan_determinism():
    """Same seed → byte-identical plan list (reproducibility anchor)."""
    again = fault_plans(N_PLANS)
    assert again == PLANS
    assert [p.describe() for p in again] == [p.describe() for p in PLANS]
