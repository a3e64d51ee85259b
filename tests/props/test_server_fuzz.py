"""Fuzzing the analysis server's request decoder and router.

Same contract as ``test_database_fuzz.py`` one layer up: garbage in,
structured 4xx JSON out — never a 5xx, an unhandled exception, or a
hung handler.  The full pipeline (method dispatch, path routing, body
decoding, field validation, domain-error translation) runs in-process
through :meth:`AnalysisApp.handle`, which is exactly the code the HTTP
shell calls per request.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.server import AnalysisApp

MAX_BODY = 4096


@pytest.fixture(scope="module")
def app():
    """One app with a live session; fuzz must not corrupt it either."""
    instance = AnalysisApp(max_body=MAX_BODY)
    status, payload = instance.handle(
        "POST", "/v1/sessions", json.dumps({"workload": "fig1"}).encode()
    )
    assert status == 201
    return instance


SID = "s1"

_METHODS = st.sampled_from(["GET", "POST", "DELETE", "PUT", "PATCH", "HEAD"])

_PATHS = st.one_of(
    st.sampled_from([
        "/v1/", "/v1/stats", "/v1/sessions", f"/v1/sessions/{SID}",
        f"/v1/sessions/{SID}/render", f"/v1/sessions/{SID}/sort",
        f"/v1/sessions/{SID}/hotpath", f"/v1/sessions/{SID}/metrics",
        f"/v1/sessions/{SID}/flatten", f"/v1/sessions/{SID}/unflatten",
        "/v1/sessions/sNOPE/render", "/v1/sessions//render",
    ]),
    st.text(
        alphabet=st.characters(codec="utf-8", exclude_characters="\r\n"),
        max_size=40,
    ).map(lambda s: "/" + s),
)

_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(),
        st.integers(min_value=-(10 ** 12), max_value=10 ** 12),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=10,
)


def _no_internal_error(status: int, payload: dict) -> None:
    """The invariant every fuzz case asserts."""
    assert isinstance(payload, dict)
    assert 200 <= status < 500, (status, payload)
    if status >= 400:
        err = payload["error"]
        assert err["status"] == status
        assert isinstance(err["code"], str) and err["code"] != "internal"
        assert isinstance(err["message"], str)
    # whatever happened must be JSON-serializable for the wire
    json.dumps(payload)


class TestDecoderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(min_size=0, max_size=256))
    def test_random_bytes_body(self, app, data):
        status, payload = app.handle("POST", f"/v1/sessions/{SID}/render", data)
        _no_internal_error(status, payload)

    @settings(max_examples=100, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=200), data=st.data())
    def test_truncated_json(self, app, cut, data):
        body = json.dumps({
            "view": "cct", "metric": "cycles", "depth": 3,
            "hot_path": True, "threshold": 0.5, "max_rows": 10,
        }).encode()
        status, payload = app.handle(
            "POST", f"/v1/sessions/{SID}/render", body[: cut % (len(body) + 1)]
        )
        _no_internal_error(status, payload)

    @settings(max_examples=150, deadline=None)
    @given(fields=st.dictionaries(
        st.sampled_from(["view", "metric", "flavor", "descending", "depth",
                         "hot_path", "threshold", "max_rows", "name",
                         "formula", "unit", "database", "workload",
                         "nranks", "seed", "junk"]),
        _JSON_VALUES, max_size=6,
    ), endpoint=st.sampled_from(["render", "sort", "hotpath", "metrics"]))
    def test_wrong_typed_fields(self, app, fields, endpoint):
        """Arbitrary JSON values in known fields: 2xx or structured 4xx."""
        raw = json.dumps(fields).encode()
        if len(raw) > MAX_BODY:
            return
        status, payload = app.handle(
            "POST", f"/v1/sessions/{SID}/{endpoint}", raw
        )
        _no_internal_error(status, payload)

    @settings(max_examples=30, deadline=None)
    @given(extra=st.integers(min_value=1, max_value=4096))
    def test_oversized_payload_413(self, app, extra):
        status, payload = app.handle(
            "POST", "/v1/sessions", b"x" * (MAX_BODY + extra)
        )
        assert status == 413
        assert payload["error"]["code"] == "payload-too-large"

    @settings(max_examples=150, deadline=None)
    @given(method=_METHODS, path=_PATHS)
    def test_random_method_path(self, app, method, path):
        """Arbitrary routes never 5xx; GET/unknown paths give 404/405."""
        # DELETE /sessions/s1 is a *valid* request that would close the
        # shared fixture session; everything else is fair game
        assume((method, path) != ("DELETE", f"/v1/sessions/{SID}"))
        status, payload = app.handle(method, path, b"")
        _no_internal_error(status, payload)

    @settings(max_examples=100, deadline=None)
    @given(method=_METHODS, path=_PATHS, data=st.binary(max_size=128))
    def test_random_everything(self, app, method, path, data):
        assume((method, path) != ("DELETE", f"/v1/sessions/{SID}"))
        status, payload = app.handle(method, path, data)
        _no_internal_error(status, payload)

    @settings(max_examples=50, deadline=None)
    @given(query=st.text(max_size=60))
    def test_random_query_strings(self, app, query):
        status, payload = app.handle(
            "GET", f"/v1/sessions/{SID}/render?" + query, b""
        )
        _no_internal_error(status, payload)


class TestMutationFuzz:
    """Formula/name garbage through the derived-metric endpoint."""

    @settings(max_examples=100, deadline=None)
    @given(name=st.text(max_size=20), formula=st.text(max_size=40))
    def test_arbitrary_formulas(self, app, name, formula):
        status, payload = app.handle(
            "POST", f"/v1/sessions/{SID}/metrics",
            json.dumps({"name": name, "formula": formula}).encode(),
        )
        _no_internal_error(status, payload)
        # successful definitions must remain renderable afterwards
        if status == 201:
            rstatus, rpayload = app.handle(
                "GET", f"/v1/sessions/{SID}/render?view=cct&depth=1", b""
            )
            _no_internal_error(rstatus, rpayload)


def test_session_survives_the_fuzz(app):
    """After every battery above, the session still answers correctly."""
    status, payload = app.handle(
        "GET", f"/v1/sessions/{SID}/render?view=cct&depth=2&metric=%22cycles%22",
        b"",
    )
    assert status == 200
    assert payload["text"].startswith("== Calling Context View: fig1 ==")
