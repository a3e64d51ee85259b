"""Unit tests for the columnar wire format and the table endpoint.

The codec itself (framing, dtype handling, malformed-frame taxonomy),
the ``Accept`` negotiation through the app, JSON/columnar parity on the
served payloads, cache invalidation of the pre-encoded frame when a
mutation bumps the session generation, and the pre-encoded JSON body
read off a real socket.
"""

from __future__ import annotations

import http.client
import json
import threading

import numpy as np
import pytest

from repro.errors import BadRequest
from repro.server import AnalysisApp, build_server
from repro.server.schema import BinaryBody
from repro.server.wire import (
    COLUMNAR_CONTENT_TYPE,
    TableSnapshot,
    accepts_columnar,
    decode_columnar,
    encode_columnar,
)
from tests.server.conftest import scaled

COLUMNAR_HEADERS = {"Accept": COLUMNAR_CONTENT_TYPE}


def _snapshot(rows: int = 3, metrics: int = 2) -> TableSnapshot:
    return TableSnapshot(
        view="calling-context",
        generation=4,
        names=tuple(f"scope{i}" for i in range(rows)),
        depths=np.arange(rows, dtype=np.int64),
        labels=tuple(f"m{j} (I)" for j in range(metrics)),
        values=np.arange(rows * metrics, dtype=np.float64).reshape(
            rows, metrics
        ) * 0.5,
        truncated=7,
    )


@pytest.fixture
def app() -> AnalysisApp:
    application = AnalysisApp(cache_size=8)
    application.registry.open_workload("fig1", nranks=2, seed=7)
    return application


# --------------------------------------------------------------------- #
# the codec
# --------------------------------------------------------------------- #
class TestCodec:
    def test_round_trip_equals_json_payload(self) -> None:
        snapshot = _snapshot()
        decoded = decode_columnar(encode_columnar(snapshot))
        reference = {k: v for k, v in
                     snapshot.to_json_payload("s1").items() if k != "session"}
        assert decoded == reference

    def test_round_trip_preserves_float_bits(self) -> None:
        """Awkward float64s survive exactly (the JSON path also does:
        ``repr`` round-trips binary64, which is the parity premise)."""
        tricky = np.array(
            [[0.1, 1e-308], [1.7976931348623157e308, -0.0],
             [2.0 ** -52, 1.0 + 2.0 ** -52]],
            dtype=np.float64,
        )
        snapshot = TableSnapshot(
            view="flat", generation=0,
            names=("a", "b", "c"),
            depths=np.zeros(3, dtype=np.int64),
            labels=("x (I)", "x (E)"),
            values=tricky,
        )
        rows = decode_columnar(encode_columnar(snapshot))["rows"]
        for i, row in enumerate(rows):
            for j, cell in enumerate(row[2:]):
                assert cell == tricky[i, j]
                # JSON text round-trip lands on the same bits too
                assert json.loads(json.dumps(cell)) == tricky[i, j]

    def test_empty_table_round_trips(self) -> None:
        snapshot = _snapshot(rows=0)
        decoded = decode_columnar(encode_columnar(snapshot))
        assert decoded["rows"] == []
        assert decoded["row_count"] == 0

    @pytest.mark.parametrize("mangle, reason", [
        (lambda b: b[:3], "truncated"),
        (lambda b: b"XXXX" + b[4:], "magic"),
        (lambda b: b[:4] + b"\xff\xff" + b[6:], "version"),
        (lambda b: b[:-4], "slab"),
        (lambda b: b + b"\x00" * 8, "trailing"),
    ])
    def test_malformed_frames_raise_bad_request(self, mangle, reason) -> None:
        frame = encode_columnar(_snapshot())
        with pytest.raises(BadRequest) as excinfo:
            decode_columnar(mangle(frame))
        assert excinfo.value.code == "bad-columnar-frame", reason

    def test_header_length_past_frame_raises(self) -> None:
        frame = bytearray(encode_columnar(_snapshot()))
        frame[8:12] = (2 ** 31).to_bytes(4, "little")
        with pytest.raises(BadRequest):
            decode_columnar(bytes(frame))

    def test_accept_negotiation_parser(self) -> None:
        assert accepts_columnar(COLUMNAR_CONTENT_TYPE)
        assert accepts_columnar(
            f"application/json;q=0.5, {COLUMNAR_CONTENT_TYPE};q=0.9"
        )
        assert accepts_columnar(COLUMNAR_CONTENT_TYPE.upper())
        assert not accepts_columnar(None)
        assert not accepts_columnar("")
        assert not accepts_columnar("application/json, text/html")
        assert not accepts_columnar("application/x-repro-columnar-v9")


# --------------------------------------------------------------------- #
# the table endpoint
# --------------------------------------------------------------------- #
class TestTableEndpoint:
    def test_json_is_the_default(self, app: AnalysisApp) -> None:
        status, payload, _headers = app.handle_full(
            "GET", "/v1/sessions/s1/table?view=cct&depth=3"
        )
        assert status == 200
        assert isinstance(payload, dict)
        assert payload["session"] == "s1"
        assert payload["row_count"] == len(payload["rows"])
        assert [c["name"] for c in payload["columns"][:2]] == [
            "scope", "depth"
        ]

    def test_columnar_negotiated_via_accept(self, app: AnalysisApp) -> None:
        status, payload, _headers = app.handle_full(
            "GET", "/v1/sessions/s1/table?view=cct&depth=3",
            request_headers=COLUMNAR_HEADERS,
        )
        assert status == 200
        assert isinstance(payload, BinaryBody)
        assert payload.content_type == COLUMNAR_CONTENT_TYPE

    @pytest.mark.parametrize("view", ["cct", "callers", "flat"])
    def test_columnar_equals_json_per_view(self, app: AnalysisApp,
                                           view: str) -> None:
        path = f"/v1/sessions/s1/table?view={view}&depth=4&max_rows=500"
        _s, as_json, _h = app.handle_full("GET", path)
        _s, as_cols, _h = app.handle_full(
            "GET", path, request_headers=COLUMNAR_HEADERS
        )
        reference = {k: v for k, v in as_json.items() if k != "session"}
        assert decode_columnar(as_cols.data) == reference

    def test_accept_json_list_still_gets_json(self, app: AnalysisApp) -> None:
        status, payload, _h = app.handle_full(
            "GET", "/v1/sessions/s1/table",
            request_headers={"Accept": "application/json, text/html"},
        )
        assert status == 200
        assert isinstance(payload, dict)

    def test_mutation_invalidates_cached_frame(self,
                                               app: AnalysisApp) -> None:
        """Deriving a metric bumps the generation: the re-served frame
        reflects the new column set, not the cached pre-mutation bytes."""
        path = "/v1/sessions/s1/table?view=cct&depth=2"
        _s, before, _h = app.handle_full(
            "GET", path, request_headers=COLUMNAR_HEADERS
        )
        decoded_before = decode_columnar(before.data)

        status, _payload, _h = app.handle_full(
            "POST", "/v1/sessions/s1/metrics",
            json.dumps({"name": "work2", "formula": "$0 * 2"}).encode(),
        )
        assert status == 201

        _s, after, _h = app.handle_full(
            "GET", path, request_headers=COLUMNAR_HEADERS
        )
        decoded_after = decode_columnar(after.data)
        assert decoded_after["generation"] > decoded_before["generation"]
        before_cols = {c["name"] for c in decoded_before["columns"]}
        after_cols = {c["name"] for c in decoded_after["columns"]}
        assert "work2 (I)" in after_cols - before_cols

    def test_truncation_is_reported(self, app: AnalysisApp) -> None:
        _s, full, _h = app.handle_full(
            "GET", "/v1/sessions/s1/table?view=cct&depth=6&max_rows=10000"
        )
        _s, capped, _h = app.handle_full(
            "GET", "/v1/sessions/s1/table?view=cct&depth=6&max_rows=3"
        )
        assert capped["row_count"] == 3
        assert capped["truncated"] == full["row_count"] - 3
        assert capped["rows"] == full["rows"][:3]

    def test_in_process_handle_wraps_binary(self, app: AnalysisApp) -> None:
        """The headerless ``handle`` surface still returns JSON-safe
        payloads: binary frames arrive base64-wrapped."""
        status, payload = app.handle(
            "GET", "/v1/sessions/s1/table",
            request_headers=COLUMNAR_HEADERS,
        )
        assert status == 200
        assert payload["content_type"] == COLUMNAR_CONTENT_TYPE
        import base64

        frame = base64.b64decode(payload["base64"])
        assert decode_columnar(frame)["row_count"] > 0

    def test_unknown_session_is_structured(self, app: AnalysisApp) -> None:
        status, payload, _h = app.handle_full(
            "GET", "/v1/sessions/nope/table",
            request_headers=COLUMNAR_HEADERS,
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown-session"
        assert payload["error"]["trace_id"]

    def test_bad_view_is_structured(self, app: AnalysisApp) -> None:
        status, payload, _h = app.handle_full(
            "GET", "/v1/sessions/s1/table?view=bogus"
        )
        assert status == 400
        assert payload["error"]["code"] == "bad-view-kind"


# --------------------------------------------------------------------- #
# the JSON table body on the wire
# --------------------------------------------------------------------- #
@pytest.fixture
def served():
    server = build_server(workload="fig1", nranks=2, seed=7, cache_size=8)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=scaled(10))


class TestJsonTableBytes:
    """A JSON ``/table`` body is encoded once per cache fill; the bytes a
    socket reads must stay exactly the sorted-key dump of the dict the
    in-process ``handle`` returns, on a fill and on every later hit."""

    PATH = "/v1/sessions/s1/table?view=cct&depth=3"

    #: the request run before the measured fetch, per case
    SETUP = {
        "miss": [],
        "hit": [("GET", PATH, None)],
        "after-flatten": [("GET", PATH, None),
                          ("POST", "/v1/sessions/s1/flatten", None)],
        "after-derive": [("GET", PATH, None),
                         ("POST", "/v1/sessions/s1/metrics",
                          {"name": "work2", "formula": "$0 * 2"})],
    }

    @pytest.mark.parametrize("case", list(SETUP))
    def test_socket_body_equals_handle_dump(self, served, case) -> None:
        app = served.app
        host, port = served.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=scaled(10))
        try:
            for method, path, body in self.SETUP[case]:
                data = json.dumps(body).encode() if body is not None else None
                conn.request(method, path, body=data)
                response = conn.getresponse()
                response.read()
                assert response.status in (200, 201), (method, path)
            hits, misses = app.cache.hits, app.cache.misses
            conn.request("GET", self.PATH)
            response = conn.getresponse()
            wire = response.read()
        finally:
            conn.close()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/json"
        # a flatten or a new metric invalidates the entry: refilled, too
        if case == "hit":
            assert (app.cache.hits, app.cache.misses) == (hits + 1, misses)
        else:
            assert (app.cache.hits, app.cache.misses) == (hits, misses + 1)
        status, payload = app.handle("GET", self.PATH)
        assert status == 200
        assert wire == json.dumps(payload, sort_keys=True).encode("utf-8")
        if case == "after-derive":
            assert "work2 (I)" in {c["name"] for c in payload["columns"]}
        if case == "after-flatten":
            assert payload["generation"] == 1
