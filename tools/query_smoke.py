#!/usr/bin/env python
"""Fast tier-1 smoke of the call-path query engine, end to end.

One run proves, in a couple of seconds, that the whole query path
works on this machine:

1. a composed query (pattern + predicate + sort + limit) evaluates on
   the in-memory Figure 1 experiment and returns the expected scopes;
2. the same query returns **bit-identical** rows on a binary-round-trip
   copy and on an mmap-backed ``.rpstore`` of the same experiment;
3. ``POST /v1/query`` serves the query in session mode, and the
   columnar wire form decodes to exactly the JSON rows;
4. a repeated session query is a response-cache hit with a
   byte-identical body, and a derived metric turns the next one into a
   miss whose rows carry the new column at generation 1 in both
   encodings;
5. a two-profile corpus diagnoses cleanly through the same endpoint.

The exhaustive batteries live in ``tests/query/``,
``tests/props/test_query_props.py``, and
``tests/server/test_query_endpoint.py``; this script only proves the
pipeline is alive inside the tier-1 gate.
"""

from __future__ import annotations

import base64
import json
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.store import create_store  # noqa: E402
from repro.hpcprof import binio, database  # noqa: E402
from repro.hpcprof.experiment import Experiment  # noqa: E402
from repro.query import query, run_query  # noqa: E402
from repro.server import AnalysisApp  # noqa: E402
from repro.server.wire import COLUMNAR_CONTENT_TYPE, decode_columnar  # noqa: E402
from repro.sim.workloads import fig1  # noqa: E402

Q = (query("m / ** / *")
     .where("cycles.inclusive >= 5%")
     .sort("cycles")
     .limit(8))


def check_backends(exp: Experiment, tmp: str) -> int:
    reference = run_query(Q, exp).to_rows()
    assert reference, "smoke query matched nothing on fig1"
    assert reference[0][0] == "file1.c:7", reference[0]  # fig1's hottest call site

    round_trip = database.loads(binio.dumps_binary(exp))
    assert run_query(Q, round_trip).to_rows() == reference, (
        "binary round-trip backend diverged from in-memory")

    store = create_store(exp, os.path.join(tmp, "smoke.rpstore"))
    try:
        assert run_query(Q, store).to_rows() == reference, (
            ".rpstore backend diverged from in-memory")
    finally:
        store.close()
    return len(reference)


def check_query_cache(app: AnalysisApp, sid: str, body: bytes) -> None:
    def counts() -> dict:
        return app.cache.stats()["operations"]["query"]

    def send(columnar: bool = False):
        headers = {"Accept": COLUMNAR_CONTENT_TYPE} if columnar else None
        status, out, _h = app.handle_full("POST", "/v1/query", body,
                                          request_headers=headers)
        assert status == 200, out
        return out

    first = send()
    before = counts()
    second = send()
    after = counts()
    assert after["hits"] == before["hits"] + 1, (before, after)
    assert second.data == first.data, "a cache hit changed the body bytes"

    status, out = app.handle(
        "POST", f"/v1/sessions/{sid}/metrics",
        json.dumps({"name": "dbl", "formula": "2 * $0"}).encode())
    assert status == 201, out
    fresh = send()
    assert counts()["misses"] == after["misses"] + 1, (
        "the query after a derive was served from the cache")
    columns = [c["name"] for c in fresh["columns"]]
    assert "dbl (I)" in columns, columns
    assert all(len(row) == len(columns) for row in fresh["rows"])
    decoded = decode_columnar(send(columnar=True).data)
    assert fresh["generation"] == decoded["generation"] == 1, (
        fresh["generation"], decoded["generation"])


def check_endpoint(payload: bytes, tmp: str) -> None:
    app = AnalysisApp(corpus_root=os.path.join(tmp, "corpus"))
    try:
        status, out = app.handle(
            "POST", "/v1/sessions",
            json.dumps({"workload": "fig1"}).encode())
        assert status == 201, out
        sid = out["session"]["id"]

        body = json.dumps({"session": sid, "query": Q.to_spec()}).encode()
        status, as_json = app.handle("POST", "/v1/query", body)
        assert status == 200, as_json
        assert as_json["rows"] and as_json["rows"][0][0] == "file1.c:7"

        status, blob, _h = app.handle_full(
            "POST", "/v1/query", body,
            request_headers={"Accept": COLUMNAR_CONTENT_TYPE})
        assert status == 200 and blob.content_type == COLUMNAR_CONTENT_TYPE
        assert decode_columnar(blob.data)["rows"] == as_json["rows"], (
            "columnar wire form diverged from JSON")
        check_query_cache(app, sid, body)

        upload = {"name": "r.rpdb",
                  "data": base64.b64encode(payload).decode(),
                  "group": "nightly"}
        for _ in range(2):
            status, out = app.handle(
                "POST", "/v1/corpus/smoke/profiles",
                json.dumps(upload).encode())
            assert status == 201, out
        status, diag = app.handle(
            "POST", "/v1/query",
            json.dumps({"tenant": "smoke", "diagnose": True}).encode())
        assert status == 200, diag
        assert diag["profiles_examined"] == 2
        assert diag["findings"] == [], (
            f"identical profiles produced findings: {diag['findings']}")
    finally:
        app.close()


def main() -> int:
    exp = Experiment.from_program(fig1.build())
    payload = binio.dumps_binary(exp)
    with tempfile.TemporaryDirectory(prefix="query-smoke-") as tmp:
        rows = check_backends(exp, tmp)
        check_endpoint(payload, tmp)
    print(f"query smoke OK: {rows} rows bit-identical across "
          f"in-memory/.rpdb/.rpstore, /v1/query JSON == "
          f"columnar, cached until a derive (generation 1 in both "
          f"encodings), 2-profile corpus diagnosis clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
