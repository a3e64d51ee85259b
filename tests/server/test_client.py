"""Deterministic retry-client behavior against scripted transports."""

from __future__ import annotations

import pytest

from repro.server.client import (
    ClientResponse,
    RetriesExhausted,
    RetryingClient,
    RetryPolicy,
)


def scripted(responses):
    """A transport replaying *responses* (ClientResponse or Exception)."""
    queue = list(responses)
    calls = []

    def transport(method, url, body, timeout):
        calls.append((method, url, body))
        item = queue.pop(0) if queue else queue_exhausted()
        if isinstance(item, Exception):
            raise item
        return item

    def queue_exhausted():
        raise AssertionError("transport called more times than scripted")

    transport.calls = calls
    return transport


def shed(retry_after=None):
    payload = {"error": {"status": 429, "code": "too-many-requests",
                         "message": "shed"}}
    headers = {}
    if retry_after is not None:
        payload["error"]["retry_after"] = retry_after
        headers["Retry-After"] = str(retry_after)
    return ClientResponse(429, payload, headers)


def ok(payload=None):
    return ClientResponse(200, payload or {"fine": True})


def make_client(transport, **policy_kwargs):
    sleeps = []
    client = RetryingClient(
        "http://test",
        policy=RetryPolicy(jitter=0.0, **policy_kwargs),
        transport=transport,
        sleep=sleeps.append,
        rng=lambda: 0.5,
    )
    client.test_sleeps = sleeps
    return client


class TestRetrySchedule:
    def test_success_first_try_no_sleep(self):
        client = make_client(scripted([ok()]))
        assert client.get("/v1/stats").ok
        assert client.test_sleeps == []
        assert client.retries == 0

    def test_exponential_backoff_without_retry_after(self):
        client = make_client(
            scripted([shed(), shed(), shed(), ok()]),
            base_delay=0.1, max_attempts=5,
        )
        assert client.get("/x").ok
        assert client.test_sleeps == [0.1, 0.2, 0.4]
        assert client.retries == 3

    def test_backoff_capped_at_max_delay(self):
        client = make_client(
            scripted([shed()] * 6 + [ok()]),
            base_delay=1.0, max_delay=4.0, max_attempts=8,
        )
        client.get("/x")
        assert client.test_sleeps == [1.0, 2.0, 4.0, 4.0, 4.0, 4.0]

    def test_retry_after_is_a_floor(self):
        """The server's hint wins over a smaller computed backoff."""
        client = make_client(
            scripted([shed(retry_after=3.0), ok()]),
            base_delay=0.1,
        )
        client.get("/x")
        assert client.test_sleeps == [3.0]

    def test_computed_backoff_wins_over_smaller_hint(self):
        client = make_client(
            scripted([shed(retry_after=0.05), shed(retry_after=0.05), ok()]),
            base_delay=1.0,
        )
        client.get("/x")
        assert client.test_sleeps == [1.0, 2.0]

    def test_jitter_spreads_the_schedule(self):
        seq = iter([0.0, 1.0])  # rng extremes: full negative, full positive
        sleeps = []
        client = RetryingClient(
            "http://test",
            policy=RetryPolicy(base_delay=1.0, jitter=0.25, max_attempts=3),
            transport=scripted([shed(), shed(), ok()]),
            sleep=sleeps.append,
            rng=lambda: next(seq),
        )
        client.get("/x")
        assert sleeps == [pytest.approx(0.75), pytest.approx(2.5)]


class TestRetryTaxonomy:
    def test_503_retried(self):
        body = {"error": {"status": 503, "code": "deadline-exceeded",
                          "message": "slow", "retry_after": 0.2}}
        client = make_client(
            scripted([ClientResponse(503, body), ok()]), base_delay=0.1
        )
        assert client.get("/x").ok
        assert client.test_sleeps == [0.2]

    def test_connection_errors_retried(self):
        client = make_client(
            scripted([ConnectionRefusedError("down"), ok()])
        )
        assert client.get("/x").ok
        assert client.retries == 1

    def test_client_errors_not_retried(self):
        """A 404 is the caller's problem; retrying would repeat it."""
        body = {"error": {"status": 404, "code": "unknown-session",
                          "message": "nope"}}
        transport = scripted([ClientResponse(404, body)])
        client = make_client(transport)
        response = client.get("/v1/sessions/sNOPE")
        assert response.status == 404
        assert len(transport.calls) == 1
        assert client.test_sleeps == []

    def test_exhaustion_raises_with_last_response(self):
        client = make_client(
            scripted([shed()] * 3), max_attempts=3, base_delay=0.01
        )
        with pytest.raises(RetriesExhausted) as err:
            client.get("/x")
        assert err.value.attempts == 3
        assert err.value.last_response.status == 429
        assert len(client.test_sleeps) == 2  # no sleep after the last try

    def test_exhaustion_on_transport_errors(self):
        client = make_client(
            scripted([ConnectionError("a"), ConnectionError("b")]),
            max_attempts=2, base_delay=0.01,
        )
        with pytest.raises(RetriesExhausted) as err:
            client.get("/x")
        assert isinstance(err.value.last_error, ConnectionError)


class TestResponseParsing:
    def test_retry_after_header_precedence(self):
        resp = ClientResponse(
            429,
            {"error": {"retry_after": 9.0}},
            {"Retry-After": "2"},
        )
        assert resp.retry_after() == 2.0

    def test_retry_after_payload_fallback(self):
        resp = ClientResponse(429, {"error": {"retry_after": 1.5}}, {})
        assert resp.retry_after() == 1.5

    def test_retry_after_absent(self):
        assert ClientResponse(429, {"error": {}}, {}).retry_after() is None

    def test_bad_header_ignored(self):
        resp = ClientResponse(429, {"error": {}}, {"Retry-After": "soon"})
        assert resp.retry_after() is None


class TestQueryEncoding:
    def test_get_table_query_is_url_encoded(self):
        """Metric names with spaces/parens/& must survive the query
        string; raw interpolation produced malformed request paths."""
        transport = scripted([ok()])
        client = make_client(transport)
        client.get_table(
            "s1", columnar=False,
            metric="GPU time (I)", view="cct", depth=3,
        )
        _method, url, _body = transport.calls[0]
        assert url == (
            "http://test/v1/sessions/s1/table"
            "?depth=3&metric=GPU+time+%28I%29&view=cct"
        )

    def test_get_table_without_params_has_no_query(self):
        transport = scripted([ok()])
        client = make_client(transport)
        client.get_table("s1", columnar=False)
        _method, url, _body = transport.calls[0]
        assert url == "http://test/v1/sessions/s1/table"


class TestMisdirectedRetry:
    def test_421_is_retried_on_a_fresh_connection(self):
        """Pool workers answer 421 when a kept-alive connection switches
        sessions; each retry attempt opens a fresh connection, which the
        pool parent re-routes correctly."""
        body = {"error": {"status": 421, "code": "misrouted",
                          "message": "reconnect"}}
        client = make_client(
            scripted([ClientResponse(421, body), ok()]), base_delay=0.01,
        )
        response = client.get("/v1/sessions/s2/table")
        assert response.status == 200
        assert client.retries == 1
