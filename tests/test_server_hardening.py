"""Protocol hardening: idempotent replay, rate limiting, token auth.

Unit tests drive :mod:`repro.server.hardening` and the client's
circuit breaker directly (injected clocks, no sockets); the end-to-end
classes run live servers per concern — a plain one for replay
semantics, an authenticated one, a rate-limited one — because each
guard changes what every request on the shared server sees.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import socket
import threading
import time

import pytest

from repro.broker.envelope import ErrorEnvelope, RecommendEnvelope
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers
from repro.errors import ValidationError
from repro.server import (
    IDEMPOTENCY_KEY_HEADER,
    REPLAY_HEADER,
    SERVED_ROUTES,
    IdempotencyStore,
    RateLimiter,
    ServerClient,
    ServerError,
    authenticate,
    principal_for,
    start_in_thread,
)
from repro.server.client import CircuitBreaker, CircuitOpenError
from repro.server.hardening import MAX_IDEMPOTENCY_KEY_LENGTH, StoredResponse
from repro.server.ingest import ExposureRecord
from repro.sla.contract import Contract
from repro.units import MINUTES_PER_YEAR

OBSERVE_YEARS = 1.0
SEED = 23
TOKEN = "s3cret-hardening-token"

REPLAY = REPLAY_HEADER.lower()

# The CI gateway leg runs this file with REPRO_WORKERS=2, which makes
# start_in_thread spawn a GatewayServer; tests that reach into the
# in-process server's internals only make sense at workers=0.
GATEWAY_WORKERS = int(os.environ.get("REPRO_WORKERS", "0") or "0")
inprocess_only = pytest.mark.skipif(
    GATEWAY_WORKERS > 0,
    reason="asserts in-process server internals",
)


def observed_broker() -> BrokerService:
    broker = BrokerService(all_providers())
    broker.observe_all(years=OBSERVE_YEARS, seed=SEED)
    return broker


def request(sla: float = 98.0, penalty: float = 100.0, **kwargs):
    return three_tier_request(Contract.linear(sla, penalty), **kwargs)


@pytest.fixture(scope="module")
def handle():
    """A plain hardened server: idempotency on, no auth, no limiter."""
    with start_in_thread(observed_broker(), shards=2) as server_handle:
        yield server_handle


@pytest.fixture(scope="module")
def client(handle):
    return ServerClient(handle.host, handle.port)


class _Clock:
    """An advanceable fake for ``clock_fn`` injection."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- idempotency store (unit) ------------------------------------------------

# -- hardened vs open serving ------------------------------------------------

def test_hardened_reports_equal_open_and_every_key_is_stored():
    """Auth, a non-binding rate limit and keyed replay change no byte of
    a recommendation, and the replay table holds one entry per keyed
    request."""
    token = "equal-token"
    envelopes = [
        RecommendEnvelope(
            request(penalty=100.0 + 25.0 * index), request_id=f"eq-{index}"
        )
        for index in range(4)
    ] * 2
    with start_in_thread(observed_broker()) as open_handle:
        open_client = ServerClient(
            open_handle.host, open_handle.port, idempotency=False
        )
        expected = [open_client.recommend(e).to_json() for e in envelopes]
        assert len(open_handle.server.idempotency) == 0
    with start_in_thread(
        observed_broker(),
        auth_token=token,
        rate_limit=1e6,
        idempotency_capacity=4 * len(envelopes),
    ) as hardened:
        client = ServerClient(
            hardened.host, hardened.port, auth_token=token, idempotency=True
        )
        actual = [client.recommend(e).to_json() for e in envelopes]
        assert len(hardened.server.idempotency) == len(envelopes)
    assert actual == expected


def _stored(n: int = 0) -> StoredResponse:
    return StoredResponse(200, "application/json", b'{"n": %d}' % n)


def _key(suffix: str) -> tuple[str, str, str, str]:
    return ("addr:t", "jobs", "key", suffix)


class TestIdempotencyStore:
    def test_claim_commit_replay_round_trip(self):
        async def run():
            store = IdempotencyStore(capacity=4)
            action, future = store.begin(_key("a"))
            assert action == "claim"
            store.commit(_key("a"), future, _stored(1))
            action, entry = store.begin(_key("a"))
            assert action == "replay"
            assert entry.body == b'{"n": 1}'
            assert store.replays == 1
            assert len(store) == 1

        asyncio.run(run())

    def test_waiter_receives_leader_commit(self):
        async def run():
            store = IdempotencyStore()
            _, future = store.begin(_key("a"))
            action, waited = store.begin(_key("a"))
            assert action == "wait"
            store.commit(_key("a"), future, _stored(7))
            assert (await waited).body == b'{"n": 7}'

        asyncio.run(run())

    def test_abandon_releases_waiters_to_re_race(self):
        async def run():
            store = IdempotencyStore()
            _, future = store.begin(_key("a"))
            _, waited = store.begin(_key("a"))
            store.abandon(_key("a"), future)
            assert await waited is None
            # Failed executions are never recorded: the next arrival
            # claims afresh instead of replaying a poisoned response.
            action, _ = store.begin(_key("a"))
            assert action == "claim"
            assert len(store) == 0

        asyncio.run(run())

    def test_eviction_is_lru_over_completed_entries(self):
        async def run():
            store = IdempotencyStore(capacity=2)
            for n in ("a", "b"):
                _, future = store.begin(_key(n))
                store.commit(_key(n), future, _stored())
            store.begin(_key("a"))  # refresh "a" to most-recent
            _, future = store.begin(_key("c"))
            store.commit(_key("c"), future, _stored())
            assert store.evictions == 1
            assert store.begin(_key("b"))[0] == "claim"  # evicted
            assert store.begin(_key("a"))[0] == "replay"  # survived

        asyncio.run(run())

    def test_inflight_claims_are_never_evicted(self):
        async def run():
            store = IdempotencyStore(capacity=1)
            _, inflight = store.begin(_key("slow"))
            for n in ("a", "b", "c"):
                _, future = store.begin(_key(n))
                store.commit(_key(n), future, _stored())
            # The slow leader's claim survived three evict passes.
            assert store.begin(_key("slow"))[0] == "wait"
            store.abandon(_key("slow"), inflight)

        asyncio.run(run())

    def test_capacity_is_validated(self):
        with pytest.raises(ValidationError):
            IdempotencyStore(capacity=0)


# -- rate limiter (unit) -----------------------------------------------------

class TestRateLimiter:
    def test_burst_then_limited_then_refill(self):
        ticker = _Clock()
        limiter = RateLimiter(rate=2.0, burst=3, clock_fn=ticker)
        assert [limiter.check("p") for _ in range(3)] == [0.0, 0.0, 0.0]
        retry_after = limiter.check("p")
        assert retry_after == pytest.approx(0.5)  # (1 - 0) / 2 req/s
        assert limiter.limited == 1
        ticker.advance(0.5)  # exactly one token refilled
        assert limiter.check("p") == 0.0

    def test_refill_is_capped_at_burst(self):
        ticker = _Clock()
        limiter = RateLimiter(rate=100.0, burst=2, clock_fn=ticker)
        ticker.advance(3600.0)
        assert limiter.check("p") == 0.0
        assert limiter.check("p") == 0.0
        assert limiter.check("p") > 0.0

    def test_principals_are_independent(self):
        limiter = RateLimiter(rate=1.0, burst=1, clock_fn=_Clock())
        assert limiter.check("alpha") == 0.0
        assert limiter.check("alpha") > 0.0
        assert limiter.check("beta") == 0.0
        assert len(limiter) == 2

    def test_principal_table_is_bounded_lru(self):
        limiter = RateLimiter(
            rate=1.0, burst=1, max_principals=2, clock_fn=_Clock()
        )
        for name in ("a", "b", "c"):
            limiter.check(name)
        assert len(limiter) == 2
        # "a" was evicted; churn cannot grow the table without bound,
        # and an evicted principal restarts with a full bucket.
        assert limiter.check("a") == 0.0

    def test_rate_is_validated(self):
        # A NaN or infinite rate would never limit anything.
        for rate in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="rate"):
                RateLimiter(rate=rate)
        with pytest.raises(ValidationError):
            RateLimiter(rate=5.0, burst=0)


# -- auth (unit) -------------------------------------------------------------

class TestAuthenticate:
    def test_missing_credential_is_401(self):
        failure = authenticate("secret", {})
        assert failure is not None and failure.status == 401
        assert failure.error == "unauthorized"

    def test_malformed_scheme_is_401(self):
        failure = authenticate("secret", {"authorization": "Basic abc"})
        assert failure is not None and failure.status == 401

    def test_wrong_token_is_403(self):
        failure = authenticate("secret", {"authorization": "Bearer nope"})
        assert failure is not None and failure.status == 403
        assert failure.error == "forbidden"

    def test_valid_token_passes(self):
        assert authenticate("secret", {"authorization": "Bearer secret"}) is None

    def test_principal_hashes_the_token(self):
        principal = principal_for(
            {"authorization": "Bearer secret"}, "1.2.3.4", True
        )
        assert principal.startswith("token:")
        assert "secret" not in principal

    def test_principal_falls_back_to_peer_address(self):
        assert principal_for({}, "1.2.3.4", False) == "addr:1.2.3.4"
        assert principal_for({}, "1.2.3.4", True) == "addr:1.2.3.4"


# -- circuit breaker (unit) --------------------------------------------------

class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=1.0, clock_fn=_Clock())
        for _ in range(2):
            breaker.record_failure()
        breaker.admit()  # still closed below the threshold
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError, match="next probe"):
            breaker.admit()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, clock_fn=_Clock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        ticker = _Clock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock_fn=ticker)
        breaker.record_failure()
        ticker.advance(5.0)
        assert breaker.state == "half-open"
        breaker.admit()  # the probe
        with pytest.raises(CircuitOpenError):
            breaker.admit()  # concurrent caller during the probe

    def test_probe_outcome_closes_or_reopens(self):
        ticker = _Clock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock_fn=ticker)
        breaker.record_failure()
        ticker.advance(5.0)
        breaker.admit()
        breaker.record_failure()  # probe failed: open for another cooldown
        assert breaker.state == "open"
        ticker.advance(5.0)
        breaker.admit()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_parameters_are_validated(self):
        with pytest.raises(ValidationError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValidationError):
            CircuitBreaker(cooldown=0.0)


# -- client retry policy vs the served route table ---------------------------

class TestRetryPolicyMatchesRouteTable:
    """The client's automatic-replay set must stay honest about what
    this server actually serves (the PR-5 lesson, now asserted)."""

    def test_idempotent_methods_hold_no_unsafe_verbs(self):
        assert ServerClient.IDEMPOTENT_METHODS == {"GET", "HEAD", "OPTIONS"}

    def test_no_served_mutation_rides_the_idempotent_set(self):
        served_methods = {method for method, _ in SERVED_ROUTES}
        assert served_methods == {"GET", "POST"}
        assert served_methods & ServerClient.IDEMPOTENT_METHODS == {"GET"}
        # PUT/DELETE are neither served nor granted automatic replay —
        # adding such a route must consciously revisit both sets.
        assert not {"PUT", "DELETE", "PATCH"} & ServerClient.IDEMPOTENT_METHODS

    def test_route_table_matches_the_live_server(self, client):
        for method, pattern in SERVED_ROUTES:
            path = pattern.replace("{id}", "probe-id")
            status, body = client.request_raw(
                method, path, "{}" if method == "POST" else None
            )
            assert status != 405, f"{method} {pattern} not served"
            if status >= 400:
                envelope = ErrorEnvelope.from_json(body)
                assert envelope.error != "unknown-route", (
                    f"{method} {pattern} missing from the live router"
                )


# -- idempotent replay (end to end) ------------------------------------------

class TestIdempotentReplay:
    def _post(self, client, path, payload, key=None):
        body = dict(payload)
        if key is not None:
            body["idempotency_key"] = key
        status, text = client.request_raw("POST", path, json.dumps(body))
        return status, text, client.last_response_headers.get(REPLAY)

    def test_keyed_recommend_replays_byte_identically(self, client):
        payload = RecommendEnvelope(
            request(), request_id="replay-rec", idempotency_key="rec-key-1"
        ).to_json()
        first_status, first = client.request_raw(
            "POST", "/v2/recommend", payload
        )
        assert client.last_response_headers.get(REPLAY) is None
        second_status, second = client.request_raw(
            "POST", "/v2/recommend", payload
        )
        assert (first_status, second_status) == (200, 200)
        assert second == first  # byte-identical, not recomputed
        assert client.last_response_headers.get(REPLAY) == "true"

    @inprocess_only
    def test_keyed_submit_creates_exactly_one_job(self, handle, client):
        payload = RecommendEnvelope(
            request(), idempotency_key="job-key-1"
        ).to_json()
        jobs_before = len(handle.server.session.jobs())
        _, first = client.request_raw("POST", "/v2/jobs", payload)
        _, second = client.request_raw("POST", "/v2/jobs", payload)
        assert json.loads(second)["job_id"] == json.loads(first)["job_id"]
        assert client.last_response_headers.get(REPLAY) == "true"
        assert len(handle.server.session.jobs()) == jobs_before + 1

    def test_keyed_submit_replays_one_job_id(self, client):
        # Wire-only, so the gateway leg runs it too.
        payload = RecommendEnvelope(
            request(), idempotency_key="job-key-wire"
        ).to_json()
        first_status, first = client.request_raw("POST", "/v2/jobs", payload)
        assert client.last_response_headers.get(REPLAY) is None
        second_status, second = client.request_raw(
            "POST", "/v2/jobs", payload
        )
        assert (first_status, second_status) == (202, 202)
        assert second == first
        assert json.loads(second)["job_id"] == json.loads(first)["job_id"]
        assert client.last_response_headers.get(REPLAY) == "true"

    def test_header_keyed_ingest_routes_records_once(self, client):
        line = json.dumps({
            "kind": "exposure",
            "provider": "metalcloud",
            "component_kind": "vm",
            "node_count": 4,
            "horizon_minutes": 2 * MINUTES_PER_YEAR,
        })
        headers = {IDEMPOTENCY_KEY_HEADER: "ingest-key-1"}
        _, first = client.request_raw(
            "POST", "/v2/ingest", line, headers=headers
        )
        _, second = client.request_raw(
            "POST", "/v2/ingest", line, headers=headers
        )
        assert second == first
        assert client.last_response_headers.get(REPLAY) == "true"

    def test_distinct_keys_execute_independently(self, client):
        job_ids = set()
        for key in ("fresh-a", "fresh-b"):
            payload = RecommendEnvelope(
                request(), idempotency_key=key
            ).to_json()
            _, text = client.request_raw("POST", "/v2/jobs", payload)
            assert client.last_response_headers.get(REPLAY) is None
            job_ids.add(json.loads(text)["job_id"])
        assert len(job_ids) == 2

    def test_error_responses_are_not_pinned_under_the_key(self, client):
        payload = RecommendEnvelope(request(), idempotency_key="err-key-1")
        broken = payload.to_dict()
        broken["request"] = {"bogus": 1}
        status, _, replayed = self._post(client, "/v2/recommend", broken)
        assert status == 400
        status, _, replayed = self._post(client, "/v2/recommend", broken)
        assert status == 400
        # The failure was abandoned, not stored: the retry re-executed.
        assert replayed is None

    def test_oversized_key_is_rejected_with_400(self, client):
        status, body = client.request_raw(
            "POST",
            "/v2/recommend",
            RecommendEnvelope(request()).to_json(),
            headers={
                IDEMPOTENCY_KEY_HEADER: "k" * (MAX_IDEMPOTENCY_KEY_LENGTH + 1)
            },
        )
        assert status == 400
        assert "character limit" in ErrorEnvelope.from_json(body).message

    @inprocess_only
    def test_unkeyed_requests_bypass_the_replay_table(self, handle, client):
        payload = RecommendEnvelope(request()).to_json()
        jobs_before = len(handle.server.session.jobs())
        _, first = client.request_raw("POST", "/v2/jobs", payload)
        _, second = client.request_raw("POST", "/v2/jobs", payload)
        assert json.loads(first)["job_id"] != json.loads(second)["job_id"]
        assert len(handle.server.session.jobs()) == jobs_before + 2

    def test_replay_metrics_are_exported(self, client):
        payload = RecommendEnvelope(
            request(), idempotency_key="metrics-key-1"
        ).to_json()
        client.request_raw("POST", "/v2/recommend", payload)
        client.request_raw("POST", "/v2/recommend", payload)
        samples = client.metrics()
        key = ("repro_idempotent_replays_total", (("route", "recommend"),))
        assert samples[key] >= 1.0
        assert samples[("repro_idempotency_entries", ())] >= 1.0


# -- job-result replay after retrieval/eviction (the S2 hole) ----------------

class TestJobResultReplay:
    @inprocess_only
    def test_retrieved_then_evicted_result_still_replays(self):
        """A retried GET …/result after the first terminal answer must
        replay even once the retrieved job is evicted from the table —
        before hardening this 404'd, which made the client's "GET is
        idempotent" retry silently unsafe."""
        with start_in_thread(observed_broker(), shards=2) as server_handle:
            wire = ServerClient(server_handle.host, server_handle.port)
            session = server_handle.server.session
            session.max_finished_jobs = 1
            first_job = wire.submit(RecommendEnvelope(request()))
            wire.result(first_job)
            status, first = wire.request_raw(
                "GET", f"/v2/jobs/{first_job}/result"
            )
            assert status == 200
            # Retrieve a second job, then submit a third: the submit's
            # eviction pass now sees two retrieved jobs over the cap of
            # one and drops the oldest — the first job.
            second_job = wire.submit(RecommendEnvelope(request(97.0)))
            wire.result(second_job)
            wire.submit(RecommendEnvelope(request(96.5)))
            assert all(
                job.job_id != first_job for job in session.jobs()
            ), "eviction precondition not met"
            status, replayed = wire.request_raw(
                "GET", f"/v2/jobs/{first_job}/result"
            )
            assert status == 200
            assert replayed == first
            assert wire.last_response_headers.get(REPLAY) == "true"

    def test_finished_result_rereads_byte_identically(self, client):
        # Wire-only, so the gateway leg runs it too.
        job_id = client.submit(RecommendEnvelope(request(95.5)))
        deadline = time.monotonic() + 60.0
        while client.poll(job_id) != "done":
            assert time.monotonic() < deadline, "job did not finish"
            time.sleep(0.05)
        path = f"/v2/jobs/{job_id}/result"
        first_status, first = client.request_raw("GET", path)
        assert client.last_response_headers.get(REPLAY) is None
        second_status, second = client.request_raw("GET", path)
        assert (first_status, second_status) == (200, 200)
        assert second == first
        assert client.last_response_headers.get(REPLAY) == "true"

    def test_pending_202_is_never_stored_for_replay(self, client):
        job_id = client.submit(RecommendEnvelope(request(96.0)))
        status, _ = client.request_raw("GET", f"/v2/jobs/{job_id}/result")
        if status == 202:
            # The job was still running: the 202 must not have been
            # committed, or this terminal read would replay it forever.
            client.result(job_id)
        status, _ = client.request_raw("GET", f"/v2/jobs/{job_id}/result")
        assert status == 200


# -- concurrent duplicate submission (first-writer-wins) ---------------------

class TestConcurrentDuplicates:
    @inprocess_only
    def test_racing_duplicate_submissions_yield_one_job(self):
        with start_in_thread(observed_broker(), shards=2) as server_handle:
            payload = RecommendEnvelope(
                request(strategy="brute-force"),
                idempotency_key="race-key-brute-force",
            ).to_json()
            barrier = threading.Barrier(2)
            outcomes: list[tuple[str, str | None]] = []

            def submit() -> None:
                wire = ServerClient(server_handle.host, server_handle.port)
                barrier.wait()
                _, text = wire.request_raw("POST", "/v2/jobs", payload)
                outcomes.append((
                    json.loads(text)["job_id"],
                    wire.last_response_headers.get(REPLAY),
                ))

            threads = [threading.Thread(target=submit) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert len(outcomes) == 2
            job_ids = {job_id for job_id, _ in outcomes}
            assert len(job_ids) == 1  # first writer won; no duplicate
            session = server_handle.server.session
            assert len(session.jobs()) == 1
            # Exactly one execution: the other response was replayed
            # (either from the in-flight future or the stored entry).
            markers = [marker for _, marker in outcomes]
            assert markers.count("true") == 1
            report = ServerClient(
                server_handle.host, server_handle.port
            ).result(job_ids.pop())
            assert report.best.best.meets_sla


# -- keyed POST retry over the PR-5 drop harness ----------------------------

class _ProcessThenDropServer:
    """The PR-5 stale-keep-alive shape: every request is processed, but
    only the first per connection is answered — the second's response
    is dropped after the server has acted."""

    def __init__(self) -> None:
        self.processed: list[str] = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.2)
        self.host, self.port = self._sock.getsockname()
        self._closing = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def __enter__(self) -> "_ProcessThenDropServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self._closing = True
        self._thread.join(timeout=5.0)
        self._sock.close()

    def _serve(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn: socket.socket) -> None:
        served = 0
        with conn:
            while True:
                head = self._read_request(conn)
                if head is None:
                    return
                self.processed.append(head)
                served += 1
                if served >= 2:
                    return  # process, then drop: no response bytes
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 2\r\n\r\n{}"
                )

    def _read_request(self, conn: socket.socket) -> str | None:
        buffer = b""
        while b"\r\n\r\n" not in buffer:
            try:
                data = conn.recv(65536)
            except OSError:
                return None
            if not data:
                return None
            buffer += data
        head, _, body = buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        method, path = lines[0].split()[:2]
        length = 0
        for line in lines[1:]:
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        while len(body) < length:
            data = conn.recv(65536)
            if not data:
                return None
            body += data
        return f"{method.decode()} {path.decode()}"


class TestKeyedRetrySemantics:
    """With replay on the server, the PR-5 client restriction lifts:
    a keyed POST is retried after a lost response; an unkeyed one is
    still surfaced (covered in test_server_transport.py)."""

    def test_keyed_post_is_retried_after_response_phase_failure(self):
        with _ProcessThenDropServer() as server:
            wire = ServerClient(server.host, server.port, timeout=5.0)
            status, _ = wire.request_raw(
                "POST", "/v2/jobs", '{"n": 1}', idempotent_replay=True
            )
            assert status == 200
            status, _ = wire.request_raw(
                "POST", "/v2/jobs", '{"n": 2}', idempotent_replay=True
            )
            # The drop is survived: resent on a fresh connection (where
            # it is request #1 and gets answered).  A real server would
            # have replayed the recorded response for the same key.
            assert status == 200
            assert server.processed == [
                "POST /v2/jobs",
                "POST /v2/jobs",  # processed, response dropped
                "POST /v2/jobs",  # transparent keyed resend
            ]

    @inprocess_only
    def test_retried_keyed_submit_reaches_one_job_end_to_end(self, handle):
        """The same-key resend the drop harness exercises, replayed
        against the real server: the duplicate is deduplicated."""
        wire = ServerClient(handle.host, handle.port)
        payload = RecommendEnvelope(
            request(), idempotency_key="resend-key-1"
        ).to_json()
        jobs_before = len(handle.server.session.jobs())
        first = wire.request_raw(
            "POST", "/v2/jobs", payload, idempotent_replay=True
        )
        wire.close()  # simulate the dropped connection before the resend
        second = wire.request_raw(
            "POST", "/v2/jobs", payload, idempotent_replay=True
        )
        assert second == first
        assert len(handle.server.session.jobs()) == jobs_before + 1

    def test_typed_submit_stamps_a_key_and_survives_resend(self, handle):
        wire = ServerClient(handle.host, handle.port)
        envelope = wire._as_envelope(RecommendEnvelope(request()))
        assert envelope.idempotency_key is not None
        first = wire.submit(envelope)
        second = wire.submit(envelope)  # same envelope = same key
        assert second == first


# -- auth (end to end) -------------------------------------------------------

@pytest.fixture(scope="module")
def auth_handle():
    with start_in_thread(
        observed_broker(), shards=2, auth_token=TOKEN
    ) as server_handle:
        yield server_handle


class TestAuthEndToEnd:
    def test_missing_token_is_401_envelope(self, auth_handle):
        bare = ServerClient(auth_handle.host, auth_handle.port)
        with pytest.raises(ServerError) as excinfo:
            bare.recommend(RecommendEnvelope(request()))
        assert excinfo.value.status == 401
        assert excinfo.value.envelope.error == "unauthorized"
        assert bare.last_response_headers.get("www-authenticate") == "Bearer"

    def test_wrong_token_is_403_envelope(self, auth_handle):
        wire = ServerClient(
            auth_handle.host, auth_handle.port, auth_token="wrong"
        )
        with pytest.raises(ServerError) as excinfo:
            wire.recommend(RecommendEnvelope(request()))
        assert excinfo.value.status == 403

    def test_valid_token_serves_recommendations(self, auth_handle):
        wire = ServerClient(
            auth_handle.host, auth_handle.port, auth_token=TOKEN
        )
        report = wire.recommend(RecommendEnvelope(request(), request_id="a-1"))
        assert report.request_id == "a-1"

    def test_health_and_metrics_stay_open_for_probes(self, auth_handle):
        bare = ServerClient(auth_handle.host, auth_handle.port)
        assert bare.health()["status"] == "ok"
        assert "repro_http_requests_total" in bare.metrics_text()

    def test_auth_failures_are_counted(self, auth_handle):
        bare = ServerClient(auth_handle.host, auth_handle.port)
        with pytest.raises(ServerError):
            bare.poll("some-job")
        wire = ServerClient(
            auth_handle.host, auth_handle.port, auth_token=TOKEN
        )
        samples = wire.metrics()
        assert samples[
            ("repro_auth_failures_total", (("status", "401"),))
        ] >= 1.0

    def test_empty_auth_token_is_rejected_at_startup(self):
        with pytest.raises(ValidationError):
            start_in_thread(observed_broker(), auth_token="")


# -- rate limiting (end to end) ----------------------------------------------

class TestRateLimitEndToEnd:
    def test_burst_overflow_is_429_with_retry_after(self):
        with start_in_thread(
            observed_broker(), shards=2, rate_limit=5.0, rate_limit_burst=3
        ) as server_handle:
            wire = ServerClient(
                server_handle.host, server_handle.port, rate_limit_budget=0.0
            )
            status, body = wire.request_raw("GET", "/v2/jobs/probe")
            assert status == 404  # the burst is served first
            for _ in range(20):
                status, body = wire.request_raw("GET", "/v2/jobs/probe")
                if status == 429:
                    break
            assert status == 429
            envelope = ErrorEnvelope.from_json(body)
            assert envelope.error == "rate-limited"
            retry_after = float(
                wire.last_response_headers["retry-after"]
            )
            assert retry_after > 0.0
            # Exempt probes are never limited; the counter is exported.
            assert wire.health()["status"] == "ok"
            samples = wire.metrics()
            limited = sum(
                value
                for (name, _), value in samples.items()
                if name == "repro_rate_limited_total"
            )
            assert limited >= 1.0
            assert samples[("repro_rate_limit_principals", ())] >= 1.0

    def test_client_sleeps_out_retry_after_within_budget(self):
        with start_in_thread(
            observed_broker(), shards=2, rate_limit=50.0, rate_limit_burst=2
        ) as server_handle:
            wire = ServerClient(
                server_handle.host, server_handle.port, rate_limit_budget=5.0
            )
            # 8 rapid calls through a 2-token bucket: the client must
            # absorb every 429 by sleeping out Retry-After.
            statuses = {
                wire.request_raw("GET", "/v2/jobs/probe")[0]
                for _ in range(8)
            }
            assert statuses == {404}  # 429s were absorbed, never surfaced


# -- error envelopes (end to end) --------------------------------------------

@pytest.fixture(scope="module")
def limited_handle():
    """A burst of one that refills once every 100 s."""
    with start_in_thread(
        observed_broker(), shards=2, rate_limit=0.01, rate_limit_burst=1
    ) as server_handle:
        yield server_handle


@pytest.mark.parametrize(
    "status, server, token, method, path, body",
    [
        (400, "plain", None, "POST", "/v2/recommend", "{nope"),
        (401, "auth", None, "GET", "/v2/jobs/probe", None),
        (403, "auth", "wrong", "GET", "/v2/jobs/probe", None),
        (404, "plain", None, "GET", "/v2/no-such-route", None),
        (429, "limited", None, "GET", "/v2/jobs/probe", None),
    ],
    ids=["400", "401", "403", "404", "429"],
)
def test_error_body_is_an_envelope_of_the_http_status(
    handle, auth_handle, limited_handle, status, server, token, method,
    path, body,
):
    served = {"plain": handle, "auth": auth_handle, "limited": limited_handle}
    wire = ServerClient(
        served[server].host,
        served[server].port,
        auth_token=token,
        rate_limit_budget=0.0,
    )
    # The limited server answers its one-request burst first.
    for _ in range(2):
        got, text = wire.request_raw(method, path, body)
        if got == status:
            break
    assert got == status, text
    assert ErrorEnvelope.from_json(text).status == status


# -- circuit breaker (end to end) --------------------------------------------

class TestCircuitBreakerEndToEnd:
    def test_breaker_fails_fast_after_connect_failures(self):
        sock = socket.create_server(("127.0.0.1", 0))
        _, port = sock.getsockname()
        sock.close()  # nothing listens here any more
        wire = ServerClient(
            "127.0.0.1",
            port,
            timeout=0.5,
            breaker_threshold=2,
            breaker_cooldown=60.0,
        )
        for _ in range(2):
            with pytest.raises(OSError):
                wire.request_raw("GET", "/healthz")
        assert wire.breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            wire.request_raw("GET", "/healthz")

    def test_breaker_closes_after_successful_probe(self, handle):
        wire = ServerClient(
            handle.host,
            handle.port,
            breaker_threshold=1,
            breaker_cooldown=60.0,
        )
        wire.breaker.record_failure()
        assert wire.breaker.state == "open"
        wire.breaker._opened_at = wire.breaker._clock() - 61.0
        assert wire.breaker.state == "half-open"
        assert wire.health()["status"] == "ok"  # the admitted probe
        assert wire.breaker.state == "closed"


# -- Content-Type on empty bodies (the S1 wire regression) -------------------

class _RecordingServer:
    """Answers 200 to everything; records each request's raw head."""

    def __init__(self) -> None:
        self.heads: list[bytes] = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.2)
        self.host, self.port = self._sock.getsockname()
        self._closing = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def __enter__(self) -> "_RecordingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self._closing = True
        self._thread.join(timeout=5.0)
        self._sock.close()

    def _serve(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            with conn:
                buffer = b""
                while b"\r\n\r\n" not in buffer:
                    data = conn.recv(65536)
                    if not data:
                        break
                    buffer += data
                if buffer:
                    self.heads.append(buffer.partition(b"\r\n\r\n")[0])
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Length: 2\r\n"
                        b"Connection: close\r\n\r\n{}"
                    )


class TestContentTypeOnTheWire:
    def test_empty_body_still_carries_content_type(self):
        """``if body`` treated ``b\"\"`` as no-body and dropped the
        header; the guard is now ``body is not None``."""
        with _RecordingServer() as server:
            wire = ServerClient(server.host, server.port, timeout=5.0)
            status, _ = wire.request_raw("POST", "/v2/ingest", b"")
            assert status == 200
            head = server.heads[0].lower()
            assert b"content-type: application/json" in head
            assert b"content-length: 0" in head

    def test_absent_body_sends_no_content_type(self):
        with _RecordingServer() as server:
            wire = ServerClient(server.host, server.port, timeout=5.0)
            wire.request_raw("GET", "/healthz")
            assert b"content-type" not in server.heads[0].lower()
