"""The multi-process gateway: framing, routing, byte-identity, respawn.

Unit tests cover the dispatch protocol (frames, partition arithmetic)
with no processes involved.  The end-to-end classes spawn real worker
fleets: a workers=1 gateway is compared byte-for-byte against the
in-process server on twin brokers (the gateway must be an invisible
layer, not a dialect), a workers=2 fleet exercises partitioned serving
and edge-side replay, and the final class kills a worker mid-flight
and waits for the supervisor to respawn it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import inspect
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.broker.api import BrokerSession
from repro.broker.envelope import RecommendEnvelope
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers
from repro.errors import BrokerError, ValidationError
from repro.server import (
    IDEMPOTENCY_KEY_HEADER,
    REPLAY_HEADER,
    ServerClient,
    start_in_thread,
)
from repro.server.dispatch import (
    EPOCH_BLOCK,
    MAX_HEADER_BYTES,
    WorkerSpec,
    batch_routing_key,
    encode_frame,
    job_id_start,
    job_partition,
    partition_for,
    read_frame,
    routing_key,
)
from repro.server.core import RequestCore
from repro.server.gateway import GatewayServer
from repro.server.transport import BrokerServer
from repro.sla.contract import Contract

OBSERVE_YEARS = 1.0
SEED = 23


def observed_broker() -> BrokerService:
    broker = BrokerService(all_providers())
    broker.observe_all(years=OBSERVE_YEARS, seed=SEED)
    return broker


def request(sla: float = 98.0, penalty: float = 100.0, **kwargs):
    return three_tier_request(Contract.linear(sla, penalty), **kwargs)


def envelope_json(request_id: str, **kwargs) -> str:
    return RecommendEnvelope(
        request=request(**kwargs), request_id=request_id
    ).to_json()


# -- dispatch framing (unit) -------------------------------------------------

def _read(data: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(run())


class TestFraming:
    def test_round_trip_preserves_header_and_body(self):
        header = {"kind": "request", "id": 7, "path": "/v2/recommend"}
        body = b'{"raw": "bytes \xe2\x9c\x93"}'
        got_header, got_body = _read(encode_frame(header, body))
        assert got_header == header
        assert got_body == body

    def test_empty_body_frames_are_legal(self):
        header, body = _read(encode_frame({"kind": "stream-end", "id": 1}))
        assert header["kind"] == "stream-end"
        assert body == b""

    def test_frames_are_delimited_not_greedy(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(
                encode_frame({"id": 1}, b"one") + encode_frame({"id": 2}, b"two")
            )
            first = await read_frame(reader)
            second = await read_frame(reader)
            return first, second

        (h1, b1), (h2, b2) = asyncio.run(run())
        assert (h1["id"], b1) == (1, b"one")
        assert (h2["id"], b2) == (2, b"two")

    def test_oversized_header_is_rejected_before_allocation(self):
        from repro.server.dispatch import FRAME_PREFIX

        bogus = FRAME_PREFIX.pack(MAX_HEADER_BYTES + 1, 0)
        with pytest.raises(ValidationError, match="exceeds"):
            _read(bogus + b"x")

    def test_non_object_header_is_rejected(self):
        payload = json.dumps([1, 2, 3]).encode()
        from repro.server.dispatch import FRAME_PREFIX

        data = FRAME_PREFIX.pack(len(payload), 0) + payload
        with pytest.raises(ValidationError, match="object"):
            _read(data)


# -- partition routing (unit) ------------------------------------------------

class TestPartitionRouting:
    def test_partition_for_is_stable_and_in_range(self):
        for workers in (1, 2, 3, 8):
            for key in ("metalcloud", "a,b", '{"x": 1}'):
                first = partition_for(key, workers)
                assert 0 <= first < workers
                assert partition_for(key, workers) == first

    def test_pinned_providers_route_by_sorted_set(self):
        def body(providers):
            payload = json.loads(envelope_json("r-1"))
            payload["request"]["providers"] = providers
            return json.dumps(payload).encode()

        assert routing_key(body(["b", "a"])) == "a,b"
        assert routing_key(body(["a", "b"])) == "a,b"

    def test_unpinned_requests_route_by_canonical_request(self):
        one = envelope_json("r-1").encode()
        # Same request under a different envelope id routes identically:
        # the engines it warms are keyed by request content, not id.
        two = envelope_json("r-2").encode()
        assert routing_key(one) == routing_key(two)
        assert routing_key(one) is not None

    def test_unparseable_bodies_have_no_key(self):
        assert routing_key(b"{nope") is None
        assert routing_key(b"[1, 2]") is None
        assert routing_key(b'{"request": 5}') is None

    def test_batch_routes_by_first_non_blank_line(self):
        lines = b"\n  \n" + envelope_json("r-1").encode() + b"\n{nope\n"
        assert batch_routing_key(lines) == routing_key(
            envelope_json("r-1").encode()
        )
        assert batch_routing_key(b" \n \n") is None

    def test_job_partition_inverts_strided_minting(self):
        workers = 3
        for index in range(workers):
            for epoch in (0, 1, 5):
                start = job_id_start(index, workers, epoch)
                for k in range(4):
                    minted = f"job-{start + k * workers:06d}"
                    assert job_partition(minted, workers) == index

    def test_job_partition_rejects_foreign_ids(self):
        assert job_partition("job-x", 2) is None
        assert job_partition("nope", 2) is None

    def test_epoch_blocks_never_collide(self):
        # A respawned worker (epoch 1) must not re-mint any id its
        # predecessor (epoch 0) could have issued.
        workers = 2
        epoch0_max = job_id_start(workers - 1, workers, 0) + workers * (
            EPOCH_BLOCK - 1
        )
        assert job_id_start(0, workers, 1) > epoch0_max

    def test_session_mints_strided_ids(self):
        broker = observed_broker()
        session = BrokerSession(
            broker,
            job_id_start=job_id_start(1, 2, 0),
            job_id_stride=2,
        )
        try:
            ids = [session.submit(request()) for _ in range(3)]
        finally:
            session.close()
        assert ids == ["job-000002", "job-000004", "job-000006"]
        assert all(job_partition(job_id, 2) == 1 for job_id in ids)


# -- byte-identity against the in-process server -----------------------------

@pytest.fixture(scope="module")
def twin_handles():
    """Twin brokers (same providers, same observed telemetry), one
    served in-process and one through a workers=1 gateway."""
    with start_in_thread(observed_broker(), workers=0, shards=2) as direct:
        with start_in_thread(observed_broker(), workers=1, shards=2) as gated:
            yield direct, gated


class TestByteIdentity:
    """The gateway is a transport, not a dialect: every route must
    answer byte-identically to the in-process server."""

    @pytest.mark.parametrize(
        ("method", "path", "body"),
        [
            ("POST", "/v2/recommend", envelope_json("bi-1")),
            ("POST", "/v2/recommend", envelope_json("bi-2", compute_nodes=3)),
            ("POST", "/v2/recommend", "{nope"),
            ("GET", "/v2/nowhere", None),
            ("PUT", "/v2/recommend", envelope_json("bi-3")),
            ("POST", "/v2/batch", "  \n "),
            (
                "POST",
                "/v2/batch",
                envelope_json("bi-4") + "\n" + envelope_json("bi-5") + "\n",
            ),
            ("POST", "/v2/ingest", "\n\n"),
        ],
    )
    def test_routes_answer_identical_bytes(
        self, twin_handles, method, path, body
    ):
        direct, gated = twin_handles
        a = ServerClient(direct.host, direct.port)
        b = ServerClient(gated.host, gated.port)
        assert a.request_raw(method, path, body) == b.request_raw(
            method, path, body
        )

    def test_fleet_matches_in_process_over_distinct_contracts(self):
        """Eight contracts spread over a two-worker fleet: every report,
        cold and warm, has the in-process server's bytes."""
        envelopes = [
            RecommendEnvelope(
                request(penalty=100.0 + 25.0 * index),
                request_id=f"bi-contract-{index}",
            )
            for index in range(8)
        ]
        assert {
            partition_for(routing_key(envelope.to_json().encode()), 2)
            for envelope in envelopes
        } == {0, 1}
        reports = []
        for workers in (0, 2):
            # Room for all 24 engines in one cache, so a warm pass hits
            # in both modes and engine_stats agree too.
            with start_in_thread(
                observed_broker(), workers=workers, shards=2, cache_capacity=32
            ) as handle:
                client = ServerClient(handle.host, handle.port)
                reports.append(
                    [client.recommend(e).to_json() for e in envelopes * 2]
                )
        assert reports[0] == reports[1]

    def test_job_lifecycle_is_identical(self, twin_handles):
        direct, gated = twin_handles
        a = ServerClient(direct.host, direct.port)
        b = ServerClient(gated.host, gated.port)
        envelope = RecommendEnvelope(request(), request_id="bi-job-1")
        ids = [client.submit(envelope) for client in (a, b)]
        # Both sides mint from the same start with stride 1, so the
        # counters agree request-for-request.
        assert ids[0] == ids[1]
        job_id = ids[0]
        for client in (a, b):
            deadline = time.monotonic() + 30.0
            while client.poll(job_id) != "done":
                assert time.monotonic() < deadline, "job never finished"
                time.sleep(0.05)
        assert a.request_raw(
            "GET", f"/v2/jobs/{job_id}/result"
        ) == b.request_raw("GET", f"/v2/jobs/{job_id}/result")

    def test_ingest_and_flush_acks_are_identical(self, twin_handles):
        direct, gated = twin_handles
        record = json.dumps(
            {
                "kind": "exposure",
                "provider": "metalcloud",
                "component_kind": "vm",
                "node_count": 4,
                "horizon_minutes": 1000.0,
            }
        )
        a = ServerClient(direct.host, direct.port)
        b = ServerClient(gated.host, gated.port)
        assert a.request_raw(
            "POST", "/v2/ingest", record + "\n"
        ) == b.request_raw("POST", "/v2/ingest", record + "\n")
        assert a.request_raw(
            "POST", "/v2/ingest/flush", ""
        ) == b.request_raw("POST", "/v2/ingest/flush", "")


# -- partitioned fleet (workers=2) -------------------------------------------

@pytest.fixture(scope="module")
def fleet_handle():
    with start_in_thread(observed_broker(), workers=2, shards=2) as handle:
        yield handle


@pytest.fixture()
def fleet_client(fleet_handle):
    return ServerClient(fleet_handle.host, fleet_handle.port)


class TestPartitionedFleet:
    def test_recommend_round_trip(self, fleet_client):
        report = fleet_client.recommend(request())
        assert report.best is not None

    def test_replay_is_edge_side_and_cross_partition(self, fleet_client):
        """Same key, drifted body: the replay decision happens at the
        gateway, before routing can send the retry elsewhere."""
        headers = {IDEMPOTENCY_KEY_HEADER: "gw-replay-1"}
        first = fleet_client.request_raw(
            "POST", "/v2/recommend", envelope_json("gw-r1"), headers=headers
        )
        assert first[0] == 200
        # The drifted body would route to a different partition if the
        # gateway consulted content routing before the replay table.
        drifted = envelope_json("gw-r1", compute_nodes=3)
        second = fleet_client.request_raw(
            "POST", "/v2/recommend", drifted, headers=headers
        )
        assert second == first
        replayed = fleet_client.last_response_headers.get(
            REPLAY_HEADER.lower()
        )
        assert replayed == "true"

    def test_jobs_stride_across_partitions(self, fleet_client):
        job_ids = [
            fleet_client.submit(request(compute_nodes=n))
            for n in (1, 2, 3, 4)
        ]
        partitions = {job_partition(job_id, 2) for job_id in job_ids}
        assert len(job_ids) == len(set(job_ids))
        for job_id in job_ids:
            deadline = time.monotonic() + 30.0
            while fleet_client.poll(job_id) != "done":
                assert time.monotonic() < deadline, f"{job_id} never finished"
                time.sleep(0.05)
            report = fleet_client.result(job_id)
            assert report.best is not None
        # Content routing decides the submitting worker, so a single
        # partition is possible; ids must still decode to valid owners.
        assert partitions <= {0, 1}

    def test_health_reports_the_fleet(self, fleet_client):
        health = fleet_client.health()
        assert health["status"] == "ok"
        fleet = health["workers"]
        assert [w["index"] for w in fleet] == [0, 1]
        assert all(w["alive"] for w in fleet)
        assert all(w["epoch"] == 0 for w in fleet)
        assert len({w["pid"] for w in fleet}) == 2

    def test_metrics_are_merged_not_concatenated(self, fleet_client):
        fleet_client.recommend(request())
        text = fleet_client.metrics_text()
        # One exposition: a family both workers export appears exactly
        # once (samples summed), as does the gateway's own edge family.
        assert text.count("# TYPE repro_engine_cache_hits_total counter") == 1
        assert text.count("# TYPE repro_http_requests_total counter") == 1
        samples = fleet_client.metrics()
        assert samples[("repro_gateway_workers_alive", ())] == 2.0

    def test_batch_streams_through_the_gateway(self, fleet_client):
        body = envelope_json("gw-b1") + "\n" + envelope_json("gw-b2") + "\n"
        status, text = fleet_client.request_raw("POST", "/v2/batch", body)
        assert status == 200
        lines = [line for line in text.splitlines() if line.strip()]
        assert len(lines) == 2
        decoded = [json.loads(line) for line in lines]
        assert [d["request_id"] for d in decoded] == ["gw-b1", "gw-b2"]


# -- construction and selection ----------------------------------------------

class TestModeSelection:
    def test_workers_zero_is_the_in_process_server(self):
        with start_in_thread(observed_broker(), workers=0) as handle:
            assert isinstance(handle.server, BrokerServer)
            assert not isinstance(handle.server, GatewayServer)

    def test_gateway_requires_at_least_one_worker(self):
        with pytest.raises(ValidationError, match="workers"):
            GatewayServer(observed_broker(), workers=0)

    @pytest.mark.parametrize(
        "setting, error, pattern",
        [
            ({"merge_interval": float("nan")}, ValidationError, "merge_interval"),
            ({"shards": 0}, ValidationError, "num_shards"),
            ({"finished_job_ttl": float("inf")}, BrokerError, "finished_job_ttl"),
            ({"max_workers": 0}, BrokerError, "max_workers"),
            ({"cache_capacity": 0}, BrokerError, "cache capacity"),
            (
                {"trace": True, "trace_capacity": 0},
                ValidationError,
                "trace store capacity",
            ),
        ],
        ids=[
            "merge-interval-nan", "shards-0", "finished-job-ttl-inf",
            "max-workers-0", "cache-capacity-0", "trace-capacity-0",
        ],
    )
    def test_bad_core_setting_fails_before_any_spawn(
        self, setting, error, pattern
    ):
        # Each worker builds a RequestCore from these settings, so the
        # gateway rejects them at construction with the error the
        # in-process server raises for the same value.
        broker = BrokerService(all_providers())
        before = len(multiprocessing.active_children())
        with pytest.raises(error, match=pattern) as gateway_error:
            GatewayServer(broker, workers=1, **setting)
        assert len(multiprocessing.active_children()) == before
        with pytest.raises(error) as inprocess_error:
            BrokerServer(broker, **setting)
        assert str(gateway_error.value) == str(inprocess_error.value)

    def test_check_settings_defaults_match_request_core(self):
        # check_settings restates the core's setting defaults; a default
        # that drifted would let the gateway pass a value its workers
        # reject (or the other way round).
        checked = inspect.signature(RequestCore.check_settings).parameters
        built = inspect.signature(RequestCore).parameters
        assert checked, "check_settings takes no settings"
        for name, parameter in checked.items():
            assert name in built, name
            assert parameter.default == built[name].default, name
        RequestCore.check_settings()

    def test_gateway_and_worker_spec_take_no_backend_option(self):
        # There is one evaluation path; no backend travels in the
        # spawn spec.
        names = [
            *inspect.signature(GatewayServer).parameters,
            *(field.name for field in dataclasses.fields(WorkerSpec)),
        ]
        assert not [name for name in names if "backend" in name]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_ingest_backend_is_not_a_server_knob(self, workers):
        # Ingest shards are threads; the knob is gone, and passing it
        # fails in the caller before any worker process starts.
        before = len(multiprocessing.active_children())
        with pytest.raises(TypeError, match="ingest_backend"):
            # close() only runs, and the test fails cleanly, if the
            # knob were still accepted.
            start_in_thread(
                observed_broker(), workers=workers, ingest_backend="thread"
            ).close()
        with pytest.raises(TypeError, match="ingest_backend"):
            GatewayServer(observed_broker(), workers=1, ingest_backend="thread")
        assert len(multiprocessing.active_children()) == before


# -- startup failure ---------------------------------------------------------

class TestWorkerStartupFailure:
    def test_worker_exit_during_startup_is_reported_at_once(self):
        # The gateway rejects shards=0 at construction; slipped into the
        # spawn settings afterwards, it fails the worker's
        # ShardedIngestor, so the worker exits during startup.
        server = GatewayServer(observed_broker(), workers=1)
        server._worker_kwargs["shards"] = 0

        async def start_then_stop():
            try:
                await server.start()
            finally:
                await server.stop()

        started = time.monotonic()
        with pytest.raises(BrokerError, match=r"worker 0 exited .*exitcode 1"):
            asyncio.run(start_then_stop())
        # Well under the 120 s spawn_timeout a silent wait would take.
        assert time.monotonic() - started < 30.0
        assert all(
            not process.is_alive() for process in server._procs.values()
        )


# -- interpreter exit --------------------------------------------------------

UNCLOSED_GATEWAY_SCRIPT = """
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers
from repro.server import start_in_thread

if __name__ == "__main__":
    broker = BrokerService(all_providers())
    broker.observe_all(years=0.2, seed=1)
    handle = start_in_thread(broker, workers=1)
    print("serving", handle.port, flush=True)
"""


class TestInterpreterExit:
    def test_unclosed_gateway_handle_does_not_hang_exit(self, tmp_path):
        # The program returns without closing its handle; the exit hook
        # must close the gateway so multiprocessing's exit-time join of
        # the worker returns.
        script = tmp_path / "unclosed_gateway.py"
        script.write_text(UNCLOSED_GATEWAY_SCRIPT)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        completed = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.startswith("serving ")
        assert "Traceback" not in completed.stderr


# -- worker death and respawn ------------------------------------------------

class TestWorkerRespawn:
    def test_killed_worker_is_detected_and_respawned(self):
        with start_in_thread(observed_broker(), workers=2, shards=2) as handle:
            client = ServerClient(handle.host, handle.port)
            fleet = client.health()["workers"]
            victim = fleet[0]
            os.kill(victim["pid"], signal.SIGKILL)

            # The supervisor notices the EOF, marks the fleet degraded,
            # then respawns into a fresh epoch with a new pid.
            deadline = time.monotonic() + 60.0
            while True:
                health = client.health()
                worker = health["workers"][0]
                if (
                    health["status"] == "ok"
                    and worker["alive"]
                    and worker["epoch"] == victim["epoch"] + 1
                    and worker["pid"] != victim["pid"]
                ):
                    break
                assert time.monotonic() < deadline, health
                time.sleep(0.2)

            # Every partition serves again — distinct pinned-provider
            # requests spread across both workers.
            providers = sorted(p.name for p in all_providers())
            for name in providers:
                report = client.recommend(request(providers=(name,)))
                assert report.best is not None
