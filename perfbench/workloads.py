"""Workload definitions and captured request mixes.

A workload fixes the server the benchmark talks to (serving mode and
synthetic telemetry history) and the traffic it sends.  Its requests and
telemetry records come from ``(workload, seed)`` alone: :func:`build_mix`
generates them, :func:`save_mix` captures the recipe plus a digest of
every generated byte as ``mix.json``, and :func:`load_mix` regenerates the
mix from that file and refuses it if any byte would differ (the
``repeat --from-run`` idiom).  The server receives only these inputs; its
own ``--seed`` is the same integer, so the twin used by the correctness
gate can rebuild the server's telemetry exactly.

Why these three workloads:

- ``warm-hits`` repeats eight already-quoted three-tier contracts against
  20 years of history, so every engine lookup hits and key derivation and
  the HTTP edge do nearly all the work.  Memoizing keys or trimming the
  edge should move it; optimizer changes should not.
- ``cold-search`` sends a never-seen five-cluster, extended-catalog
  contract every time, in fixed shares of pruned, brute-force serial and
  brute-force vector search.  Terms and search dominate; strategy and
  backend changes show here and key work stays a small share.
- ``ingest-mix`` interleaves warm recommends with a fixed-rate telemetry
  stream and periodic flushes through ``serve --workers 2``.  Every flush
  changes the estimates engine keys depend on, so a read-path memo that
  mishandles invalidation fails the gate here, and it is the only workload
  that crosses the gateway, dispatch and the ingest broadcast.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.broker.envelope import RecommendEnvelope
from repro.broker.request import (
    ClusterRequirement,
    RecommendationRequest,
    three_tier_request,
)
from repro.cloud.events import ResourceEvent, ResourceEventKind
from repro.server.ingest import ExposureRecord, records_to_jsonl
from repro.sla.contract import Contract
from repro.topology.cluster import Layer

#: Bump when generation changes, so old captured mixes are refused.
MIX_VERSION = 1

#: Distinct warm contracts cycled by warm-hits and ingest-mix.
WARM_CONTRACTS = 8

#: Strategy shares of cold-search, cycled in this order.
COLD_STRATEGIES = (
    {"strategy": "pruned"},
    {"strategy": "brute-force", "backend": "serial"},
    {"strategy": "brute-force", "backend": "vector"},
)

#: Telemetry records per ``/v2/ingest`` body, and distinct bodies cycled.
CHUNK_RECORDS = 180
CHUNK_POOL = 32

#: Ingest bodies between flushes, open loop and closed loop.
FLUSH_EVERY = 4

#: Ingest bodies in each closed-loop burst, and pool chunks per body.
BURST_BODIES = 8
BURST_BODY_CHUNKS = 10

#: Providers and component kinds the served telemetry covers.
PROVIDERS = ("cumulus", "metalcloud", "stratus")
KINDS = ("vm", "volume", "gateway")

#: Share of ``--seconds`` spent in the open and closed loops; the
#: ingest bursts that follow them are a fixed amount of work.
OPEN_SHARE = 0.65
CLOSED_SHARE = 0.35


@dataclass(frozen=True)
class Workload:
    """The server a workload drives and the traffic it offers."""

    name: str
    workers: int
    observe_years: float
    #: Open-loop recommends per second, about a third of the closed-loop
    #: throughput measured when the workload was defined: below half, so
    #: the host's slow stretches do not turn into queueing in the tail.
    rate: float
    #: Open-loop ingest bodies per second (0: no telemetry while reading).
    ingest_rate: float
    #: Upper bound on closed-loop recommends per second, to size the
    #: pre-serialized pool; a run that exhausts it says so.
    pool_rate: float


WORKLOADS = {
    "warm-hits": Workload("warm-hits", 0, 20.0, 20.0, 0.0, 600.0),
    "cold-search": Workload("cold-search", 0, 3.0, 9.0, 0.0, 200.0),
    "ingest-mix": Workload("ingest-mix", 2, 3.0, 60.0, 4.0, 1500.0),
}


@dataclass
class Mix:
    """Every byte one run may send, generated from (workload, seed)."""

    workload: Workload
    seed: int
    seconds: float
    #: Recommend bodies by index; open-loop first, then the closed pool.
    bodies: list[bytes]
    #: Warm-up bodies sent before timing (verified, never timed).
    warmup: list[bytes]
    #: Post-flush check bodies sent after the last flush.
    final: list[bytes]
    #: Distinct JSONL ingest bodies, cycled; and their record counts.
    chunks: list[bytes]
    chunk_lines: list[int]

    @property
    def open_seconds(self) -> float:
        return self.seconds * OPEN_SHARE

    @property
    def closed_seconds(self) -> float:
        return self.seconds * CLOSED_SHARE

    @property
    def open_requests(self) -> int:
        return int(self.workload.rate * self.open_seconds)

    @property
    def open_chunks(self) -> int:
        return int(self.workload.ingest_rate * self.open_seconds)

    def digest(self) -> str:
        """SHA-256 over every generated body, in a fixed order."""
        sha = hashlib.sha256()
        for group in (self.bodies, self.warmup, self.final, self.chunks):
            sha.update(len(group).to_bytes(8, "big"))
            for body in group:
                sha.update(len(body).to_bytes(8, "big"))
                sha.update(body)
        return sha.hexdigest()


def warm_contracts(seed: int) -> list[Contract]:
    """The eight already-quoted contracts of the warm workloads."""
    rng = random.Random(f"{seed}:warm")
    return [
        Contract.linear(
            round(rng.uniform(97.0, 99.9), 3), round(rng.uniform(50.0, 500.0), 2)
        )
        for _ in range(WARM_CONTRACTS)
    ]


def cold_request(rng: random.Random, index: int) -> RecommendationRequest:
    """A never-seen five-cluster contract; the index keeps it unique.

    Each request quotes one provider, all three in turn and in every
    combination with the strategies: a three-provider quote costs about
    three times as much, too few to resolve a p95 in one run on 2 cores.
    """
    contract = Contract.linear(
        round(rng.uniform(97.5, 99.95), 4),
        round(rng.uniform(100.0, 900.0), 2) + index * 1e-3,
    )
    return RecommendationRequest(
        system_name="five-tier",
        clusters=(
            ClusterRequirement("web", Layer.COMPUTE, 2),
            ClusterRequirement("app", Layer.COMPUTE, 3),
            ClusterRequirement("db", Layer.STORAGE, 1),
            ClusterRequirement("blob", Layer.STORAGE, 1),
            ClusterRequirement("edge", Layer.NETWORK, 1),
        ),
        contract=contract,
        providers=(PROVIDERS[(index // len(COLD_STRATEGIES)) % len(PROVIDERS)],),
        extended_catalog=True,
        **COLD_STRATEGIES[index % len(COLD_STRATEGIES)],
    )


def _body(request: RecommendationRequest, request_id: str) -> bytes:
    return RecommendEnvelope(request, request_id=request_id).to_json().encode()


def telemetry_chunk(rng: random.Random, chunk: int) -> tuple[bytes, int]:
    """One JSONL ingest body over every served (provider, kind).

    Each key gets a day of exposure on a thousand nodes, a few failures
    with their repairs, and one failover latency: every flush moves the
    ``P``, ``f`` and ``t`` estimates (and so every engine key), while the
    failover history that warm requests rescan grows only slowly.
    """
    keys = [(provider, kind) for provider in PROVIDERS for kind in KINDS]
    records: list = [ExposureRecord(p, k, 1000, 1440.0) for p, k in keys]
    events = (CHUNK_RECORDS - 2 * len(keys)) // (2 * len(keys))
    for number, (provider, kind) in enumerate(keys):
        def event(kind_of, duration, offset):
            return ResourceEvent(
                time_minutes=float(chunk * 1440 + offset),
                provider=provider,
                component_kind=kind,
                resource_id=f"r-{(number + offset) % 16}",
                kind=kind_of,
                duration_minutes=duration,
            )

        for offset in range(events):
            records.append(event(ResourceEventKind.FAILURE, 0.0, offset))
            records.append(event(
                ResourceEventKind.REPAIR,
                round(rng.expovariate(1 / 30.0), 3),
                offset,
            ))
        records.append(event(
            ResourceEventKind.FAILOVER, round(rng.uniform(0.5, 9.0), 3), events
        ))
    return records_to_jsonl(records).encode(), len(records)


def build_mix(name: str, seed: int, seconds: float) -> Mix:
    """Generate every body a run of ``name`` may send."""
    workload = WORKLOADS[name]
    pool = int(workload.rate * seconds * OPEN_SHARE) + int(
        workload.pool_rate * seconds * CLOSED_SHARE
    ) + 1
    bodies: list[bytes] = []
    if name == "cold-search":
        rng = random.Random(f"{seed}:cold")
        for index in range(pool):
            bodies.append(_body(cold_request(rng, index), f"cs-{index:06d}"))
        warmup = [
            _body(cold_request(rng, pool + index), f"cs-warm-{index}")
            for index in range(len(COLD_STRATEGIES))
        ]
        final = [_body(cold_request(rng, pool + len(warmup)), "cs-final")]
    else:
        contracts = [three_tier_request(c) for c in warm_contracts(seed)]
        tag = "wh" if name == "warm-hits" else "im"
        for index in range(pool):
            request = contracts[index % len(contracts)]
            bodies.append(_body(request, f"{tag}-{index:06d}"))
        warmup = [
            _body(request, f"{tag}-warm-{which}")
            for which, request in enumerate(contracts)
        ]
        final = [
            _body(request, f"{tag}-final-{which}")
            for which, request in enumerate(contracts)
        ]
    rng = random.Random(f"{seed}:ingest")
    chunks, chunk_lines = [], []
    for chunk in range(CHUNK_POOL):
        body, lines = telemetry_chunk(rng, chunk)
        chunks.append(body)
        chunk_lines.append(lines)
    return Mix(workload, seed, seconds, bodies, warmup, final, chunks, chunk_lines)


def save_mix(mix: Mix, path: Path) -> None:
    """Capture the recipe and digest of a mix as ``mix.json``."""
    payload = {
        "mix_version": MIX_VERSION,
        "workload": asdict(mix.workload),
        "seed": mix.seed,
        "seconds": mix.seconds,
        "requests": len(mix.bodies),
        "chunks": len(mix.chunks),
        "digest": mix.digest(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_mix(path: Path) -> Mix:
    """Regenerate a captured mix; refuse it if any byte would differ."""
    payload = json.loads(path.read_text())
    if payload.get("mix_version") != MIX_VERSION:
        raise SystemExit(
            f"{path}: mix_version {payload.get('mix_version')!r}, "
            f"this benchmark generates version {MIX_VERSION}"
        )
    name = payload["workload"]["name"]
    if payload["workload"] != asdict(WORKLOADS[name]):
        raise SystemExit(f"{path}: workload {name!r} was defined differently")
    mix = build_mix(name, int(payload["seed"]), float(payload["seconds"]))
    if mix.digest() != payload["digest"]:
        raise SystemExit(f"{path}: regenerated mix does not match its digest")
    return mix
