"""The traced run: per-layer timings from calls into each layer.

The layers run in this process (``start_in_thread``), and
:class:`LayerClock` wraps the public functions named below while a traced
op is in flight.  Ops go out one at a time on one connection, so every
wrapped call during an exchange belongs to that exchange.  Recommends
alternate traced and untraced (:func:`_traced`);
``trace.overhead_ratio`` compares the two halves of the same stream, so
history growth and drift cancel.

Layer (the ``src/repro`` module) and what is timed:

- ``client``: :meth:`ServerClient.request_raw` round trip.
- ``server``: the edge, round trip minus
  :meth:`BrokerSession.recommend_envelope`; the gateway, ``--workers 2``
  round trip minus the in-process one for the same ops.
- ``broker``: :meth:`RecommendEnvelope.from_json` and
  :meth:`ReportEnvelope.to_json`; key derivation
  (:meth:`BrokerService.materialize_topology`, the
  :meth:`KnowledgeBase.estimate` calls outside it, :meth:`EngineKey.build`);
  :meth:`EngineCache.entry` minus the engine build.
- ``optimizer``: :class:`EvaluationEngine` construction (terms, per
  engine built, warm-up included) and the strategy call (search).
- ``telemetry``: ``/v2/ingest`` and ``/v2/ingest/flush`` round trips and
  :meth:`TelemetryStore.merge` / :meth:`TelemetryStore.adopt`.
"""

from __future__ import annotations

import collections
import contextlib
import signal
import threading
import time

from repro.broker import service
from repro.broker.api import BrokerSession, EngineCache, EngineKey
from repro.broker.envelope import RecommendEnvelope, ReportEnvelope
from repro.broker.knowledge_base import KnowledgeBase
from repro.broker.service import BrokerService
from repro.broker.telemetry import TelemetryStore
from repro.cloud.providers import all_providers
from repro.optimizer.engine import EvaluationEngine
from repro.server import start_in_thread

import gate
import loadgen as lg
from report import Outcome, metric, percentile
from workloads import BURST_BODIES, WARM_CONTRACTS

#: Share of ``--seconds`` in the traced stream; the gateway replays the
#: first half of it.
TRACED_SHARE = 0.6


class LayerClock:
    """Per-layer seconds and counts for the exchange in flight."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.sample: collections.Counter = collections.Counter()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.sample[name] += value

    def take(self) -> collections.Counter:
        with self._lock:
            sample, self.sample = self.sample, collections.Counter()
        return sample

    def timed(self, name: str, function):
        """``function`` with its wall time added to ``name``."""
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - start)
        return wrapper

    def install(self):
        """Wrap every timed layer function; returns the undo callable."""
        undo = []

        def patch(owner, name, wrapper):
            undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, wrapper)

        clock, local = self, self._local
        from_json = RecommendEnvelope.__dict__["from_json"].__func__
        build = EngineKey.__dict__["build"].__func__
        materialize = BrokerService.materialize_topology
        estimate = KnowledgeBase.estimate
        entry = EngineCache.entry

        def timed_materialize(*args, **kwargs):
            local.inside = True
            try:
                return clock.timed("key", materialize)(*args, **kwargs)
            finally:
                local.inside = False

        def timed_estimate(*args, **kwargs):
            clock.add("estimate_calls", 1)
            if getattr(local, "inside", False):
                return estimate(*args, **kwargs)
            return clock.timed("key", estimate)(*args, **kwargs)

        def timed_entry(cache, key, factory):
            built = []

            def timed_factory():
                start = time.perf_counter()
                try:
                    return factory()
                finally:
                    built.append(time.perf_counter() - start)

            start = time.perf_counter()
            try:
                return entry(cache, key, timed_factory)
            finally:
                clock.add("lookup", time.perf_counter() - start - sum(built))
                clock.add("lookups", 1)
                clock.add("misses", len(built))

        def timed_strategy(strategy):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = strategy(*args, **kwargs)
                clock.add("search", time.perf_counter() - start)
                clock.add("evaluations", result.evaluations)
                return result
            return wrapper

        patch(BrokerSession, "recommend_envelope",
              self.timed("recommend", BrokerSession.recommend_envelope))
        patch(RecommendEnvelope, "from_json",
              classmethod(self.timed("parse", from_json)))
        patch(ReportEnvelope, "to_json", self.timed("serialize", ReportEnvelope.to_json))
        patch(BrokerService, "materialize_topology", timed_materialize)
        patch(KnowledgeBase, "estimate", timed_estimate)
        patch(EngineKey, "build", classmethod(self.timed("key", build)))
        patch(EngineCache, "entry", timed_entry)
        patch(EvaluationEngine, "__init__", self.timed("terms", EvaluationEngine.__init__))
        patch(TelemetryStore, "merge", self.timed("merge", TelemetryStore.merge))
        patch(TelemetryStore, "adopt", self.timed("merge", TelemetryStore.adopt))
        strategies = dict(service._STRATEGY_FUNCTIONS)
        for name, strategy in strategies.items():
            service._STRATEGY_FUNCTIONS[name] = timed_strategy(strategy)

        def restore() -> None:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
            service._STRATEGY_FUNCTIONS.update(strategies)

        return restore


@contextlib.contextmanager
def _sigterm_held():
    """Hold SIGTERM until the block ends, then act on it."""
    held = []
    previous = signal.signal(signal.SIGTERM, lambda *args: held.append(args))
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
        if held and callable(previous):
            previous(*held[0])


@contextlib.contextmanager
def _hosted(mix, workers: int):
    """A server hosted here, closed on every way out of the block.

    SIGTERM is held while it starts: until ``start_in_thread`` returns
    there is no handle to close, so a termination then would leave the
    server, and a gateway's worker processes, running.
    """
    broker = BrokerService(all_providers())
    broker.observe_all(years=mix.workload.observe_years, seed=mix.seed)
    handle = None
    try:
        with _sigterm_held():
            handle = start_in_thread(
                broker, workers=workers,
                merge_interval=float(lg.MERGE_INTERVAL),
                cache_capacity=int(lg.CACHE_CAPACITY),
            )
        yield broker, lg.new_client(handle.host, handle.port)
    finally:
        if handle is not None:
            handle.close()


def _stream(mix, seconds: float) -> list[tuple[float, lg.Op]]:
    """The open-loop schedule merged into one lane for ``seconds``.

    Slowed by ``nproc`` so the single connection carries the load each
    connection of the untraced run carries.
    """
    stretch = lg.nproc()
    return [
        (offset * stretch, op) for offset, op in lg.open_loop_schedule(mix)
        if offset * stretch < seconds
    ]


def _traced(number: int) -> bool:
    """Whether recommend ``number`` of a stream is traced.

    Parity flips every :data:`WARM_CONTRACTS` recommends, so each warm
    contract, cycled by index, is traced as often as it is not.
    """
    return (number // WARM_CONTRACTS + number) % 2 == 1


def _drive(client, schedule, clock: LayerClock | None, traced_when=_traced):
    """Send one op at a time at its due time; returns (record, sample, traced).

    Recommend number ``n`` of the schedule is traced when
    ``traced_when(n)``; every other op is traced whenever ``clock`` is set.
    """
    rows = []
    start = time.perf_counter() + 0.05
    recommend_number = 0
    for offset, op in schedule:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        traced = clock is not None and (
            op.kind != "recommend" or traced_when(recommend_number)
        )
        if op.kind == "recommend":
            recommend_number += 1
        restore = clock.install() if traced else None
        if clock is not None:
            clock.take()
        try:
            record = lg.send(client, op, due)
        finally:
            sample = clock.take() if clock is not None else None
            if restore is not None:
                restore()
        rows.append((record, sample, traced))
    return rows


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run_traced(mix) -> Outcome:
    """Host the layers here, time them, and verify every response."""
    workload = mix.workload
    seconds = mix.seconds * TRACED_SHARE
    schedule = _stream(mix, seconds)
    clock = LayerClock()

    with _hosted(mix, workers=0) as (broker, client):
        # The warm-up builds every warm engine, so it is traced whole: on
        # warm-hits it holds the only misses, and so the only terms work.
        warm = _drive(
            client,
            [(0.0, lg.recommend_op(body, lg.WARMUP)) for body in mix.warmup],
            clock, traced_when=lambda _: True,
        )
        log = [record for record, _, _ in warm]
        rows = _drive(client, schedule, clock)
        lags = [record.lag * 1e3 for record, _, _ in rows]
        burst = lg.burst_ops(mix, BURST_BODIES, mix.open_chunks)
        # Sent back to back (all due at once), so kept out of the lag.
        rows += _drive(client, [(0.0, op) for op in burst], clock)
        final = lg.send_all(
            client, [lg.recommend_op(body, lg.FINAL) for body in mix.final]
        )
        failover_samples = sum(
            len(component["failover_samples"])
            for component in broker.telemetry.snapshot()["components"]
        )
    log += [row[0] for row in rows] + final

    replay = [item for item in schedule if item[0] < seconds / 2]
    with _hosted(mix, workers=2) as (_, gateway_client):
        gateway_log = lg.send_all(
            gateway_client,
            [lg.recommend_op(body, lg.WARMUP) for body in mix.warmup],
        )
        gateway_rows = _drive(gateway_client, replay, None)
    gateway_log += [row[0] for row in gateway_rows]

    failures, torn = gate.verify(workload, mix.seed, log)
    gateway_failures, gateway_torn = gate.verify(workload, mix.seed, gateway_log)
    failures.update(gateway_failures)

    recommends = [row for row in rows if row[0].op.kind == "recommend"]
    traced = [(r, s) for r, s, t in recommends if t and id(r) not in failures]
    plain = [r for r, _, t in recommends if not t and id(r) not in failures]
    ingests = [(r, s) for r, s, _ in rows if r.op.kind == "ingest"]
    flushes = [(r, s) for r, s, _ in rows if r.op.kind == "flush"]

    def per_request(name: str) -> float:
        return _mean(sample[name] * 1e3 for _, sample in traced)

    rtt = _mean(r.rtt * 1e3 for r, _ in traced)
    edge = _mean((r.rtt - s["recommend"]) * 1e3 for r, s in traced)
    named = edge + sum(
        per_request(name) for name in ("key", "lookup", "terms", "search")
    )
    search_seconds = sum(s["search"] for _, s in traced)
    evaluations = sum(s["evaluations"] for _, s in traced)
    lookups = sum(s["lookups"] for _, s in traced)
    hits = lookups - sum(s["misses"] for _, s in traced)
    # Engines are built on misses only; terms time is per engine built.
    built = [s for _, s in traced] + [
        s for r, s, _ in warm if id(r) not in failures
    ]
    misses = sum(s["misses"] for s in built)
    plain_rtt = {r.op.index: r.rtt for r in plain}
    gateway_gap = [
        (r.rtt - plain_rtt[r.op.index]) * 1e3
        for r, _, _ in gateway_rows
        if r.op.kind == "recommend" and r.op.index in plain_rtt
        and id(r) not in failures
    ]

    metrics = {
        "client.rtt_ms": metric(rtt, "ms"),
        "server.edge_ms": metric(edge, "ms"),
        "server.gateway_ms": metric(_mean(gateway_gap), "ms"),
        "broker.envelope.parse_ms": metric(per_request("parse"), "ms"),
        "broker.envelope.serialize_ms": metric(per_request("serialize"), "ms"),
        "broker.key_ms": metric(per_request("key"), "ms"),
        "broker.estimate_calls": metric(
            _mean(s["estimate_calls"] for _, s in traced), "count"
        ),
        "broker.cache_lookup_ms": metric(per_request("lookup"), "ms"),
        "broker.cache_hit_ratio": metric(hits / lookups if lookups else 0.0, "ratio"),
        "optimizer.terms_ms": metric(
            sum(s["terms"] for s in built) * 1e3 / misses if misses else 0.0, "ms"
        ),
        "optimizer.search_ms": metric(per_request("search"), "ms"),
        "optimizer.evaluations": metric(
            _mean(s["evaluations"] for _, s in traced), "count"
        ),
        "optimizer.evals_per_s": metric(
            evaluations / search_seconds if search_seconds else 0.0, "1/s"
        ),
        "telemetry.ingest_ms": metric(_mean(r.rtt * 1e3 for r, _ in ingests), "ms"),
        "telemetry.flush_ms": metric(_mean(r.rtt * 1e3 for r, _ in flushes), "ms"),
        "telemetry.merge_ms": metric(_mean(s["merge"] * 1e3 for _, s in flushes), "ms"),
        "telemetry.failover_samples": metric(failover_samples, "count"),
        "trace.attributed_ratio": metric(named / rtt if rtt else 0.0, "ratio"),
        "trace.overhead_ratio": metric(
            rtt / _mean(r.rtt * 1e3 for r in plain) if plain else 0.0, "ratio"
        ),
        "loadgen.lag_p95_ms": metric(percentile(lags, 0.95), "ms"),
    }
    per_request_count = len(traced)
    samples = {name: per_request_count for name in metrics}
    samples.update({
        "server.gateway_ms": len(gateway_gap),
        "optimizer.terms_ms": misses,
        "telemetry.ingest_ms": len(ingests),
        "telemetry.flush_ms": len(flushes),
        "telemetry.merge_ms": len(flushes),
        "telemetry.failover_samples": 1,
        "trace.overhead_ratio": len(plain),
        "loadgen.lag_p95_ms": len(lags),
    })
    details = {
        "untraced_requests": len(plain),
        "torn_reads": torn + gateway_torn,
        "connections": 1,
    }
    attempted = len(log) + len(gateway_log)
    return Outcome(metrics, samples, details, attempted, failures, log)
