"""The telemetry store's generation: every mutation publishes a new one.

Warm replay keys pair a store with its ``generation``, so a mutator that
forgot to bump would let a memoized report outlive the telemetry it was
computed from.  These tests pin that each mutator bumps, that the bump
lands after the mutation is visible, that new stores start fresh, and
that the ingestion pipeline's flush bumps the store requests read.
"""

from __future__ import annotations

import pytest

from repro.broker.telemetry import TelemetryStore
from repro.cloud.events import ResourceEvent, ResourceEventKind
from repro.server.ingest import ExposureRecord, ShardedIngestor


def observed_store() -> TelemetryStore:
    store = TelemetryStore()
    store.register_exposure("p", "vm", 10, 1000.0)
    store.record_failure("p", "vm")
    store.record_outage("p", "vm", 5.0)
    store.record_failover("p", "vm", 2.0)
    return store


def event(kind: ResourceEventKind, duration: float = 0.0) -> ResourceEvent:
    return ResourceEvent(
        time_minutes=1.0,
        provider="p",
        component_kind="vm",
        resource_id="r-1",
        kind=kind,
        duration_minutes=duration,
    )


MUTATORS = {
    "register_exposure": lambda s: s.register_exposure("p", "vm", 2, 60.0),
    "record_failure": lambda s: s.record_failure("p", "vm"),
    "record_outage": lambda s: s.record_outage("p", "vm", 3.0),
    "record_failover": lambda s: s.record_failover("p", "vm", 1.5),
    "ingest": lambda s: s.ingest([event(ResourceEventKind.FAILURE)]),
    "merge": lambda s: s.merge(observed_store()),
    "adopt": lambda s: s.adopt(observed_store()),
}


class TestEveryMutatorBumps:
    def test_a_new_store_starts_at_zero(self):
        assert TelemetryStore().generation == 0

    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_mutator_publishes_a_new_generation(self, name):
        store = observed_store()
        seen = {store.generation}
        for _ in range(3):
            MUTATORS[name](store)
            assert store.generation not in seen
            seen.add(store.generation)

    def test_ingest_bumps_once_per_event(self):
        store = observed_store()
        before = store.generation
        store.ingest(
            [
                event(ResourceEventKind.FAILURE),
                event(ResourceEventKind.REPAIR, 4.0),
                event(ResourceEventKind.FAILOVER, 1.0),
            ]
        )
        assert store.generation == before + 3

    def test_rejected_records_do_not_bump(self):
        store = observed_store()
        before = store.generation
        with pytest.raises(ValueError):
            store.record_outage("p", "vm", -1.0)
        with pytest.raises(ValueError):
            store.register_exposure("p", "vm", 0, 60.0)
        assert store.generation == before

    def test_queries_do_not_bump(self):
        store = observed_store()
        before = store.generation
        store.down_probability("p", "vm")
        store.failover_minutes("p", "vm")
        store.snapshot()
        store.copy()
        assert store.generation == before

    def test_bump_lands_after_the_mutation(self, monkeypatch):
        """A reader that sees the new generation sees the new state."""
        store = observed_store()
        seen = []
        bump = TelemetryStore._bump

        def checking_bump(self):
            seen.append(self.failure_count("p", "vm"))
            bump(self)

        monkeypatch.setattr(TelemetryStore, "_bump", checking_bump)
        store.record_failure("p", "vm")
        assert seen == [2]


class TestFreshStores:
    def test_copy_starts_fresh(self):
        store = observed_store()
        assert store.generation > 0
        copy = store.copy()
        assert copy.generation == 0
        assert copy.snapshot() == store.snapshot()

    def test_from_snapshot_starts_fresh(self):
        store = TelemetryStore.from_snapshot(observed_store().snapshot())
        assert store.generation == 0
        store.record_failure("p", "vm")
        assert store.generation == 1


class TestIngestorFlush:
    def records(self) -> list:
        return [
            ExposureRecord("p", "vm", 10, 1000.0),
            event(ResourceEventKind.FAILURE),
            event(ResourceEventKind.REPAIR, 7.0),
        ]

    def test_flush_bumps_the_serving_store(self):
        serving = observed_store()
        before = serving.generation
        with ShardedIngestor(serving, num_shards=2) as ingestor:
            ingestor.submit(self.records())
            assert serving.generation == before  # not published yet
            assert ingestor.flush() == 3
            assert serving.generation != before
            assert serving.failure_count("p", "vm") == 2

    def test_an_empty_flush_keeps_the_generation(self):
        serving = observed_store()
        before = serving.generation
        with ShardedIngestor(serving, num_shards=2) as ingestor:
            assert ingestor.flush() == 0
        assert serving.generation == before
