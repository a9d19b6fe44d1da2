"""Sharded telemetry ingestion: partitioning, exactness, merging.

The load-bearing guarantee: because records partition on the store's own
accumulation key, a drained sharded pipeline must reproduce single-store
ingestion bit-for-bit — same ``P̂``, ``f̂`` and ``t̂`` for every component
class, at any shard count.
"""

from __future__ import annotations

import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.telemetry import TelemetryStore
from repro.cloud.events import ResourceEvent, ResourceEventKind
from repro.cloud.faults import FaultInjector
from repro.cloud.providers import all_providers
from repro.errors import ValidationError
from repro.server.ingest import (
    RECORD_KINDS,
    ExposureRecord,
    ShardedIngestor,
    _decode_line,
    record_from_dict,
    record_to_dict,
    record_to_json,
    records_from_jsonl,
    records_to_jsonl,
    shard_index,
)
from repro.units import MINUTES_PER_YEAR

HORIZON = 2 * MINUTES_PER_YEAR


def simulation_trace(seed: int = 3) -> list:
    """Exposure + fault-injector records across every built-in provider."""
    records: list = []
    for provider in all_providers():
        resources = []
        for kind, count in (("vm", 10), ("volume", 6), ("gateway", 3)):
            card = provider.rate_card
            sku = {
                "vm": card.instance_types[0].name,
                "volume": card.volume_types[0].name,
                "gateway": card.gateway_types[0].name,
            }[kind]
            for _ in range(count):
                if kind == "volume":
                    resources.append(provider.provision_volume(sku, role="t"))
                elif kind == "gateway":
                    resources.append(provider.provision_gateway(sku, role="t"))
                else:
                    resources.append(provider.provision_vm(sku, role="t"))
            records.append(ExposureRecord(provider.name, kind, count, HORIZON))
        records.extend(
            FaultInjector(provider, seed=seed).inject(
                resources, horizon_minutes=HORIZON
            )
        )
    return records


def ingest_directly(records) -> TelemetryStore:
    """Reference behaviour: one store, records applied in order."""
    store = TelemetryStore()
    for record in records:
        if isinstance(record, ExposureRecord):
            store.register_exposure(
                record.provider,
                record.component_kind,
                record.node_count,
                record.horizon_minutes,
            )
        else:
            store.ingest((record,))
    return store


def assert_estimates_identical(store: TelemetryStore, reference: TelemetryStore):
    components = reference.observed_components()
    assert store.observed_components() == components
    for provider, kind in components:
        assert store.down_probability(provider, kind) == (
            reference.down_probability(provider, kind)
        ), (provider, kind)
        assert store.failures_per_year(provider, kind) == (
            reference.failures_per_year(provider, kind)
        ), (provider, kind)
        assert store.failover_minutes(provider, kind) == (
            reference.failover_minutes(provider, kind)
        ), (provider, kind)


class TestRecordWireFormat:
    def test_event_round_trip(self):
        event = ResourceEvent(
            12.5, "metalcloud", "vm", "vm-1", ResourceEventKind.REPAIR, 30.0
        )
        assert record_from_dict(record_to_dict(event)) == event

    def test_exposure_round_trip(self):
        record = ExposureRecord("metalcloud", "volume", 12, 525600.0)
        assert record_from_dict(record_to_dict(record)) == record

    def test_jsonl_round_trip(self):
        records = simulation_trace()[:50]
        assert records_from_jsonl(records_to_jsonl(records)) == records

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown telemetry record kind"):
            record_from_dict({"kind": "reboot", "provider": "p"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown telemetry record keys"):
            record_from_dict(
                {"kind": "exposure", "provider": "p", "component_kind": "vm",
                 "node_count": 1, "horizon_minutes": 1.0, "typo": True}
            )

    def test_jsonl_errors_carry_line_numbers(self):
        good = records_to_jsonl(simulation_trace()[:2]).splitlines()
        text = "\n".join([good[0], "{broken", good[1]])
        with pytest.raises(ValidationError, match="line 2"):
            records_from_jsonl(text)


class TestPartitioning:
    def test_shard_index_is_stable_and_in_range(self):
        for shards in (1, 2, 4, 8):
            for provider in ("a", "b", "metalcloud"):
                for kind in ("vm", "volume"):
                    index = shard_index(provider, kind, shards)
                    assert 0 <= index < shards
                    assert index == shard_index(provider, kind, shards)

    def test_every_key_maps_to_one_shard(self):
        records = simulation_trace()
        seen: dict[tuple[str, str], int] = {}
        for record in records:
            payload = record_to_dict(record)
            key = (payload["provider"], payload["component_kind"])
            index = shard_index(*key, 4)
            assert seen.setdefault(key, index) == index


class TestShardedIngestion:
    @pytest.fixture(scope="class")
    def trace(self):
        return simulation_trace()

    @pytest.fixture(scope="class")
    def reference(self, trace):
        return ingest_directly(trace)

    @pytest.mark.parametrize("shards", [1, 4, 7])
    def test_sharded_equals_single_store(self, trace, reference, shards):
        """The acceptance criterion: N>=4 shards, estimates identical."""
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=shards) as ingestor:
            assert ingestor.submit(trace) == len(trace)
            merged = ingestor.flush()
        assert merged == len(trace)
        assert_estimates_identical(serving, reference)

    def test_jsonl_path_equals_single_store(self, trace, reference):
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=4) as ingestor:
            ingestor.submit_jsonl(records_to_jsonl(trace))
            ingestor.flush()
        assert_estimates_identical(serving, reference)

    @pytest.mark.parametrize("shards", [1, 4, 7])
    def test_duplicate_keys_route_by_the_recorded_value(self, shards):
        """A repeated key is recorded, and so routed, by its last value."""
        lines = [
            exposure_line("b"),
            '{"kind": "failover", "provider": "a", "provider": "b", '
            '"component_kind": "vm", "resource_id": "x", '
            '"time_minutes": 0.0, "duration_minutes": 2.0}',
            event_line("failover", provider="b", duration="1.0"),
        ]
        reference = ingest_directly(records_from_jsonl("\n".join(lines)))
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=shards) as ingestor:
            ingestor.submit_jsonl(lines)
            assert ingestor.flush() == 3
        assert serving.snapshot() == reference.snapshot()
        (component,) = serving.snapshot()["components"]
        assert component["failover_samples"] == [2.0, 1.0]

    def test_concurrent_submitters_lose_no_record(self, trace, monkeypatch):
        """Racing routers (and a churning shard memo) drop nothing."""
        import sys
        import threading

        from repro.server import ingest

        monkeypatch.setattr(ingest, "_SHARD_MEMO_CAP", 2)
        # One submitter per provider: disjoint keys make per-key order,
        # and so the merged snapshot, independent of the interleaving.
        by_provider: dict[str, list] = {}
        for record in trace:
            by_provider.setdefault(record.provider, []).append(record)
        bodies = {
            provider: [
                records_to_jsonl(records[start:start + 25])
                for start in range(0, len(records), 25)
            ]
            for provider, records in by_provider.items()
        }
        serving = TelemetryStore()
        errors: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedIngestor(serving, num_shards=3) as ingestor:

                def submit_all(texts):
                    try:
                        for text in texts:
                            ingestor.submit_jsonl(text)
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=submit_all, args=(texts,))
                    for texts in bodies.values()
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert ingestor.flush() == len(trace)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert serving.snapshot() == ingest_directly(trace).snapshot()

    def test_multiple_submissions_and_flushes(self, trace, reference):
        """Incremental merges land; estimates agree to float rounding."""
        serving = TelemetryStore()
        third = len(trace) // 3
        with ShardedIngestor(serving, num_shards=4) as ingestor:
            for start in range(0, len(trace), third):
                ingestor.submit(trace[start:start + third])
                ingestor.flush()
        for provider, kind in reference.observed_components():
            assert serving.down_probability(provider, kind) == pytest.approx(
                reference.down_probability(provider, kind), rel=1e-12
            )
            assert serving.failures_per_year(provider, kind) == pytest.approx(
                reference.failures_per_year(provider, kind), rel=1e-12
            )

    def test_close_performs_final_flush(self, trace, reference):
        serving = TelemetryStore()
        ingestor = ShardedIngestor(serving, num_shards=4)
        ingestor.submit(trace)
        ingestor.close()
        assert_estimates_identical(serving, reference)
        with pytest.raises(ValidationError, match="closed"):
            ingestor.submit(trace[:1])

    def test_periodic_merge_publishes_without_explicit_flush(self, trace):
        import time

        serving = TelemetryStore()
        with ShardedIngestor(
            serving, num_shards=2, merge_interval=0.05
        ) as ingestor:
            ingestor.submit(trace)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if serving.observed_components():
                    break
                time.sleep(0.02)
            assert serving.observed_components()
            assert ingestor.merges >= 1

    def test_idle_flush_skips_the_merge_entirely(self):
        serving = TelemetryStore()
        serving.register_exposure("p", "vm", 1, 100.0)
        with ShardedIngestor(serving, num_shards=2) as ingestor:
            assert ingestor.flush() == 0
            assert ingestor.merges == 0  # no copy/adopt churn when idle
        assert serving.exposure_years("p", "vm") > 0.0

    def test_rejected_records_are_counted_not_fatal(self):
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=2) as ingestor:
            ingestor.submit_jsonl(
                '{"kind": "exposure", "provider": "p", "component_kind": "vm",'
                ' "node_count": 1, "horizon_minutes": 100.0}\n'
                '{"kind": "exposure", "provider": "p", "component_kind": "vm",'
                ' "node_count": 0, "horizon_minutes": 100.0}\n'
            )
            ingestor.flush()
            stats = ingestor.shard_stats()
        assert sum(s.ingested for s in stats) == 1
        assert sum(s.rejected for s in stats) == 1
        assert serving.exposure_years("p", "vm") > 0.0

    def test_unroutable_line_rejected_synchronously(self):
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=2) as ingestor:
            with pytest.raises(ValidationError, match="line 1"):
                ingestor.submit_jsonl('{"kind": "exposure"}')

    def test_metrics_shape(self, trace):
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=3) as ingestor:
            ingestor.submit(trace)
            ingestor.flush()
            metrics = ingestor.metrics()
        assert metrics["num_shards"] == 3
        assert "backend" not in metrics
        assert metrics["merges"] == 1
        assert len(metrics["shards"]) == 3
        assert sum(entry["ingested"] for entry in metrics["shards"]) == len(trace)

    def test_dead_shard_times_out_instead_of_wedging(self):
        from repro.errors import BrokerError

        serving = TelemetryStore()
        ingestor = ShardedIngestor(serving, num_shards=2, flush_timeout=0.2)
        ingestor.submit([ExposureRecord("p", "vm", 1, 100.0)])
        # Simulate a crashed worker: stop shard 0 behind the router's back.
        ingestor._shards[0].in_queue.put(("stop", None))
        import time

        time.sleep(0.05)
        with pytest.raises(BrokerError, match="did not answer a flush"):
            ingestor.flush()
        # The healthy shard's delta was still published, and close()
        # stops the survivors even though its final flush fails too.
        with pytest.raises(BrokerError):
            ingestor.close()

    def test_late_flush_reply_is_merged_not_misattributed(self):
        # A reply from a timed-out flush arriving late must be merged
        # (its delta is real data) and must not satisfy the next flush's
        # wait — the sequence tag resynchronizes the stream.
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=1) as ingestor:
            late = TelemetryStore()
            late.register_exposure("p", "vm", 1, 100.0)
            ingestor._shards[0].out_queue.put((0, 1, 0, late))
            ingestor.submit([ExposureRecord("p", "vm", 1, 100.0)])
            merged = ingestor.flush()
            assert merged == 2  # the late delta plus the current one
            assert serving.exposure_years("p", "vm") == pytest.approx(
                200.0 / MINUTES_PER_YEAR
            )

    def test_validation_of_constructor_inputs(self):
        store = TelemetryStore()
        with pytest.raises(ValidationError, match="num_shards"):
            ShardedIngestor(store, num_shards=0)
        # NaN slips past a bare `<= 0` and would kill the merge timer.
        for value in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="merge_interval"):
                ShardedIngestor(store, merge_interval=value)
            with pytest.raises(ValidationError, match="flush_timeout"):
                ShardedIngestor(store, flush_timeout=value)

    @pytest.mark.parametrize(
        "kwargs", [{"backend": "thread"}, {"batch_size": 2048}]
    )
    def test_removed_knobs_are_type_errors(self, kwargs):
        # Shards are threads and take a whole batch per command.
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            ShardedIngestor(TelemetryStore(), **kwargs)

    def test_flush_hands_over_the_shard_store(self):
        # A flush reply carries the shard's private store itself, and
        # the shard records into a fresh one from then on.
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=1) as ingestor:
            shard = ingestor._shards[0]
            ingestor.submit([ExposureRecord("p", "vm", 1, 100.0)])
            shard.in_queue.put(("flush", 0))
            _, ingested, _, first = shard.out_queue.get(timeout=10.0)
            ingestor.submit([ExposureRecord("p", "vm", 1, 50.0)])
            shard.in_queue.put(("flush", 0))
            _, _, _, second = shard.out_queue.get(timeout=10.0)
        assert ingested == 1
        assert first.exposure_years("p", "vm") == pytest.approx(
            100.0 / MINUTES_PER_YEAR
        )
        assert second.exposure_years("p", "vm") == pytest.approx(
            50.0 / MINUTES_PER_YEAR
        )


def exposure_line(provider="p", kind="vm", node_count="1", horizon="100.0"):
    return (
        f'{{"kind": "exposure", "provider": "{provider}", '
        f'"component_kind": "{kind}", "node_count": {node_count}, '
        f'"horizon_minutes": {horizon}}}'
    )


def event_line(kind="repair", provider="p", component="vm", duration="5.0"):
    return (
        f'{{"kind": "{kind}", "provider": "{provider}", '
        f'"component_kind": "{component}", "resource_id": "r-1", '
        f'"time_minutes": 1.0, "duration_minutes": {duration}}}'
    )


def flushed_counts(ingestor: ShardedIngestor) -> tuple[int, int]:
    stats = ingestor.shard_stats()
    return sum(s.ingested for s in stats), sum(s.rejected for s in stats)


class TestBadLines:
    def test_bad_number_does_not_kill_a_shard(self):
        serving = TelemetryStore()
        valid = [exposure_line(), event_line(), event_line("failover")]
        with ShardedIngestor(serving, num_shards=4, flush_timeout=30.0) as ing:
            assert ing.submit_jsonl([exposure_line(node_count='"abc"'), *valid]) == 4
            started = time.monotonic()
            merged = ing.flush()
            assert time.monotonic() - started < 1.0
            assert merged == len(valid)
            assert flushed_counts(ing) == (len(valid), 1)
            # The shard still applies later records for the same key.
            ing.submit_jsonl([event_line("failover", duration="7.0")])
            assert ing.flush() == 1
        assert serving.failover_minutes("p", "vm") == 6.0

    def test_any_apply_error_is_counted_and_logged_on_the_shard(self, caplog):
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=1, flush_timeout=5.0) as ing:
            ing._shards[0].in_queue.put(("records", [object()]))
            ing.submit([ExposureRecord("p", "vm", 1, 100.0)])
            assert ing.flush() == 1
            assert flushed_counts(ing) == (1, 1)
        assert "could not apply" in caplog.text

    @pytest.mark.parametrize(
        "line",
        [
            event_line(duration="NaN"),
            event_line("failover", duration="Infinity"),
            exposure_line(horizon="Infinity"),
            exposure_line(horizon="NaN"),
            exposure_line(node_count="NaN"),
            exposure_line(node_count="Infinity"),
            exposure_line(node_count="1" + "0" * 400),
            exposure_line(node_count="10", horizon="1e308"),
            event_line().replace('"time_minutes": 1.0', '"time_minutes": -Infinity'),
        ],
    )
    def test_non_finite_wire_values_are_rejected(self, line):
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=4) as ing:
            ing.submit_jsonl([exposure_line(), line, event_line()])
            assert ing.flush() == 2
            assert flushed_counts(ing) == (2, 1)
        assert serving.down_probability("p", "vm") == 5.0 / 100.0
        assert math.isfinite(serving.exposure_years("p", "vm"))
        with pytest.raises(ValidationError, match="line 1"):
            records_from_jsonl(line)

    @pytest.mark.parametrize(
        "line",
        [
            exposure_line(node_count="2.9"),
            exposure_line(node_count="2.0"),
            exposure_line(node_count="true"),
            exposure_line(node_count='"2"'),
            exposure_line(horizon='"100"'),
            exposure_line(horizon="false"),
            event_line(duration='"5.0"'),
            event_line(duration="true"),
            event_line().replace('"time_minutes": 1.0', '"time_minutes": "1.0"'),
            event_line().replace('"time_minutes": 1.0', '"time_minutes": true'),
        ],
    )
    def test_numeric_fields_of_the_wrong_json_type_are_rejected(self, line):
        # Numbers are checked, not coerced: 2.9 nodes is not 2, true is
        # not 1 and "100" is not 100.0.
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=4) as ing:
            ing.submit_jsonl([exposure_line(), line, event_line()])
            assert ing.flush() == 2
            assert flushed_counts(ing) == (2, 1)
        assert serving.down_probability("p", "vm") == 5.0 / 100.0
        with pytest.raises(ValidationError, match="line 2: .* must be") as info:
            records_from_jsonl("\n".join([exposure_line(), line]))
        assert "telemetry record" in str(info.value)

    def test_integral_json_numbers_are_accepted_where_floats_are(self):
        lines = [
            exposure_line(node_count="3", horizon="100"),
            event_line(duration="5").replace(
                '"time_minutes": 1.0', '"time_minutes": 1'
            ),
        ]
        exposure, event = records_from_jsonl("\n".join(lines))
        assert (exposure.node_count, exposure.horizon_minutes) == (3, 100.0)
        assert type(exposure.horizon_minutes) is float
        assert (event.time_minutes, event.duration_minutes) == (1.0, 5.0)
        assert type(event.duration_minutes) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_python_values_are_refused(self, bad):
        store = TelemetryStore()
        with pytest.raises(ValidationError, match="finite"):
            store.register_exposure("p", "vm", 1, bad)
        with pytest.raises(ValidationError, match="finite"):
            store.register_exposure("p", "vm", bad, 100.0)
        with pytest.raises(ValidationError, match="finite"):
            store.record_outage("p", "vm", bad)
        with pytest.raises(ValidationError, match="finite"):
            store.record_failover("p", "vm", bad)
        for kind in ResourceEventKind:
            with pytest.raises(ValidationError, match="finite"):
                ResourceEvent(1.0, "p", "vm", "r", kind, bad)
            with pytest.raises(ValidationError, match="finite"):
                ResourceEvent(bad, "p", "vm", "r", kind, 1.0)
        with pytest.raises(ValidationError, match="finite"):
            ExposureRecord("p", "vm", 1, bad)
        assert store.observed_components() == ()
        assert store.generation == 0

    def test_non_string_provider_is_rejected_not_recorded(self):
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=4) as ing:
            ing.submit_jsonl([exposure_line(), exposure_line().replace('"p"', "5")])
            assert ing.flush() == 1
            assert flushed_counts(ing) == (1, 1)
        assert serving.observed_components() == (("p", "vm"),)

    def test_unroutable_line_enqueues_nothing(self):
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=2) as ing:
            with pytest.raises(ValidationError, match="line 3"):
                ing.submit_jsonl([exposure_line(), "", "[1, 2]"])
            assert ing.flush() == 0
            assert sum(s.submitted for s in ing.shard_stats()) == 0


class TestLineDecoder:
    json_text = st.recursive(
        st.none() | st.booleans() | st.floats() | st.integers() | st.text(),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ).map(json.dumps)

    @given(
        body=json_text
        | st.text(alphabet='{}[]":, \t\r\n0123456789.eE+-aNItrufl\ufeff'),
        prefix=st.sampled_from(["", " ", "\t\r", "\ufeff", "x"]),
        suffix=st.sampled_from(["", " ", "\n ", "}", " 1", "x"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_accepts_and_rejects_exactly_like_json_loads(self, body, prefix, suffix):
        line = prefix + body + suffix

        def outcome(decode):
            try:
                return "ok", repr(decode(line))
            except ValueError as exc:
                return type(exc).__name__, str(exc)

        assert outcome(_decode_line) == outcome(json.loads)


# -- mixed lines against a single-store reference ---------------------------

mixed_keys = st.sampled_from(
    [("a", "vm"), ("a", "volume"), ("b", "vm"), ("c", "gateway")]
)
finite_minutes = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def valid_records(draw):
    provider, kind = draw(mixed_keys)
    which = draw(st.sampled_from(RECORD_KINDS))
    if which == "exposure":
        return ExposureRecord(
            provider, kind, draw(st.integers(1, 1000)),
            draw(st.floats(min_value=1e-3, max_value=1e6)),
        )
    return ResourceEvent(
        draw(finite_minutes), provider, kind, "r-1", ResourceEventKind(which),
        draw(finite_minutes),
    )

#: Lines that name no provider/component_kind anywhere.
UNROUTABLE = ['{"kind": "exposure"}', "not json", "[1, 2]", '{"provider": "a"}']


@st.composite
def mixed_lines(draw):
    """``(line, expected record or None, category)``."""
    category = draw(
        st.sampled_from(
            ["valid", "valid", "valid", "malformed", "wrong-type", "non-finite",
             "duplicate", "blank", "unroutable"]
        )
    )
    if category == "blank":
        return draw(st.sampled_from(["", "   ", "\t"])), None, category
    if category == "unroutable":
        return draw(st.sampled_from(UNROUTABLE)), None, category
    record = draw(valid_records())
    line = record_to_json(record)
    if category == "valid":
        return line, record, category
    if category == "malformed":
        return line[:-1], None, category
    if category == "duplicate":
        # json.loads keeps the last occurrence; so must the routing.
        decoy = draw(st.sampled_from(["a", "b", "c", "zz"]))
        return '{"provider": "%s", ' % decoy + line[1:], record, category
    payload = record_to_dict(record)
    if category == "wrong-type":
        field = draw(
            st.sampled_from(
                ["node_count", "horizon_minutes", "provider"]
                if isinstance(record, ExposureRecord)
                else ["time_minutes", "duration_minutes", "component_kind"]
            )
        )
        wrong = (
            [5, [1], {"x": 1}]
            if field in ("provider", "component_kind")
            else ["abc", "7", True, [1], {"x": 1}, None]
        )
        payload[field] = draw(st.sampled_from(wrong))
    else:
        field = (
            "horizon_minutes"
            if isinstance(record, ExposureRecord)
            else draw(st.sampled_from(["time_minutes", "duration_minutes"]))
        )
        payload[field] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return json.dumps(payload, sort_keys=True), None, category


class TestMixedLines:
    @given(items=st.lists(mixed_lines(), max_size=24), shards=st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_counts_and_snapshot_match_single_store(self, items, shards):
        lines = [line for line, _, _ in items]
        nonblank = [item for item in items if item[2] != "blank"]
        # Offline parsing accepts exactly the lines the server ingests.
        for line, record, category in nonblank:
            if category == "unroutable":
                continue
            if record is None:
                with pytest.raises(ValidationError, match="line 1"):
                    records_from_jsonl(line)
            else:
                assert records_from_jsonl(line) == [record]
        serving = TelemetryStore()
        with ShardedIngestor(serving, num_shards=shards) as ingestor:
            unroutable = [
                number
                for number, (_, _, category) in enumerate(items, start=1)
                if category == "unroutable"
            ]
            if unroutable:
                with pytest.raises(
                    ValidationError, match=f"telemetry line {unroutable[0]} "
                ):
                    ingestor.submit_jsonl(lines)
                assert ingestor.flush() == 0
                assert serving.snapshot() == TelemetryStore().snapshot()
                return
            assert ingestor.submit_jsonl("\n".join(lines)) == len(nonblank)
            valid = [record for _, record, _ in nonblank if record is not None]
            assert ingestor.flush() == len(valid)
            assert flushed_counts(ingestor) == (
                len(valid), len(nonblank) - len(valid)
            )
        assert serving.snapshot() == ingest_directly(valid).snapshot()


# -- merge associativity properties -----------------------------------------

outage_minutes = st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False)
failover_samples = st.lists(
    st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    min_size=1,
    max_size=10,
)

component_keys = st.sampled_from(
    [("a", "vm"), ("a", "volume"), ("b", "vm"), ("c", "gateway")]
)


@st.composite
def observation_streams(draw):
    """A list of (key, outage, failovers) observations for many keys."""
    entries = draw(
        st.lists(
            st.tuples(component_keys, outage_minutes, failover_samples),
            min_size=1,
            max_size=24,
        )
    )
    return entries


def _apply_stream(store: TelemetryStore, entries) -> None:
    for (provider, kind), outage, failovers in entries:
        store.register_exposure(provider, kind, 1, 5000.0)
        store.record_failure(provider, kind)
        store.record_outage(provider, kind, outage)
        for sample in failovers:
            store.record_failover(provider, kind, sample)


def _assert_close(left: TelemetryStore, right: TelemetryStore) -> None:
    assert left.observed_components() == right.observed_components()
    for provider, kind in left.observed_components():
        assert left.down_probability(provider, kind) == pytest.approx(
            right.down_probability(provider, kind), rel=1e-12, abs=1e-15
        )
        assert left.failures_per_year(provider, kind) == pytest.approx(
            right.failures_per_year(provider, kind), rel=1e-12
        )
        assert left.failover_minutes(provider, kind) == pytest.approx(
            right.failover_minutes(provider, kind), rel=1e-12
        )


class TestMergeProperties:
    @given(entries=observation_streams(), cut=st.integers(0, 24))
    @settings(max_examples=60, deadline=None)
    def test_merge_of_split_stream_matches_single_store(self, entries, cut):
        """merge(prefix, suffix) == ingest-everything, to rounding."""
        cut = min(cut, len(entries))
        single = TelemetryStore()
        _apply_stream(single, entries)
        prefix, suffix = TelemetryStore(), TelemetryStore()
        _apply_stream(prefix, entries[:cut])
        _apply_stream(suffix, entries[cut:])
        _assert_close(prefix.merge(suffix), single)

    @given(entries=observation_streams())
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, entries):
        """(a + b) + c == a + (b + c), to rounding."""
        thirds = [
            entries[0::3],
            entries[1::3],
            entries[2::3],
        ]
        stores = []
        for part in thirds:
            store = TelemetryStore()
            _apply_stream(store, part)
            stores.append(store)
        a1, b1, c1 = (store.copy() for store in stores)
        a2, b2, c2 = (store.copy() for store in stores)
        left = a1.merge(b1).merge(c1)
        right = a2.merge(b2.merge(c2))
        _assert_close(left, right)

    @given(entries=observation_streams(), shards=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_key_partitioned_merge_is_exact(self, entries, shards):
        """Partitioning on the accumulation key is bit-exact, any N."""
        single = TelemetryStore()
        _apply_stream(single, entries)
        partitions = [TelemetryStore() for _ in range(shards)]
        for entry in entries:
            (provider, kind), _, _ = entry
            index = shard_index(provider, kind, shards)
            _apply_stream(partitions[index], [entry])
        merged = TelemetryStore()
        for partition in partitions:
            merged.merge(partition)
        assert merged.snapshot() == single.snapshot()
