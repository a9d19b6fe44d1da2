"""The metrics registry: render/parse round trips and histogram math."""

from __future__ import annotations

import gc

import pytest

from repro.errors import ValidationError
from repro.server.metrics import (
    MetricsRegistry,
    ServerMetrics,
    parse_prometheus_text,
)


class FakeSession:
    """Duck-typed stand-in for a BrokerSession's metrics surface."""

    def metrics(self):
        return {
            "engine_cache": {
                "hits": 3, "misses": 1, "evictions": 0, "replays": 2,
            },
            "engines_cached": 1,
            "jobs": {"pending": 0, "running": 0, "done": 2, "failed": 0},
            "job_queue_depth": 0,
            "jobs_evicted": {"retrieved": 0, "ttl": 0},
        }


class TestRegistryRoundTrip:
    def test_counter_and_gauge_samples_round_trip(self):
        registry = MetricsRegistry()
        requests = registry.counter("rt_requests_total", "Requests.", ("route",))
        requests.inc(labels=("recommend",))
        requests.inc(2.0, labels=("batch",))
        depth = registry.gauge("rt_depth", "Queue depth.")
        depth.set(7)
        samples = parse_prometheus_text(registry.render())
        assert samples[("rt_requests_total", (("route", "recommend"),))] == 1
        assert samples[("rt_requests_total", (("route", "batch"),))] == 2
        assert samples[("rt_depth", ())] == 7

    def test_awkward_label_values_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("rt_paths_total", "Paths.", ("path",))
        for value in ('C:\\new', 'say "hi"', "line\nbreak", "\\\\n"):
            counter.inc(labels=(value,))
        samples = parse_prometheus_text(registry.render())
        for value in ('C:\\new', 'say "hi"', "line\nbreak", "\\\\n"):
            assert samples[("rt_paths_total", (("path", value),))] == 1

    def test_histogram_buckets_are_cumulative_and_le_inclusive(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "rt_seconds", "Latency.", buckets=(0.1, 0.5, 1.0)
        )
        for value in (0.05, 0.1, 0.3, 2.0):
            histogram.observe(value)
        samples = parse_prometheus_text(registry.render())
        assert samples[("rt_seconds_bucket", (("le", "0.1"),))] == 2  # inclusive
        assert samples[("rt_seconds_bucket", (("le", "0.5"),))] == 3
        assert samples[("rt_seconds_bucket", (("le", "1"),))] == 3
        assert samples[("rt_seconds_bucket", (("le", "+Inf"),))] == 4
        assert samples[("rt_seconds_count", ())] == 4
        assert samples[("rt_seconds_sum", ())] == pytest.approx(2.45)

    def test_duplicate_registration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("rt_once", "Once.")
        with pytest.raises(ValidationError, match="already registered"):
            registry.gauge("rt_once", "Twice.")

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("rt_up", "Up.")
        with pytest.raises(ValidationError, match="only go up"):
            counter.inc(-1.0)


class TestExpositionConformance:
    """Regressions for Prometheus text-format edge cases."""

    def test_negative_infinity_and_nan_render_and_parse(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("rt_edge", "Edge values.", ("kind",))
        gauge.set(float("-inf"), labels=("lo",))
        gauge.set(float("inf"), labels=("hi",))
        gauge.set(float("nan"), labels=("nan",))
        text = registry.render()
        assert 'rt_edge{kind="lo"} -Inf' in text
        assert 'rt_edge{kind="hi"} +Inf' in text
        assert 'rt_edge{kind="nan"} NaN' in text
        samples = parse_prometheus_text(text)
        assert samples[("rt_edge", (("kind", "lo"),))] == float("-inf")
        assert samples[("rt_edge", (("kind", "hi"),))] == float("inf")
        nan = samples[("rt_edge", (("kind", "nan"),))]
        assert nan != nan  # NaN round-trips as NaN

    def test_metric_name_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError, match="invalid metric name"):
            registry.counter("0bad", "Leading digit.")
        with pytest.raises(ValidationError, match="invalid metric name"):
            registry.counter("has-dash", "Dash.")
        registry.counter("ok:colon_name", "Colons are legal in metrics.")

    def test_label_name_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError, match="invalid label name"):
            registry.counter("rt_labels", "Bad label.", ("has-dash",))
        with pytest.raises(ValidationError, match="invalid label name"):
            registry.counter("rt_labels2", "Colon label.", ("no:colon",))

    def test_histogram_rejects_reserved_le_label(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError, match="reserved label 'le'"):
            registry.histogram("rt_hist", "Reserved.", ("le",))

    def test_histogram_bucket_counts_stay_monotone(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "rt_mono", "Monotone.", buckets=(0.001, 0.01, 0.1, 1.0)
        )
        for value in (0.0005, 0.005, 0.005, 0.05, 0.5, 5.0, 5.0):
            histogram.observe(value)
        samples = parse_prometheus_text(registry.render())
        counts = [
            samples[("rt_mono_bucket", (("le", le),))]
            for le in ("0.001", "0.01", "0.1", "1", "+Inf")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == samples[("rt_mono_count", ())] == 7


class TestServerMetricsSpanHistogram:
    def test_tracer_observer_feeds_phase_histogram(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        metrics = ServerMetrics(FakeSession(), tracer=tracer)
        assert tracer.observer == metrics._observe_span

        with tracer.span("request"):
            with tracer.span("evaluate"):
                pass
        samples = parse_prometheus_text(metrics.render())
        assert samples[
            ("repro_span_duration_seconds_count", (("phase", "request"),))
        ] == 1
        assert samples[
            ("repro_span_duration_seconds_count", (("phase", "evaluate"),))
        ] == 1
        # Cumulative histogram invariants hold per phase label.
        assert samples[
            ("repro_span_duration_seconds_bucket",
             (("le", "+Inf"), ("phase", "request")))
        ] == 1

    def test_without_tracer_histogram_stays_declared_but_empty(self):
        metrics = ServerMetrics(FakeSession())
        text = metrics.render()
        assert "# TYPE repro_span_duration_seconds histogram" in text
        samples = parse_prometheus_text(text)
        assert not any(
            name.startswith("repro_span_duration_seconds") for name, _ in samples
        )


class TestServerMetricsGarbageCollector:
    def test_full_collection_counter_rises_between_scrapes(self):
        metrics = ServerMetrics(FakeSession())
        before = parse_prometheus_text(metrics.render())
        gc.collect()
        after = parse_prometheus_text(metrics.render())
        for generation in ("0", "1", "2"):
            key = ("repro_gc_collections_total", (("generation", generation),))
            assert after[key] >= before[key]
        full = ("repro_gc_collections_total", (("generation", "2"),))
        assert after[full] >= before[full] + 1

    def test_counter_is_typed_and_labelled(self):
        text = ServerMetrics(FakeSession()).render()
        assert "# TYPE repro_gc_collections_total counter" in text
        assert 'repro_gc_collections_total{generation="2"}' in text


class TestServerMetricsNoPoolSamples:
    def test_render_exports_no_pool_or_term_table_gauges(self):
        text = ServerMetrics(FakeSession()).render()
        assert "repro_pool_leases" not in text
        assert "repro_term_table_bytes" not in text

    def test_pool_registry_argument_is_gone(self):
        with pytest.raises(TypeError, match="pool_registry"):
            ServerMetrics(FakeSession(), pool_registry=None)
